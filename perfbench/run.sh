#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

# Keep every write inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
# The traced run's GC pauses come from a runtime_events ring of 2^e words
# per domain; its file (2^e KiB plus about 1 MiB of headers for 128 domains)
# must stay under the file-size limit, or the run dies of SIGXFSZ. e=16 (a
# 65 MiB file) loses no event of a rep on any workload; under a smaller
# limit the ring shrinks and lost events are reported. The ring file and the
# traced run's spans go to .perfbench_out/.
e=16
limit=$(ulimit -f)
if [ "$limit" != unlimited ]; then
  while [ "$e" -gt 10 ] && [ $(( (1 << e) + 1100 )) -gt "$limit" ]; do e=$((e - 1)); done
fi
export OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}e=$e"
mkdir -p .perfbench_out
export OCAML_RUNTIME_EVENTS_DIR=.perfbench_out

dune build --root . ./perfbench/lsrbench.exe 1>&2
# Pin the benchmark, and with it the reference-kernel helper it forks, to the
# CPU this script runs on: the kernel then measures the speed of the CPU the
# workload runs on, not that of another one.
exe=./_build/default/perfbench/lsrbench.exe
cpu=$(awk '{print $39}' /proc/self/stat 2>/dev/null || true)
if [ -n "$cpu" ] && command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
