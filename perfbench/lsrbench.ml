(* lsrbench: the repository benchmark.

     lsrbench.exe --workload NAME --seed N --seconds S --trace 0|1
     lsrbench.exe --calibrate N

   One run: set up several times (input generation, preload and one warm-up
   rep; the extra set-ups run in forked children so each starts cold), then
   measured reps until [--seconds] of wall time is used (at least three),
   then the output checks, outside the timed region. Host-time metrics are
   reported at reference speed (see refspeed.ml). The last line of standard
   output is one JSON object: {correct, attempted, failed, metrics}. With
   [--trace 1] the metrics are the per-layer ones and the spans are written
   to .perfbench_out/. *)

let workloads = [ "paper-fig2"; "million-observed"; "embedded-bookstore" ]
let min_reps = 3
let setup_samples = 5

type state = Sim of Simwl.kind | Book of Bookstore.t

let setup name ~seed =
  match name with
  | "paper-fig2" -> Sim Simwl.Fig2
  | "million-observed" -> Sim Simwl.Million
  | _ -> Book (Bookstore.setup ~seed)

(* [check]: also run the embedded workload's post-hoc checker (on the
   warm-up rep and the first measured rep; the reps are identical replays). *)
let run_rep ?(check = false) st ~seed =
  match st with
  | Sim k -> snd (Simwl.run_rep k ~seed)
  | Book t -> snd (Bookstore.run_rep ~check t)

(* One timed set-up: input generation plus the warm-up rep (which also
   grows the heap to its working size). Returns the state, the warm-up rep
   and the set-up's measurement. *)
type setup_sample = { raw : float; bracket : Refspeed.bracket; hwm_mb : float }

let timed_setup name ~seed =
  let (st, warm), raw, bracket =
    Refspeed.bracketed (fun () ->
        let st = setup name ~seed in
        (st, run_rep ~check:true st ~seed))
  in
  (st, warm, { raw; bracket; hwm_mb = Common.peak_rss_mb () })

(* A set-up in a forked child, so it starts from the same cold heap as the
   parent's. *)
let setup_in_child name ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    (try
       let _, warm, s = timed_setup name ~seed in
       if warm.Common.errors <> [] then failwith (List.hd warm.errors);
       Printf.fprintf oc "%h %h %h %h\n" s.raw s.bracket.k_before s.bracket.k_after s.hwm_mb
     with e -> Printf.fprintf oc "error %s\n" (Printexc.to_string e));
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "error no answer" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    Scanf.sscanf_opt line "%h %h %h %h" (fun raw k_before k_after hwm_mb ->
        { raw; bracket = { Refspeed.k_before; k_after }; hwm_mb })
    |> Option.to_result ~none:("set-up child: " ^ line)

(* Exactness pins: every exact value and the allocated (minor) words must be
   bit-identical across all reps of one run. Promoted words are not pinned:
   they depend on where minor collections fall. *)
let pin_errors reps =
  match reps with
  | [] -> []
  | (r0 : Common.rep) :: rest ->
    List.concat_map
      (fun (r : Common.rep) ->
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k r.pins with
            | Some v' when v' = v -> None
            | v' ->
              Some
                (Printf.sprintf "nondeterministic %s: %h vs %s" k v
                   (match v' with Some x -> Printf.sprintf "%h" x | None -> "missing")))
          r0.pins
        @
        if r.minor_words <> r0.minor_words then
          [ Printf.sprintf "nondeterministic minor words: %.0f vs %.0f" r0.minor_words r.minor_words ]
        else [])
      rest

let med f reps = Common.median (List.map f reps)
let raw_host k (r : Common.rep) = List.assoc k r.host

(* --- output ------------------------------------------------------------- *)

let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "_ms" then "ms"
  else if ends "_us" || ends "_us_per_txn" then "us"
  else if ends "_ns" then "ns"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if ends "_tps" then "1/s"
  else if ends "_frac" || ends "_util" || ends "_ci95" then "fraction"
  else if ends "_per_txn" then "count/txn"
  else "count"

let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (k, v) ->
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        k (Printf.sprintf "%.17g" v) (unit_of k))
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let report fmt = Printf.printf (fmt ^^ "\n%!")

(* Median, highest percentile with >= 10 samples beyond it, sample count. *)
let report_latency name samples f =
  let a = Array.map (fun x -> x *. f /. 1e3) samples in
  Array.sort compare a;
  match Common.tail_percentile a with
  | Some (p, v) ->
    report "  %-14s p50 %8.2f us   p%g %9.2f us   (n=%d)" name
      (Common.quantile_sorted a 0.5) p v (Array.length a)
  | None -> report "  %-14s n=%d" name (Array.length a)

(* --- main ---------------------------------------------------------------- *)

let calibrate n =
  Refspeed.start ();
  let ks = List.init n (fun _ -> Refspeed.sample ()) in
  Refspeed.stop ();
  let a = Common.sorted ks in
  report "reference kernel: %d samples, median %.4f s, min %.4f s, max %.4f s (nominal %.4f s)"
    n (Common.quantile_sorted a 0.5) a.(0) a.(n - 1) Refspeed.k_nominal

let sum_cpu reps = List.fold_left (fun a (r : Common.rep) -> a +. r.cpu) 0. reps

let bench ~name ~seed ~seconds ~trace =
  Refspeed.start ();
  let child_setups = List.init (setup_samples - 1) (fun _ -> setup_in_child name ~seed) in
  let st, warm, own_setup = timed_setup name ~seed in
  let setup_errors, child_setups =
    List.partition_map (function Ok s -> Right s | Error e -> Left e) child_setups
  in
  let setups = own_setup :: child_setups in
  if trace then Gcpause.start ();
  let t0 = Unix.gettimeofday () in
  let rec loop acc last =
    let n = List.length acc in
    if n >= min_reps && Unix.gettimeofday () -. t0 +. last > seconds then List.rev acc
    else
      let a = Unix.gettimeofday () in
      let r = run_rep ~check:(n = 0) st ~seed in
      loop (r :: acc) (Unix.gettimeofday () -. a)
  in
  let reps = loop [] 0. in
  (* Output checks, outside the timed region. *)
  let first = List.hd reps in
  let check_raw, history_txns, check_errors =
    match st with
    | Sim Simwl.Fig2 -> Simwl.replay_check ~seed first
    | Sim Simwl.Million -> (0., 0, [])
    | Book _ ->
      (raw_host "check_us_per_txn" first, int_of_float (Common.pin "history.txns" first), [])
  in
  let errors =
    setup_errors
    @ List.concat_map (fun (r : Common.rep) -> r.errors) (warm :: reps)
    @ pin_errors (warm :: reps)
    @ check_errors
  in
  let attempted = List.fold_left (fun a (r : Common.rep) -> a + r.txns) 0 reps in
  let failed = List.fold_left (fun a (r : Common.rep) -> a + List.length r.errors) 0 reps in
  (* Reference speed, per rep (and per set-up): raw x (K_nominal / the mean
     of the kernel samples right before and after it); then the median. *)
  let brackets =
    List.map (fun s -> s.bracket) setups @ List.map (fun (r : Common.rep) -> r.bracket) reps
  in
  let kernels = List.concat_map (fun b -> [ b.Refspeed.k_before; b.k_after ]) brackets in
  let per_txn (r : Common.rep) = r.cpu *. 1e6 /. float_of_int r.txns in
  let adj (r : Common.rep) x = x *. Common.factor r in
  (* One representative factor for the per-layer unit costs and span times. *)
  let f = med Common.factor reps in
  let raw_host_us = med per_txn reps in
  let host_us = med (fun r -> adj r (per_txn r)) reps in
  let raw_setup = Common.median (List.map (fun s -> s.raw) setups) in
  let is_sim = match st with Sim _ -> true | Book _ -> false in
  let pin k = Common.pin k first in
  let book k = if is_sim then 0. else med (fun r -> adj r (raw_host k r)) reps in
  let e2e =
    [
      ( "setup_s",
        Common.median (List.map (fun s -> s.raw *. Refspeed.factor s.bracket) setups) );
      ("host_us_per_txn", host_us);
      ("peak_rss_mb", Common.median (List.map (fun s -> s.hwm_mb) setups));
      ("tput_tps", if is_sim then pin "sim_tput_tps" else 1e6 /. host_us);
      ("read_mean_ms", if is_sim then pin "sim_read_mean_s" *. 1e3 else book "read_mean_us" /. 1e3);
      ("read_p95_ms", if is_sim then pin "sim_read_p95_s" *. 1e3 else book "read_p95_us" /. 1e3);
    ]
  in
  report "workload %s  seed %d  reps %d  set-ups %d  median reference factor %.4f" name
    seed (List.length reps) (List.length setups) f;
  List.iter (fun (k, v) -> report "  %-20s %14.4f %s" k v (unit_of k)) e2e;
  List.iteri
    (fun i (r : Common.rep) ->
      report "  rep %2d  raw %.3f s  kernel %.4f/%.4f s (disagree %.1f%%)" (i + 1) r.cpu
        r.bracket.k_before r.bracket.k_after
        (100. *. Refspeed.disagreement r.bracket))
    reps;
  (match st with
   | Book _ ->
     let lr, lb = !Bookstore.last_latencies in
     report_latency "read" lr f;
     report_latency "update" lb f
   | Sim _ -> ());
  (* Raw and per-rep-adjusted values beside the reported ones: the input of
     the reference-speed self-check (compare.py selfcheck). *)
  report "  selfcheck host_us_per_txn raw=%.6g rep=%.6g setup_s raw=%.6g rep=%.6g" raw_host_us
    host_us raw_setup (List.assoc "setup_s" e2e);
  let metrics, trace_errors =
    if not trace then (e2e, [])
    else begin
      let gc_pause_frac =
        List.fold_left (fun a (r : Common.rep) -> a +. r.gc_pause) 0. reps /. sum_cpu reps
      in
      let cpu_ref = med (fun r -> adj r r.cpu) reps in
      Spans.enabled := true;
      let layer, trace_errors =
        match st with
        | Sim k -> Simwl.traced k ~seed ~first ~f ~cpu_ref ~gc_pause_frac
        | Book t -> Bookstore.traced t ~first ~f ~cpu_ref ~gc_pause_frac
      in
      Spans.enabled := false;
      let common =
        [
          ("ref.kernel_s", Common.median kernels);
          ( "ref.disagree_frac",
            Common.median (List.map Refspeed.disagreement brackets) );
          ("raw.host_us_per_txn", raw_host_us);
          ("raw.setup_s", raw_setup);
          ("raw.check_us_per_txn", check_raw);
          ("raw.read_p50_us", if is_sim then 0. else med (raw_host "read_p50_us") reps);
          ("check_us_per_txn", check_raw *. f);
          ("history.txns", float_of_int history_txns);
          ("gc.minor_words_per_txn", first.minor_words /. float_of_int first.txns);
          ( "gc.promoted_words_per_txn",
            med (fun (r : Common.rep) -> r.promoted_words /. float_of_int r.txns) reps );
          ("gc.major_collections", med (fun (r : Common.rep) -> float_of_int r.major_collections) reps);
          ("gc.pause_frac", gc_pause_frac);
          ("sim_tput_tps", if is_sim then pin "sim_tput_tps" else 0.);
          ("sim_read_p95_s", if is_sim then pin "sim_read_p95_s" else 0.);
          ("sim_update_mean_s", if is_sim then pin "sim_update_mean_s" else 0.);
          ("sim_update_p95_s", if is_sim then pin "sim_update_p95_s" else 0.);
          ("sim_read_age_p95_s", if is_sim then pin "sim_read_age_p95_s" else 0.);
          ("read_p50_us", book "read_p50_us");
          ("read_p99_us", book "read_p99_us");
          ("update_mean_us", book "update_mean_us");
          ("update_p50_us", book "update_p50_us");
          ("update_p99_us", book "update_p99_us");
        ]
      in
      let times = Spans.self_times () in
      report "  span self times (calls, total ms):";
      List.iter (fun (k, (n, t)) -> report "    %-24s %8d %12.3f" k n (t /. 1e3)) times;
      let all = common @ layer in
      List.iter (fun (k, v) -> report "  %-30s %16.6g %s" k v (unit_of k)) all;
      if !Gcpause.lost > 0 then
        report "  runtime_events lost %d events: gc.pause_frac is a lower bound" !Gcpause.lost;
      (all, trace_errors)
    end
  in
  if trace then begin
    Gcpause.stop ();
    let dir = ".perfbench_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let file = Printf.sprintf "%s/spans-%s-seed%d.json" dir name seed in
    Spans.write ~file;
    report "  spans written to %s" file
  end;
  Refspeed.stop ();
  let errors = errors @ trace_errors in
  List.iter (fun e -> report "  CHECK FAILED: %s" e) errors;
  print_result ~correct:(errors = []) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let calibrate_n = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " wall seconds of measured reps");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run, per-layer metrics");
      ("--calibrate", Arg.Set_int calibrate_n, "N time the reference kernel N times and exit");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lsrbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !calibrate_n > 0 then calibrate !calibrate_n
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("lsrbench: unknown workload " ^ !workload);
    exit 2
  end
  else bench ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
