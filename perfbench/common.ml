(* Shared plumbing: one measured rep, summary statistics, process memory. *)

(* One rep of a workload. [cpu] is the raw CPU time of the timed region and
   [bracket] the reference-kernel samples taken right around it. *)
type rep = {
  cpu : float;
  bracket : Refspeed.bracket;
  txns : int;
  pins : (string * float) list;
      (** exact per seed: must be bit-identical across the reps of a run *)
  host : (string * float) list;
      (** raw host-time values (µs or s) reported at reference speed *)
  errors : string list;  (** failed output checks *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  gc_pause : float;  (** GC pause seconds in the timed region (traced run) *)
}

let factor r = Refspeed.factor r.bracket
let pin name r = Option.value ~default:0. (List.assoc_opt name r.pins)

(* [timed f] compacts the heap, then runs [f] between two reference-kernel
   samples and reads CPU time and GC counters around it. Minor words come
   from [Gc.minor_words], which is exact; [Gc.quick_stat]'s count only
   advances at minor collections. *)
let timed f =
  Gc.compact ();
  ignore (Gcpause.take ());
  let k_before = Refspeed.sample () in
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Refspeed.cpu_now () in
  let v = f () in
  let cpu = Refspeed.cpu_now () -. t0 in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let gc_pause = Gcpause.take () in
  let k_after = Refspeed.sample () in
  ( v,
    cpu,
    { Refspeed.k_before; k_after },
    ( m1 -. m0,
      g1.Gc.promoted_words -. g0.Gc.promoted_words,
      g1.Gc.major_collections - g0.Gc.major_collections,
      gc_pause ) )

let make_rep ~cpu ~bracket
    ~gc:(minor_words, promoted_words, major_collections, gc_pause) ~txns ~pins ~host
    ~errors =
  {
    cpu;
    bracket;
    txns;
    pins;
    host;
    errors;
    minor_words;
    promoted_words;
    major_collections;
    gc_pause;
  }

(* --- statistics ---------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a sorted array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile_sorted (sorted xs) 0.5

(* The highest percentile (among a fixed ladder) with at least ten samples
   beyond it, and its value. *)
let tail_percentile a =
  let n = Array.length a in
  let ladder = [ 99.99; 99.9; 99.5; 99.; 98.; 95.; 90.; 75.; 50. ] in
  let ok p = float_of_int n *. (1. -. (p /. 100.)) >= 10. in
  match List.find_opt ok ladder with
  | Some p -> Some (p, quantile_sorted a (p /. 100.))
  | None -> None

(* --- process memory ------------------------------------------------------ *)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let kb = ref 0 in
  (try
     while true do
       let l = input_line ic in
       if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
         Scanf.sscanf l "VmHWM: %d kB" (fun k -> kb := k)
     done
   with End_of_file -> ());
  close_in ic;
  float_of_int !kb /. 1024.

(* ns timestamps for per-operation latencies and spans. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())
