(* Reference speed: host CPU time reported as if the host ran at a fixed
   nominal speed.

   The host's speed drifts over minutes (frequency scaling, neighbouring
   guests contending for shared cores and caches). A fixed, seeded, compute-only kernel is timed right
   before and right after each measured rep; the rep's CPU time is then scaled
   by [k_nominal / k_measured]. The kernel uses the OCaml stdlib only
   (allocation, Hashtbl, Array.sort) and never calls repository code, so no
   change to the system under test can make it faster.

   The kernel runs in a helper process forked before the workload allocates
   anything: the workload's heap and GC state never slow it, and its memory
   never counts in the workload's peak RSS. The helper computes only while
   the benchmark blocks waiting for its answer, so the two never compete for
   a core. *)

(* CPU seconds the kernel took on the reference host: the median of the
   kernel samples over the benchmark's first runs on a 2-vCPU KVM guest
   (single samples there ranged 0.09-0.16 s; [lsrbench.exe --calibrate N]
   prints the current spread). Recorded once: changing it rescales every
   reference-speed metric. *)
let k_nominal = 0.1260

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A fixed workload of allocation, hashing and sorting; the checksum proves
   every run did the same work. *)
let kernel () =
  let st = Random.State.make [| 0x5eed; 2006 |] in
  let sum = ref 0 in
  for _round = 1 to 6 do
    let n = 20_000 in
    let a = Array.init n (fun _ -> Random.State.bits st) in
    Array.sort compare a;
    let h = Hashtbl.create 64 in
    Array.iteri (fun i x -> Hashtbl.replace h (x land 0xfff) (i, string_of_int x)) a;
    let l = ref [] in
    Array.iter
      (fun x ->
        match Hashtbl.find_opt h (x land 0xfff) with
        | Some (i, s) -> l := (i + String.length s) :: !l
        | None -> ())
      a;
    let b = Array.of_list !l in
    Array.sort (fun x y -> compare y x) b;
    sum := !sum + b.(0) + Hashtbl.length h + a.(n / 2) land 0xffff
  done;
  !sum

let timed_kernel () =
  let t0 = cpu_now () in
  let c = kernel () in
  (cpu_now () -. t0, c)

type helper = { pid : int; req : out_channel; resp : in_channel }

let helper = ref None

(* Fork the helper. Call before anything else allocates: the child's heap is
   a copy of the parent's at this instant. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    let ic = Unix.in_channel_of_descr req_r in
    let oc = Unix.out_channel_of_descr resp_w in
    let expect = ref None in
    (try
       while input_char ic = 'k' do
         let dt, c = timed_kernel () in
         (match !expect with
          | None -> expect := Some c
          | Some e -> if e <> c then failwith "reference kernel checksum drifted");
         Printf.fprintf oc "%h\n%!" dt
       done
     with End_of_file -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    helper :=
      Some
        {
          pid;
          req = Unix.out_channel_of_descr req_w;
          resp = Unix.in_channel_of_descr resp_r;
        }

(* One kernel timing from the helper; the caller blocks until it is done. *)
let sample () =
  match !helper with
  | None -> invalid_arg "Refspeed.sample: helper not started"
  | Some h ->
    output_char h.req 'k';
    flush h.req;
    float_of_string (input_line h.resp)

let stop () =
  match !helper with
  | None -> ()
  | Some h ->
    helper := None;
    output_char h.req 'q';
    close_out h.req;
    close_in h.resp;
    ignore (Unix.waitpid [] h.pid)

(* A measured interval bracketed by two kernel timings. *)
type bracket = { k_before : float; k_after : float }

let k_measured b = (b.k_before +. b.k_after) /. 2.
let factor b = k_nominal /. k_measured b
let disagreement b = Float.abs (b.k_before -. b.k_after) /. k_measured b

(* [bracketed f] runs [f] between two kernel samples and returns its result,
   its raw CPU seconds and the bracket. *)
let bracketed f =
  let k_before = sample () in
  let t0 = cpu_now () in
  let r = f () in
  let raw = cpu_now () -. t0 in
  let k_after = sample () in
  (r, raw, { k_before; k_after })
