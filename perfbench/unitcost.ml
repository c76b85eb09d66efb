(* Per-operation costs of the simulator and storage layers, measured through
   their public functions at a workload's own scale (live events, keys,
   version-chain length). Each batch is one span in the traced run.

   Costs of the process, resource and wake-up layers are net of the engine
   events they fire (events x [engine_dispatch_ns]), so that "count x unit
   cost" attributes every nanosecond to one layer only. *)

open Lsr_sim
open Lsr_storage

let cpu = Refspeed.cpu_now

(* Schedule-and-dispatch of one event with [live] events pending. *)
let engine_dispatch_ns ~live ~n =
  Spans.with_span "unit.engine" @@ fun () ->
  let eng = Engine.create () in
  let rng = Random.State.make [| 11 |] in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired <= n then
      ignore (Engine.schedule eng ~delay:(Random.State.float rng 1.0) tick)
  in
  for _ = 1 to live do
    ignore (Engine.schedule eng ~delay:(Random.State.float rng 1.0) tick)
  done;
  let t0 = cpu () in
  Engine.run eng;
  (cpu () -. t0) *. 1e9 /. float_of_int (Engine.events_processed eng)

(* One process suspension and resumption ([Process.delay]), net of its
   event. *)
let process_switch_ns ~live ~n ~dispatch =
  Spans.with_span "unit.process" @@ fun () ->
  let eng = Engine.create () in
  let rng = Random.State.make [| 12 |] in
  let switches = ref 0 in
  for _ = 1 to live do
    Process.spawn eng (fun () ->
        while !switches < n do
          incr switches;
          Process.delay (Random.State.float rng 1.0)
        done)
  done;
  let t0 = cpu () in
  Engine.run eng;
  let total = (cpu () -. t0) *. 1e9 in
  (total -. (float_of_int (Engine.events_processed eng) *. dispatch))
  /. float_of_int !switches

(* One [Resource.use] of a processor-sharing site with [jobs] concurrent
   users, net of engine events and of the users' think-time switches.
   [dispatch] is the event cost at [jobs] live events. *)
let resource_ps_use_ns ~jobs ~n ~dispatch ~switch =
  Spans.with_span "unit.resource" @@ fun () ->
  let eng = Engine.create () in
  let r = Resource.create eng ~discipline:Resource.Processor_sharing in
  let rng = Random.State.make [| 13 |] in
  let uses = ref 0 in
  for _ = 1 to jobs do
    Process.spawn eng (fun () ->
        while !uses < n do
          incr uses;
          Resource.use r (0.02 *. Random.State.float rng 1.0);
          Process.delay (Random.State.float rng 0.05)
        done)
  done;
  let t0 = cpu () in
  Engine.run eng;
  let total = (cpu () -. t0) *. 1e9 in
  let u = float_of_int !uses in
  (total -. (float_of_int (Engine.events_processed eng) *. dispatch) -. (u *. switch))
  /. u

(* One [Seqcond] wake-up of a waiter whose threshold was reached, with
   [waiters] parked, net of engine events ([dispatch] is the event cost with
   a single live event: parked waiters are not in the event heap). *)
let seqcond_wake_ns ~waiters ~n ~dispatch =
  Spans.with_span "unit.seqcond" @@ fun () ->
  let eng = Engine.create () in
  let sc = Seqcond.create () in
  let wakes = ref 0 in
  for w = 1 to waiters do
    Process.spawn eng (fun () ->
        let target = ref w in
        while !wakes < n do
          Seqcond.await sc ~threshold:(fun () -> !target);
          incr wakes;
          target := !target + waiters
        done)
  done;
  Process.spawn eng (fun () ->
      let level = ref 0 in
      while !wakes < n do
        Process.delay 1.0;
        incr level;
        Seqcond.advance sc !level
      done;
      (* release the parked waiters so the engine drains *)
      Seqcond.advance sc max_int);
  let t0 = cpu () in
  Engine.run eng;
  let total = (cpu () -. t0) *. 1e9 in
  (total -. (float_of_int (Engine.events_processed eng) *. dispatch))
  /. float_of_int (max 1 !wakes)

(* Mvcc read / write / commit with [keys] keys each holding [chain]
   committed versions: (read_ns, write_ns, commit_ns). *)
let mvcc_ns ~keys ~chain ~txns =
  Spans.with_span "unit.mvcc" @@ fun () ->
  let db = Mvcc.create () in
  let key i = "k" ^ string_of_int i in
  for c = 1 to chain do
    let t = Mvcc.begin_txn db in
    for i = 0 to keys - 1 do
      Mvcc.write db t (key i) (Some (string_of_int c))
    done;
    ignore (Mvcc.commit db t)
  done;
  let rng = Random.State.make [| 14 |] in
  let reads_per_txn = 10 and writes_per_txn = 3 in
  let t0 = cpu () in
  for _ = 1 to txns do
    let t = Mvcc.begin_txn db in
    for _ = 1 to reads_per_txn do
      ignore (Mvcc.read db t (key (Random.State.int rng keys)))
    done;
    Mvcc.end_read db t
  done;
  let read_ns = (cpu () -. t0) *. 1e9 /. float_of_int (txns * reads_per_txn) in
  let w = ref 0. and c = ref 0. in
  for _ = 1 to txns do
    let t = Mvcc.begin_txn db in
    let a = Common.now_ns () in
    for _ = 1 to writes_per_txn do
      Mvcc.write db t (key (Random.State.int rng keys)) (Some "v")
    done;
    let b = Common.now_ns () in
    ignore (Mvcc.commit db t);
    let e = Common.now_ns () in
    w := !w +. (b -. a);
    c := !c +. (e -. b)
  done;
  (read_ns, !w /. float_of_int (txns * writes_per_txn), !c /. float_of_int txns)

type t = {
  dispatch : float;
  switch : float;
  ps_use : float;
  wake : float;
  mvcc_read : float;
  mvcc_write : float;
  mvcc_commit : float;
}

(* All unit costs at a workload's scale, at reference speed ([f] is the
   run's factor). *)
let measure ~f ~live ~ps_jobs ~waiters ~keys ~chain =
  let dispatch = engine_dispatch_ns ~live ~n:400_000 in
  let switch = process_switch_ns ~live ~n:200_000 ~dispatch in
  let ps_use =
    resource_ps_use_ns ~jobs:ps_jobs ~n:100_000
      ~dispatch:(engine_dispatch_ns ~live:ps_jobs ~n:200_000)
      ~switch
  in
  let wake =
    seqcond_wake_ns ~waiters ~n:100_000 ~dispatch:(engine_dispatch_ns ~live:1 ~n:200_000)
  in
  let mvcc_read, mvcc_write, mvcc_commit = mvcc_ns ~keys ~chain ~txns:20_000 in
  {
    dispatch = dispatch *. f;
    switch = switch *. f;
    ps_use = ps_use *. f;
    wake = wake *. f;
    mvcc_read = mvcc_read *. f;
    mvcc_write = mvcc_write *. f;
    mvcc_commit = mvcc_commit *. f;
  }
