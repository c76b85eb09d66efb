(* The embedded-bookstore workload: the in-process [System] API, no
   simulator. 3 secondaries under strong session SI, 64 customer sessions,
   a preloaded catalogue of 20k books (rows with an index on genre), and a
   seeded op stream over Zipf(0.99) book popularity:

   - browse (~60%): a point SELECT through [Sql.run_typed];
   - T_buy (~20%): [Handle.row_update] of the stock, then [row_put] of an
     order;
   - T_check (~20%): the session reads its own latest order — it blocks and
     forces a pump when the order is not refreshed at its secondary yet.

   [propagate] + [refresh_all] run every 20 ops, [pump] + [compact] every
   20,000 ops, and [System.check] after the timed loop. Refreshing every 20
   ops keeps blocked reads near 2% of reads, so the read p95 sits well
   inside the class of lazy reads and p99 inside the blocked class. A
   compaction vacuums every key at every site (~80 ms), so it runs once per
   rep rather than dominating the rep. *)

open Lsr_core
open Lsr_storage
open Lsr_sql

let books = 20_000
let sessions = 64
let secondaries = 3
let ops_per_rep = 80_000
let refresh_every = 20
let compact_every = 20_000
let genres = [| "cs"; "math"; "fiction"; "history"; "art"; "travel"; "cooking"; "poetry" |]

type op =
  | Browse of { session : int; sql : string }
  | Buy of { session : int; book : string; order : string }
  | Check of { session : int; order : string; book : string }
      (** [order] is the session's latest order, "" when it has none *)

type t = { ops : op array }

let book_pk i = Printf.sprintf "b%05d" i

(* Zipf(0.99) sampler over [0, n): inverse CDF by binary search. *)
let zipf n s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  fun rng ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* All inputs come from the seed, before any timing. *)
let setup ~seed =
  let rng = Random.State.make [| seed; 0xb00c |] in
  let pick = zipf books 0.99 in
  (* popularity rank -> book id, so hot books are scattered over the pk space *)
  let perm = Array.init books Fun.id in
  for i = books - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let last = Array.make sessions ("", "") in
  let bought = Array.make sessions 0 in
  let ops =
    Array.init ops_per_rep (fun _ ->
        let session = Random.State.int rng sessions in
        let book = book_pk perm.(pick rng) in
        let u = Random.State.float rng 1. in
        if u < 0.6 then
          Browse
            { session; sql = Printf.sprintf "SELECT * FROM books WHERE pk = '%s'" book }
        else if u < 0.8 then begin
          bought.(session) <- bought.(session) + 1;
          let order = Printf.sprintf "o%02d-%05d" session bought.(session) in
          last.(session) <- (order, book);
          Buy { session; book; order }
        end
        else
          let order, book = last.(session) in
          Check { session; order; book })
  in
  { ops }

let update_exn sys c f =
  match System.update sys c f with
  | Ok v -> v
  | Error _ -> failwith "update aborted"

(* A fresh system holding the preloaded catalogue, fully replicated and
   compacted. Rows carry their pk as a column, as SQL INSERT stores them. *)
let preload ?obs () =
  let sys =
    System.create ~secondaries ~schema:[ ("books", [ "genre" ]) ] ?obs
      ~guarantee:Session.Strong_session ()
  in
  let admin = System.connect sys "admin" in
  let batch = 500 in
  for b = 0 to (books / batch) - 1 do
    update_exn sys admin (fun h ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          Handle.row_put h ~table:"books" ~pk:(book_pk i)
            [
              ("pk", Row.Text (book_pk i));
              ("title", Row.Text ("Title " ^ string_of_int i));
              ("genre", Row.Text genres.(i mod Array.length genres));
              ("price", Row.Float (5. +. float_of_int (i mod 50)));
              ("stock", Row.Int 1_000_000);
            ]
        done)
  done;
  System.pump sys;
  ignore (System.compact sys);
  let clients =
    Array.init sessions (fun i -> System.connect sys (Printf.sprintf "customer-%02d" i))
  in
  (sys, clients)

type counts = {
  mutable shipped : int;
  mutable refreshed : int;
  mutable reclaimed : int;
  mutable found : int;
}

(* The timed op loop. [lat_read]/[lat_buy] receive raw ns latencies; the
   returned errors are output-check failures. *)
let loop t sys clients ~lat_read ~lat_buy ~c =
  let nr = ref 0 and nb = ref 0 in
  let errors = ref [] in
  let fail msg = if List.length !errors < 5 then errors := msg :: !errors in
  let span = Spans.with_span in
  (* A read that had to wait for its session's floor is renamed
     [<base>_blocked], so blocked and lazy reads get separate self times. *)
  let blocked_span base f =
    let before = System.blocked_reads sys in
    Spans.with_span base (fun () ->
        let v = f () in
        if System.blocked_reads sys > before then Spans.rename_current (base ^ "_blocked");
        v)
  in
  Array.iteri
    (fun i op ->
      if i > 0 && i mod refresh_every = 0 then begin
        c.shipped <- c.shipped + span "system.propagate" (fun () -> System.propagate sys);
        c.refreshed <- c.refreshed + span "system.refresh_all" (fun () -> System.refresh_all sys)
      end;
      if i > 0 && i mod compact_every = 0 then begin
        span "system.pump" (fun () -> System.pump sys);
        c.reclaimed <- c.reclaimed + span "system.compact" (fun () -> System.compact sys)
      end;
      let t0 = Common.now_ns () in
      (match op with
       | Browse { session; sql } -> (
         match blocked_span "sql.select" (fun () -> Sql.run_typed sys clients.(session) sql) with
         | Ok (Executor.Rows { rows = [ _ ]; _ }) -> ()
         | Ok r -> fail ("browse: point SELECT returned " ^ Executor.render r)
         | Error e -> fail ("browse: " ^ Sql.error_message e))
       | Buy { session; book; order } -> (
         match
           span "system.update" (fun () ->
               System.update sys clients.(session) (fun h ->
                   let ok =
                     span "handle.row_update" (fun () ->
                         Handle.row_update h ~table:"books" ~pk:book (fun row ->
                             Row.set row "stock" (Row.Int (Row.int_exn row "stock" - 1))))
                   in
                   span "handle.row_put" (fun () ->
                       Handle.row_put h ~table:"orders" ~pk:order
                         [ ("book", Row.Text book); ("status", Row.Text "placed") ]);
                   ok))
         with
         | Ok true -> ()
         | Ok false -> fail ("buy: unknown book " ^ book)
         | Error _ -> fail "buy: update aborted")
       | Check { session; order; book } ->
         let got =
           blocked_span "system.read" (fun () ->
               System.read sys clients.(session) (fun h ->
                   if order = "" then None
                   else span "handle.row_get" (fun () -> Handle.row_get h ~table:"orders" ~pk:order)))
         in
         (match got with
          | None when order = "" -> ()
          | Some row when Row.find row "book" = Some (Row.Text book) -> c.found <- c.found + 1
          | _ -> fail ("check: session does not see its own order " ^ order)));
      let dt = Common.now_ns () -. t0 in
      match op with
      | Buy _ ->
        lat_buy.(!nb) <- dt;
        incr nb
      | Browse _ | Check _ ->
        lat_read.(!nr) <- dt;
        incr nr)
    t.ops;
  (Array.sub lat_read 0 !nr, Array.sub lat_buy 0 !nb, List.rev !errors)

let reads t = Array.fold_left (fun a op -> match op with Buy _ -> a | _ -> a + 1) 0 t.ops

(* Read and update latencies (raw ns, sorted) of the latest rep. *)
let last_latencies = ref ([||], [||])

(* One rep: a fresh preloaded system (untimed), the timed op loop, then (with
   [check]) the post-hoc checker, timed on its own. *)
let run_rep ?obs ~check t =
  let sys, clients = preload ?obs () in
  let nreads = reads t in
  let lat_read = Array.make nreads 0. and lat_buy = Array.make (ops_per_rep - nreads) 0. in
  let c = { shipped = 0; refreshed = 0; reclaimed = 0; found = 0 } in
  let (lr, lb, loop_errors), cpu, bracket, gc =
    Common.timed (fun () ->
        try loop t sys clients ~lat_read ~lat_buy ~c with
        | System.Unsatisfiable_read _ -> ([||], [||], [ "Unsatisfiable_read raised" ]))
  in
  (* The exact counts are read before the checker, whose pump would move
     them. *)
  let history = History.length (System.history sys) in
  let versions =
    List.fold_left
      (fun a i -> a + Mvcc.version_count (System.secondary_db sys i))
      (Mvcc.version_count (System.primary_db sys))
      (List.init secondaries Fun.id)
  in
  let pins =
    [
      ("session.blocked_reads", float_of_int (System.blocked_reads sys));
      ("history.txns", float_of_int history);
      ("mvcc.versions_end", float_of_int versions);
      ("wal.records_end", float_of_int (Wal.length (Mvcc.wal (System.primary_db sys))));
      ("compact.versions_reclaimed", float_of_int c.reclaimed);
      ("propagation.records_shipped", float_of_int c.shipped);
      ("refresh.commits", float_of_int c.refreshed);
      ("checks.found", float_of_int c.found);
      ("reads", float_of_int nreads);
      ("updates", float_of_int (ops_per_rep - nreads));
    ]
  in
  let check_cpu, check_errors =
    if not check then (None, [])
    else begin
      let t0 = Refspeed.cpu_now () in
      let verdict =
        Spans.with_span "system.check" (fun () ->
            System.pump sys;
            System.check sys)
      in
      ( Some (Refspeed.cpu_now () -. t0),
        match verdict with
        | Ok () -> []
        | Error es -> List.map (fun e -> "System.check: " ^ e) es )
    end
  in
  let q a p = Common.quantile_sorted a p /. 1e3 in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a)) /. 1e3 in
  Array.sort compare lr;
  Array.sort compare lb;
  last_latencies := (lr, lb);
  let host =
    [
      ("read_mean_us", mean lr);
      ("read_p50_us", q lr 0.5);
      ("read_p95_us", q lr 0.95);
      ("read_p99_us", q lr 0.99);
      ("update_mean_us", mean lb);
      ("update_p50_us", q lb 0.5);
      ("update_p99_us", q lb 0.99);
    ]
    @ match check_cpu with
      | Some c -> [ ("check_us_per_txn", c *. 1e6 /. float_of_int (max 1 history)) ]
      | None -> []
  in
  let errors = loop_errors @ check_errors in
  ( (sys, lr, lb, c),
    Common.make_rep ~cpu ~bracket ~gc ~txns:ops_per_rep ~pins ~host ~errors )

(* The traced part: one rep with spans on and an Obs registry attached (its
   exact counts must match the untraced reps'), span self times per layer,
   Mvcc unit costs at the catalogue's key count, and the CPU attribution.
   The simulator layers are idle here and report 0. *)
let traced t ~(first : Common.rep) ~f ~cpu_ref ~gc_pause_frac =
  let obs = Lsr_obs.Obs.create () in
  let _, r = run_rep ~obs ~check:false t in
  let errors =
    List.filter_map
      (fun (k, v) ->
        if List.assoc_opt k r.pins = Some v then None
        else Some ("traced rep changed " ^ k))
      first.pins
    @ r.errors
  in
  let times = Spans.self_times () in
  let mean name = Spans.mean_self times name *. f in
  let total names = List.fold_left (fun a n -> a +. Spans.total_self times n) 0. names in
  let frac names = total names /. 1e6 /. r.cpu in
  let blocked_calls =
    List.fold_left
      (fun a n -> a + match List.assoc_opt n times with Some (c, _) -> c | None -> 0)
      0 [ "system.read_blocked"; "sql.select_blocked" ]
  in
  let blocked_us =
    total [ "system.read_blocked"; "sql.select_blocked" ] *. f
    /. float_of_int (max 1 blocked_calls)
  in
  let mvcc_read, mvcc_write, mvcc_commit =
    Unitcost.mvcc_ns ~keys:(2 * books) ~chain:1 ~txns:20_000
  in
  let pin k = Common.pin k first in
  let attrib =
    [
      ("attrib.engine_frac", 0.);
      ("attrib.resource_frac", 0.);
      ("attrib.seqcond_frac", 0.);
      ("attrib.mvcc_frac", frac [ "handle.row_get"; "handle.row_update"; "handle.row_put" ]);
      ( "attrib.protocol_frac",
        frac
          [ "system.update"; "system.read"; "system.read_blocked"; "system.propagate";
            "system.refresh_all"; "system.pump"; "system.compact" ] );
      ("attrib.observers_frac", 0.);
      ("attrib.sql_frac", frac [ "sql.select"; "sql.select_blocked" ]);
      ("attrib.gc_frac", gc_pause_frac);
    ]
  in
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0. attrib in
  ( [
      ("engine.events_per_txn", 0.);
      ("engine.dispatch_ns", 0.);
      ("process.switch_ns", 0.);
      ("resource.primary_util", 0.);
      ("resource.secondary_util", 0.);
      ("resource.secondary_wait_s", 0.);
      ("resource.ps_use_ns", 0.);
      ("session.blocked_frac", pin "session.blocked_reads" /. pin "reads");
      ("session.blocked_reads", pin "session.blocked_reads");
      ("seqcond.wake_ns", 0.);
      ("mvcc.read_ns", mvcc_read *. f);
      ("mvcc.write_ns", mvcc_write *. f);
      ("mvcc.commit_ns", mvcc_commit *. f);
      ("mvcc.versions_end", pin "mvcc.versions_end");
      ("wal.records_end", pin "wal.records_end");
      ("compact.versions_reclaimed", pin "compact.versions_reclaimed");
      ("propagation.records_shipped", pin "propagation.records_shipped");
      ("refresh.commits", pin "refresh.commits");
      ("refresh.staleness_mean_s", 0.);
      ("system.propagate_us", mean "system.propagate");
      ("system.refresh_all_us", mean "system.refresh_all");
      ("system.update_us", mean "system.update");
      ("system.read_us", mean "system.read");
      ("system.read_blocked_us", blocked_us);
      ("system.compact_us", mean "system.compact");
      ("handle.row_get_us", mean "handle.row_get");
      ("handle.row_update_us", mean "handle.row_update");
      ("sql.select_us", mean "sql.select");
      ("observers.overhead_frac", 0.);
      ("observers.overhead_ci95", 0.);
      ("observers.pairs", 0.);
      ("trace.overhead_frac", (r.cpu *. f /. cpu_ref) -. 1.);
      ("watchdog.peak_state", 0.);
      ("watchdog.alerts", 0.);
      ("flight.events", 0.);
      ("flight.bytes", 0.);
      ("lineage.events", 0.);
      ("obs.events", float_of_int (Lsr_obs.Obs.event_count obs));
    ]
    @ attrib
    @ [ ("attrib.unexplained_frac", 1. -. explained) ],
    errors )
