(* The two simulated workloads: the paper's Figure 2 experiment and the
   10^6-client observed run. Both drive [Sim_system.run] from outside. *)

open Lsr_core
open Lsr_experiments
open Lsr_workload

type kind = Fig2 | Million

(* Table 1 at the saturated right end of Figure 2: 5 secondaries x 50
   closed-loop clients, 80/20 mix, 5-15 ops of 20 ms, 100k keys, 10 s
   propagation cycle, 35 virtual minutes with a 5-minute warm-up. *)
let fig2_params = { Params.default with Params.clients_per_secondary = 50 }

(* 2 sites x 500k modeled clients, open-loop Poisson arrivals, 2-6 ops of
   1 us, 0.5 s propagation; 0.5 s warm-up plus half a measured virtual
   second (~68k transactions), so a run fits several reps. *)
let million_clients = 500_000

let million_params =
  {
    Params.default with
    Params.num_secondaries = 2;
    clients_per_secondary = million_clients;
    op_service_time = 1e-6;
    propagation_delay = 0.5;
    warmup = 0.5;
    duration = 1.0;
    tran_size_min = 2;
    tran_size_max = 6;
  }

type observers = {
  obs : Lsr_obs.Obs.t;
  lineage : Lsr_obs.Lineage.t;
  flight : Lsr_obs.Flight.t;
}

(* Observer sinks are stateful, so every rep gets fresh ones. *)
let fresh_observers () =
  {
    obs = Lsr_obs.Obs.create ();
    lineage = Lsr_obs.Lineage.create ();
    flight = Lsr_obs.Flight.create ();
  }

let config kind ~seed ~observers =
  match kind with
  | Fig2 -> Sim_system.config fig2_params Session.Strong_session ~seed
  | Million ->
    let base =
      {
        (Sim_system.config million_params Session.Strong_session ~seed) with
        Sim_system.client_mode =
          Sim_system.Open_loop
            { clients = million_clients; arrival = Sim_system.Poisson; session_pool = 0 };
      }
    in
    (match observers with
     | None -> base
     | Some o ->
       {
         base with
         Sim_system.watchdog = true;
         obs = o.obs;
         lineage = o.lineage;
         flight = o.flight;
       })

(* The outcome's simulated statistics: exact per seed. [sim_events] is kept
   apart because an attached monitor adds events without changing results. *)
let stats (o : Sim_system.outcome) =
  let mean f = List.fold_left ( +. ) 0. f /. float_of_int (max 1 (List.length f)) in
  let secondaries = match o.resources with _ :: s -> s | [] -> [] in
  [
    ("sim_tput_tps", o.throughput_fast);
    ("sim_read_mean_s", o.read_rt_mean);
    ("sim_read_p50_s", o.read_rt_p50);
    ("sim_read_p95_s", o.read_rt_p95);
    ("sim_update_mean_s", o.update_rt_mean);
    ("sim_update_p95_s", o.update_rt_p95);
    ("sim_read_age_p95_s", o.read_age_p95);
    ("reads", float_of_int o.reads_completed);
    ("updates", float_of_int o.updates_completed);
    ("aborts", float_of_int o.aborts);
    ("session.blocked_reads", float_of_int o.blocked_reads);
    ("refresh.commits", float_of_int o.refresh_commits);
    ("refresh.staleness_mean_s", o.refresh_staleness_mean);
    ("resource.primary_util", o.primary_utilization);
    ("resource.secondary_util", o.secondary_utilization);
    ( "resource.secondary_wait_s",
      mean (List.map (fun r -> r.Sim_system.res_wait_mean) secondaries) );
    ( "resource.uses",
      float_of_int
        (List.fold_left (fun a r -> a + r.Sim_system.res_arrivals) 0 o.resources) );
  ]

let observer_stats (o : Sim_system.outcome) (obs : observers) =
  [
    ("watchdog.peak_state", float_of_int o.watchdog_peak_state);
    (* All alerts, including those past the bounded log's capacity. *)
    ( "watchdog.alerts",
      match o.watchdog_verdict with
      | Some v -> float_of_int v.Lsr_core.Watchdog.alerts_total
      | None -> 0. );
    ("flight.events", float_of_int o.flight_events);
    ("flight.bytes", float_of_int o.flight_bytes);
    ("lineage.events", float_of_int (Lsr_obs.Lineage.event_count obs.lineage));
    ("obs.events", float_of_int (Lsr_obs.Obs.event_count obs.obs));
  ]

let txns (o : Sim_system.outcome) = o.reads_completed + o.updates_completed

(* Output checks of one rep: the run's own check channel (the watchdog
   verdict when attached) and, for the observed run, a captured flight
   bundle. *)
let rep_errors kind (o : Sim_system.outcome) =
  o.check_errors
  @ (match (kind, o.flight_report) with
     | Million, None -> [ "no flight bundle captured" ]
     | _ -> [])
  @ (match (kind, o.watchdog_verdict) with
     | Million, None -> [ "watchdog verdict missing" ]
     | _ -> [])

let run_rep kind ~seed =
  let observers = match kind with Million -> Some (fresh_observers ()) | Fig2 -> None in
  let cfg = config kind ~seed ~observers in
  let o, cpu, bracket, gc = Common.timed (fun () -> Sim_system.run cfg) in
  let pins =
    stats o
    @ [ ("engine.events", float_of_int o.sim_events) ]
    @ match observers with Some obs -> observer_stats o obs | None -> []
  in
  ( o,
    Common.make_rep ~cpu ~bracket ~gc ~txns:(txns o) ~pins ~host:[]
      ~errors:(rep_errors kind o) )

let pin = Common.pin

(* Post-hoc check of the Figure 2 workload: replay the seed with history
   recording on. The checker battery must be clean and the simulated
   statistics identical to the measured reps'. A lineage sink counts the
   recorded transactions (one commit per update, one freshness sample per
   read). Returns (raw checker µs per recorded txn, recorded txns, errors). *)
let replay_check ~seed (first : Common.rep) =
  let lineage = Lsr_obs.Lineage.create () in
  let cfg =
    {
      (config Fig2 ~seed ~observers:None) with
      Sim_system.record_history = true;
      lineage;
    }
  in
  let o = Sim_system.run cfg in
  let recorded =
    Lsr_obs.Lineage.commit_count lineage
    + List.fold_left
        (fun a site -> a + List.length (Lsr_obs.Lineage.freshness_samples lineage ~site))
        0 (Lsr_obs.Lineage.sites lineage)
  in
  let errors =
    List.map (fun e -> "replay checker: " ^ e) o.check_errors
    @ List.filter_map
        (fun (k, v) ->
          if pin k first = v then None
          else Some (Printf.sprintf "replay changed %s: %h -> %h" k (pin k first) v))
        (stats o)
  in
  (o.checker_cpu_s *. 1e6 /. float_of_int (max 1 recorded), recorded, errors)

let last_sample series =
  match List.rev (Lsr_obs.Timeseries.samples series) with
  | s :: _ -> s.Lsr_obs.Timeseries.values
  | [] -> []

(* The traced part of a simulated workload: one rep with Obs, Monitor and a
   span attached (its statistics must match the untraced reps apart from the
   event count), unit costs at the workload's scale, observer on/off pairs
   for the observed run, and the CPU attribution. [f] is the run's
   reference-speed factor and [cpu_ref] the median reference-speed CPU of an
   untraced rep. *)
let traced kind ~seed ~(first : Common.rep) ~f ~cpu_ref ~gc_pause_frac =
  let errors = ref [] in
  let observers = fresh_observers () in
  let base =
    match kind with
    | Fig2 -> { (config Fig2 ~seed ~observers:None) with Sim_system.obs = observers.obs }
    | Million -> config Million ~seed ~observers:(Some observers)
  in
  let monitor =
    Monitor.create ~interval:(match kind with Fig2 -> 60. | Million -> 0.1) ()
  in
  let cfg = { base with Sim_system.monitor } in
  let o, cpu, _, _ =
    Common.timed (fun () ->
        Spans.with_span "sim_system.run" (fun () -> Sim_system.run cfg))
  in
  List.iter
    (fun (k, v) ->
      if pin k first <> v then
        errors := Printf.sprintf "traced rep changed %s: %h -> %h" k (pin k first) v :: !errors)
    (stats o);
  let trace_overhead = (cpu *. f /. cpu_ref) -. 1. in
  let sample = last_sample (Monitor.series monitor) in
  let versions =
    List.fold_left
      (fun a (k, v) ->
        if Filename.check_suffix k ".versions" then a +. v else a)
      0. sample
  in
  let wal = Option.value ~default:0. (List.assoc_opt "primary.wal" sample) in
  let shipped =
    Lsr_obs.Obs.count (Lsr_obs.Obs.counter observers.obs "propagation.records_shipped")
  in
  let p = match kind with Fig2 -> fig2_params | Million -> million_params in
  let live = match kind with Fig2 -> Params.num_clients p + 16 | Million -> 64 in
  let sites = p.Params.num_secondaries + 1 in
  let chain =
    max 1 (int_of_float (Float.round (versions /. float_of_int (p.Params.key_space * sites))))
  in
  let u =
    Unitcost.measure ~f ~live ~ps_jobs:(match kind with Fig2 -> 50 | Million -> 4)
      ~waiters:(max 1 (int_of_float (pin "session.blocked_reads" first /. 100.)))
      ~keys:p.Params.key_space ~chain
  in
  (* Observer cost: interleaved on/off pairs, flipping which side runs
     first; each pair gives one overhead ratio of raw CPU times. *)
  let pairs =
    match kind with
    | Fig2 -> []
    | Million ->
      List.init 4 (fun i ->
          let on () =
            let _, r = run_rep Million ~seed in
            r.Common.cpu
          in
          let off () =
            let o, c, _, _ =
              Common.timed (fun () -> Sim_system.run (config Million ~seed ~observers:None))
            in
            List.iter
              (fun (k, v) ->
                if pin k first <> v then
                  errors :=
                    Printf.sprintf "observer-off rep changed %s" k :: !errors)
              (stats o);
            c
          in
          let with_obs, without =
            if i mod 2 = 0 then
              let a = on () in
              (a, off ())
            else
              let b = off () in
              (on (), b)
          in
          (with_obs /. without) -. 1.)
  in
  let ci = if pairs = [] then None else Some (Lsr_stats.Confidence.of_samples pairs) in
  let overhead = match ci with Some c -> c.Lsr_stats.Confidence.mean | None -> 0. in
  let txn_f = pin "reads" first +. pin "updates" first in
  let events = pin "engine.events" first in
  let whole_run = p.Params.duration /. (p.Params.duration -. p.Params.warmup) in
  let ops = float_of_int (p.Params.tran_size_min + p.Params.tran_size_max) /. 2. in
  let reads = pin "reads" first *. whole_run and updates = pin "updates" first *. whole_run in
  let mvcc_ns =
    (reads *. ops *. u.mvcc_read)
    +. updates
       *. ((ops *. (1. -. p.Params.update_op_prob) *. u.mvcc_read)
          +. (ops *. p.Params.update_op_prob *. u.mvcc_write *. float_of_int sites)
          +. (u.mvcc_commit *. float_of_int sites))
  in
  let frac ns = ns /. 1e9 /. cpu_ref in
  let observers_frac = overhead /. (1. +. overhead) in
  let attrib =
    [
      ("attrib.engine_frac", frac (events *. (u.dispatch +. u.switch)));
      ("attrib.resource_frac", frac (pin "resource.uses" first *. u.ps_use));
      ("attrib.seqcond_frac", frac (pin "session.blocked_reads" first *. u.wake));
      ("attrib.mvcc_frac", frac mvcc_ns);
      ("attrib.protocol_frac", 0.);
      ("attrib.observers_frac", observers_frac);
      ("attrib.sql_frac", 0.);
      ("attrib.gc_frac", gc_pause_frac);
    ]
  in
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0. attrib in
  let observer_keys =
    [ "watchdog.peak_state"; "watchdog.alerts"; "flight.events"; "flight.bytes";
      "lineage.events"; "obs.events" ]
  in
  ( [
      ("engine.events_per_txn", events /. txn_f);
      ("engine.dispatch_ns", u.dispatch);
      ("process.switch_ns", u.switch);
      ("resource.primary_util", pin "resource.primary_util" first);
      ("resource.secondary_util", pin "resource.secondary_util" first);
      ("resource.secondary_wait_s", pin "resource.secondary_wait_s" first);
      ("resource.ps_use_ns", u.ps_use);
      ("session.blocked_frac", pin "session.blocked_reads" first /. pin "reads" first);
      ("session.blocked_reads", pin "session.blocked_reads" first);
      ("seqcond.wake_ns", u.wake);
      ("mvcc.read_ns", u.mvcc_read);
      ("mvcc.write_ns", u.mvcc_write);
      ("mvcc.commit_ns", u.mvcc_commit);
      ("mvcc.versions_end", versions);
      ("wal.records_end", wal);
      ("compact.versions_reclaimed", 0.);
      ("propagation.records_shipped", float_of_int shipped);
      ("refresh.commits", pin "refresh.commits" first);
      ("refresh.staleness_mean_s", pin "refresh.staleness_mean_s" first);
      ("system.propagate_us", 0.);
      ("system.refresh_all_us", 0.);
      ("system.update_us", 0.);
      ("system.read_us", 0.);
      ("system.read_blocked_us", 0.);
      ("system.compact_us", 0.);
      ("handle.row_get_us", 0.);
      ("handle.row_update_us", 0.);
      ("sql.select_us", 0.);
      ("observers.overhead_frac", overhead);
      ( "observers.overhead_ci95",
        match ci with Some c -> c.Lsr_stats.Confidence.half_width | None -> 0. );
      ("observers.pairs", float_of_int (List.length pairs));
      ("trace.overhead_frac", trace_overhead);
    ]
    @ List.map (fun k -> (k, pin k first)) observer_keys
    @ attrib
    @ [ ("attrib.unexplained_frac", 1. -. explained) ],
    List.rev !errors )
