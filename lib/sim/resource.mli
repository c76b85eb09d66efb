(** A shared server with a choice of queueing disciplines.

    Each site in the simulation model is one such resource ("the server is a
    shared resource with a round-robin queueing scheme having a time slice of
    0.001 seconds", §5). Three disciplines are provided:

    - [Fifo]: jobs are served one at a time to completion, in arrival order.
    - [Round_robin quantum]: jobs take turns receiving [quantum] seconds of
      service — the paper's discipline, exact but event-heavy.
    - [Processor_sharing]: the fluid limit of round-robin as the quantum goes
      to zero; all queued jobs progress simultaneously at rate [1/n]. This is
      the default for experiments because the paper's 1 ms slice against 20 ms
      operations is indistinguishable from processor sharing while costing
      20x fewer events.

    Every resource also keeps full per-job queueing statistics in the CSIM
    tradition (resource statistics as a first-class simulation primitive):
    arrival and completion counts, waiting-time and service-time tallies, a
    time-weighted queue-length integral and exactly pro-rated busy time —
    all correct at {e any} read instant, not just after a completion event,
    so a periodic monitor can sample them mid-run. *)

type discipline =
  | Fifo
  | Round_robin of float  (** time slice in seconds, must be positive *)
  | Processor_sharing

type t

(** [create ?name engine ~discipline] is a new single-server resource.
    [name] (default ["resource"]) labels the telemetry. *)
val create : ?name:string -> Engine.t -> discipline:discipline -> t

(** [use t amount] consumes [amount] seconds of service, blocking the calling
    process until the job completes under the resource's discipline. Must be
    called from within a process. A zero [amount] still takes the job through
    the discipline — it completes in its arrival-order turn, after every job
    queued ahead of it, rather than bypassing the queue.
    @raise Invalid_argument if [amount] is negative or not finite. *)
val use : t -> float -> unit

(** [use_stages t amount ~stages ~after] behaves like
    [for _ = 1 to stages do use t amount; after () done]: the same stage
    completion times, [after] calls and their order, telemetry and resume
    time, float for float. It is how a process runs back-to-back operations
    on one site.

    Under [Processor_sharing] the stages are one job that stays at the site:
    each stage boundary is handled inside the completion event (the stage's
    completion and the next stage's arrival are tallied and [after] runs
    there), and the process is woken only after the last stage. That saves
    one wake-up event and one suspend/resume per stage. [Fifo] and
    [Round_robin] run the plain loop.

    [after] therefore runs inside an engine event, not in the calling
    process. It must not perform effects ({!Process.delay},
    {!Process.suspend}, {!use} ...), and it should touch only state that
    other events at the same instant do not read: it runs ahead of the
    continuations of the processes its completion event wakes, where the
    loop would interleave with them. For the same reason, a job that enters
    [t] at the very instant of a stage boundary (from another event at that
    instant, or from a process the same completion event woke) queues behind
    the staged job's next stage, where the loop could order the two the
    other way round. That shows only if the two jobs then tie on their
    finish times. A [stages] of 0 or less does nothing.
    @raise Invalid_argument if [stages > 0] and [amount] is negative or not
    finite. *)
val use_stages : t -> float -> stages:int -> after:(unit -> unit) -> unit

(** Jobs currently queued or in service. Under processor sharing, jobs whose
    fluid share has already exhausted their demand but whose completion event
    has not fired yet (it is scheduled for exactly the current instant) are
    {e not} counted, so a sampled queue length never overshoots. *)
val load : t -> int

(** Total service time delivered so far. Elapsed in-service time is charged
    lazily at read (all disciplines), so the value is exact at any instant —
    utilization samples taken between completion events are never stale. *)
val busy_time : t -> float

(** {2 Queueing telemetry}

    Per-job tallies are recorded at job completion; the queue-length
    integral and busy time are pro-rated to the read instant. *)

(** The label given at creation. *)
val name : t -> string

(** Jobs that entered the discipline so far. *)
val arrivals : t -> int

(** Jobs whose service completed so far. *)
val completions : t -> int

(** Waiting time per completed job: sojourn minus the job's own service
    demand (the queueing delay under Fifo; the slowdown from sharing the
    server under RR/PS). *)
val wait_stat : t -> Stat.t

(** Service demand per completed job. *)
val service_stat : t -> Stat.t

(** Time integral of the number of jobs present (queued + in service),
    pro-rated to the read instant: [queue_area t /. now] is the time-average
    queue length L. *)
val queue_area : t -> float

(** [busy_time t /. now]; 0 before any virtual time has passed. *)
val utilization : t -> float

(** Time-average number of jobs present, L. *)
val mean_queue_length : t -> float

(** Completions per virtual second, λ. *)
val throughput : t -> float

(** Little's-law self-check: the relative gap [|L - λW| / max L (λW)]
    where W is the mean sojourn (wait + service) over completed jobs.
    In steady state this tends to 0 — the invariant the telemetry must
    satisfy (pinned by a property test over all three disciplines).
    [None] before the first completion. *)
val littles_law_gap : t -> float option
