(** Discrete-event simulation core: a virtual clock and an ordered queue of
    pending events.

    The engine replaces the event-scheduling layer of the CSIM package used by
    the paper. Events scheduled for the same instant fire in scheduling order
    (FIFO tie-breaking), which keeps simulations deterministic for a fixed
    random seed. *)

type t

(** Cancellable reference to a scheduled event. *)
type handle

val create : unit -> t

(** Current virtual time, in seconds. Starts at 0. *)
val now : t -> float

(** [schedule t ~delay f] arranges for [f] to run at time [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** [cancel t h] prevents a pending event from firing. Cancelling an event
    that already fired (or was already cancelled) is a no-op. *)
val cancel : t -> handle -> unit

(** [reschedule t h ~delay] arranges for [h]'s action to run at time
    [now t +. delay], whether [h] is pending, cancelled or has already
    fired; a pending [h] no longer fires at its old time. The event is
    re-keyed in place, so no cancelled copy stays queued, and it draws a
    fresh tie-breaking rank: the firing order is exactly that of
    [cancel t h] followed by a new [schedule].
    @raise Invalid_argument if [delay] is negative or not finite. *)
val reschedule : t -> handle -> delay:float -> unit

(** [step t] fires the earliest pending event, advancing the clock to its
    time. Returns [false] when no events remain. *)
val step : t -> bool

(** [run ?until t] fires events until the queue drains or the clock would
    pass [until]. When stopped by [until], the clock is set to exactly
    [until] and remaining events stay queued. *)
val run : ?until:float -> t -> unit

(** Number of pending (non-cancelled) events. *)
val pending : t -> int

(** Total events fired since [create] — the simulator's work measure, used
    by the perf bench to report events/second. *)
val events_processed : t -> int
