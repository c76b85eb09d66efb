(** Transaction generation per the simulation model of §5.

    A transaction is an update with probability [update_tran_prob]; its
    length is uniform on [tran_size_min, tran_size_max]; each operation of an
    update transaction writes with probability [update_op_prob], otherwise
    reads. Keys are drawn uniformly from the key space. *)

open Lsr_sim

type op =
  | Read_op of string
  | Write_op of string * string

type kind =
  | Read_only
  | Update

type spec = {
  kind : kind;
  ops : op list;  (** in execution order; non-empty *)
}

(** A transaction source for one run: the parameters plus the table of
    key names (["item:%06d"]), each formatted once, at its first draw. *)
type generator

(** [generator params] is a fresh source with an empty name table. Make one
    per run: the table is what the run's draws share. *)
val generator : Params.t -> generator

(** [generate g rng] draws a fresh transaction. An update transaction is
    guaranteed at least one write (a writeless "update" would be a read-only
    transaction misrouted to the primary). *)
val generate : generator -> Rng.t -> spec

(** [value_of_bits b] is the value a write draws for the random bits [b]:
    ["v"] followed by [b] in decimal. *)
val value_of_bits : int64 -> string

val op_count : spec -> int
val is_update : spec -> bool

(** Number of write operations. *)
val write_count : spec -> int

val pp : Format.formatter -> spec -> unit
