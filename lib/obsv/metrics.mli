(** Lock-free per-slot counters.

    A counter is a flat [int array] of {!max_slots} cells, one per
    worker slot, each padded to {!stride} words (128 bytes) so two
    slots never share a cache line — concurrent increments from
    different workers do not false-share. A cell is a plain (non
    atomic) int: the intended discipline is one writer per slot at a
    time, which both executor backends guarantee (slot [t] of a
    parallel region runs on exactly one domain). Under that
    discipline totals are exact; increments keyed by hashed domain ids
    ({!incr_here}/{!add_here}) are exact as long as no two
    concurrently-live domains collide modulo {!max_slots}, which holds
    for the pool's long-lived domains and for the short-lived spawn
    bursts of a single region.

    Counters register themselves globally at creation so reports and
    resets can enumerate them. Writes are unconditional: the
    {!Control} switch gates spans and clock reads, not this ledger. *)

type t

val max_slots : int
(** Number of addressable slots (256); slot arguments are reduced
    modulo this. *)

val stride : int
(** Padding, in ints, between consecutive slots' cells. *)

(** [create name] makes (and globally registers) a fresh counter.
    Creating twice with the same name returns two distinct counters;
    don't. *)
val create : string -> t

val name : t -> string

(** [add c ~slot n] adds [n] to slot [slot land (max_slots - 1)]. *)
val add : t -> slot:int -> int -> unit

val incr : t -> slot:int -> unit

(** [add_here c n] / [incr_here c] use the calling domain's id as the
    slot — for instrumentation sites that have no logical worker slot
    in scope (e.g. inside {!Trahrhe.Recovery}). *)
val add_here : t -> int -> unit

val incr_here : t -> unit

val get : t -> slot:int -> int

(** [total c] sums all slots. *)
val total : t -> int

(** [per_slot c] lists the non-zero cells as [(slot, value)] pairs,
    slot-ascending. *)
val per_slot : t -> (int * int) list

(** [imbalance c] is [max / mean] over the non-zero slots — the load
    imbalance figure the paper's collapsing exists to flatten. [1.0]
    when balanced or when at most one slot is active. *)
val imbalance : t -> float

val reset : t -> unit

(** [all ()] lists every registered counter, creation order. *)
val all : unit -> t list

val find : string -> t option
val reset_all : unit -> unit

(** The totals of every registered counter at one instant. *)
type snapshot

val snapshot : unit -> snapshot

(** [since s c] is how far [c] advanced after [s] was taken (its whole
    total when [c] was created later). Readers of the ledger take a
    snapshot and report deltas instead of resetting counters other
    readers share. *)
val since : snapshot -> t -> int

(** [summary ()] renders every counter with a non-zero total: name,
    total, active slot count, min/max per active slot, imbalance. *)
val summary : unit -> string
