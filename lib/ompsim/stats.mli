(** First-class runtime metrics of the execution engine.

    All counters are {!Obsv.Metrics} per-slot counters, written
    whether or not {!Obsv.Control.enabled} is set; only [pool_idle_ns],
    which needs a clock read per wait, is written just when it is.
    Slots are the logical worker slots of a parallel region
    (slot 0 = the dispatching domain), so per-slot values are the
    imbalance histogram the paper's collapsing is meant to flatten. *)

val pool_dispatches : Obsv.Metrics.t
(** jobs a pool worker picked up from its mailbox, per slot *)

val pool_idle_ns : Obsv.Metrics.t
(** time a pool worker spent parked on its mailbox, per slot *)

val pool_fallbacks : Obsv.Metrics.t
(** regions that found the pool busy and fell back to spawn *)

val par_regions : Obsv.Metrics.t
(** parallel regions entered (counted on slot 0) *)

val par_chunks : Obsv.Metrics.t
(** chunks executed, per worker slot *)

val par_iterations : Obsv.Metrics.t
(** iterations executed, per worker slot; summing the slots of one
    region yields the region's trip count exactly *)

val ws_local_pops : Obsv.Metrics.t
(** work-stealing chunks a worker popped from its own deque, per slot;
    [ws_local_pops + ws_steals] totals reconcile exactly with the
    number of chunks the region dealt out *)

val ws_steals : Obsv.Metrics.t
(** work-stealing chunks taken from another worker's deque, billed to
    the thief's slot *)

val ws_steal_retries : Obsv.Metrics.t
(** steal attempts that lost the CAS race and had to re-examine a
    victim — a contention figure, not a work figure *)

val faults_injected : Obsv.Metrics.t
(** synthetic chunk failures raised by {!Fault.inject}, billed to the
    injecting domain *)

val fault_stalls : Obsv.Metrics.t
(** synthetic worker stalls played by {!Fault.inject} *)

val chunk_retries : Obsv.Metrics.t
(** chunk attempts re-run by {!Par.reduce} after a failure,
    per worker slot; always <= the failures observed *)

val regions_cancelled : Obsv.Metrics.t
(** regions whose cancellation token fired — a chunk
    exhausted its retries or the deadline expired (counted on the
    slot that cancelled) *)

val serial_fallbacks : Obsv.Metrics.t
(** uncovered ranges re-executed serially by {!Par.reduce}
    after the parallel phase (counted on slot 0) *)

val reduce_partials : Obsv.Metrics.t
(** per-chunk partials recorded by a {!Par.reduce} region,
    billed to the producing worker's slot; totals reconcile exactly
    with the chunks the schedule dealt out *)

val reduce_combines : Obsv.Metrics.t
(** applications of the combine operator in the deterministic binary
    combine tree (counted on slot 0, where the tree is folded); equals
    [reduce_partials - 1] whenever at least one partial exists *)

val dnc_splits : Obsv.Metrics.t
(** divide-and-conquer nodes split in two (internal tree nodes),
    billed to the splitting worker; equals [dnc_grain_chunks - 1] in
    an uncancelled region *)

val dnc_grain_chunks : Obsv.Metrics.t
(** divide-and-conquer leaves executed (subranges at or below the
    grain), billed to the executing worker; totals reconcile exactly
    with [Schedule.dnc_leaves] *)

(** [reset ()] zeroes every engine counter (the recovery counters of
    {!Trahrhe.Recovery} included, via the global registry). *)
val reset : unit -> unit

(** [summary ()] is {!Obsv.Trace.summary} — spans plus all counters. *)
val summary : unit -> string

(** [emit_trace_counters ()] records the per-worker chunk/iteration/
    dispatch and local-pop/steal totals as Chrome counter ([C])
    samples, so an exported trace carries the imbalance histogram;
    no-op when disabled. *)
val emit_trace_counters : unit -> unit
