(** Global on/off switch of the tracing half of the observability
    layer.

    Initialized from the [OMPSIM_TRACE] environment variable ([1],
    [true], [yes] or [on] enable it; anything else, or unset, leaves
    it off). The switch gates only what costs a clock read or an
    allocation: {!Trace} spans, instants and Chrome counter samples,
    and the counters that sum clock deltas ([recovery.recover_ns],
    [recovery.step_ns], [pool.idle_ns]). Every other {!Metrics}
    counter is written unconditionally, so the ledger is the same
    with the switch on or off. *)

(** [enabled ()] is the current state of the switch. *)
val enabled : unit -> bool

(** [set_enabled b] flips the switch at runtime (e.g. for the
    [--trace]/[--stats] CLI flags or from tests). *)
val set_enabled : bool -> unit

(** [with_enabled b f] runs [f ()] with the switch set to [b],
    restoring the previous state afterwards (also on exceptions). *)
val with_enabled : bool -> (unit -> 'a) -> 'a
