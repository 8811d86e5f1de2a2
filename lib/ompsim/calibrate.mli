(** Wall-clock micro-timing used to calibrate the simulator's overhead
    constants against this machine, and to take the (serial) Figure 10
    measurements natively. *)

(** [time f] is the wall-clock seconds taken by [f ()]. *)
val time : (unit -> unit) -> float

(** [time_best ?reps f] is the minimum of [reps] (default 3) runs —
    the usual noise-resistant estimator for short serial kernels. *)
val time_best : ?reps:int -> (unit -> unit) -> float

(** [ns_per_iter ~iters f] runs [f iters] and reports nanoseconds per
    iteration. *)
val ns_per_iter : iters:int -> (int -> unit) -> float

(** Default overhead constants (in units of one innermost-loop work
    unit) used for Figure 9 simulations; see DESIGN.md. The dispatch
    overhead corresponds to one atomic chunk acquisition in libgomp,
    two orders of magnitude above a flop; the recovery cost is a few
    hundred flops worth of [sqrt]/[cpow]. *)
val default_dispatch : float

val default_fork_join : float
val default_recovery : float
val default_increment : float
