(** One exec runner, shared by [trahrhe exec] and the service's [exec]
    verb: the serial reference, the chunk-body choice, plain vs
    supervised region routing, and the repeat loop with its exact
    mismatch check. Front ends keep only their rendering.

    Every payload runs as a reduction over the collapsed range
    ({!Ompsim.Par.reduce_chunks}): the checksum is a [( + )] reduction
    of per-chunk {!Trahrhe.Recovery.walk_hash} sums (or lane hashes
    under [lanes > 1]), [reduce=sum] of
    {!Trahrhe.Recovery.walk_reduce_sum}, and [prod]/[min]/[max] of
    {!Trahrhe.Recovery.walk_reduce_rat} in exact rationals. *)

type opts = {
  threads : int;  (** domains for the parallel region *)
  schedule : Ompsim.Schedule.t;
  lanes : int;  (** §VI-A lane width; 1 = per-iteration walk *)
  repeat : int;  (** executions of the region, each checked *)
  retries : int;  (** per-chunk retries under supervision *)
  native : bool;  (** route chunks through the native backend ({!Native}) *)
  reduce : Trahrhe.Nest.red_op option;
      (** run the region as a parallel reduction of the nest's clause
          instead of the checksum walk; the nest must carry a clause
          with this operator *)
}

(** A run's result: the checksum and [sum] reductions are wrapped
    native ints, [prod]/[min]/[max] exact rationals. *)
type value = Int of int | Rat of Zmath.Rat.t

type failure =
  | Empty_extremum  (** min/max reduction over an empty iteration space *)
  | Region of { run : int; error : Ompsim.Par.region_error }
      (** run [run] (1-based) failed or was cancelled; a deadline spent
          before a run starts is reported as that run's
          [Deadline_expired] with the whole range unrecovered *)
  | Raised of { run : int; exn : exn }  (** run [run]'s region raised [exn] *)
  | Mismatch of { run : int; parallel : value; serial : value }

type outcome = {
  reference : value;  (** the serial reference every run matched *)
  run_times : float array;  (** wall seconds of each run's region *)
}

(** [recovery ?native plan ~param opts] is the plan's runtime recovery
    under [param] (canonical names), with the native backend of
    [native] (default {!Native.default}) attached when [opts.native];
    the second component is the fallback reason when it did not engage.
    @raise Invalid_argument when [param] leaves the trip count
    undetermined. *)
val recovery :
  ?native:Native.t ->
  Plan.t ->
  param:(string -> int) ->
  opts ->
  Trahrhe.Recovery.t * string option

(** [run ~supervised rc ~nest ~param opts] computes the serial
    reference over [nest] (the plan's canonical nest, under [param]),
    then executes the collapsed region [opts.repeat] times on [rc],
    checking each run's value exactly against the reference. With
    [supervised] the region runs under
    {!Ompsim.Par.reduce_resilient} with [opts.retries], [faults]
    (passed through: absent defers to [OMPSIM_FAULTS]) and the
    deadline; otherwise under {!Ompsim.Par.reduce_chunks}.
    [deadline_ms] budgets all runs together, measured from [started]
    (default: the start of the first run). Stops at the first failing
    run. *)
val run :
  ?faults:Ompsim.Fault.t option ->
  ?deadline_ms:int ->
  ?started:float ->
  supervised:bool ->
  Trahrhe.Recovery.t ->
  nest:Trahrhe.Nest.t ->
  param:(string -> int) ->
  opts ->
  (outcome, failure) result
