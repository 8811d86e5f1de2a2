(** One exec runner, shared by [trahrhe exec] and the service's [exec]
    verb: the serial reference, the chunk-body choice, the region, and
    the repeat loop with its exact mismatch check. Front ends keep
    only their rendering, and the choice of where the recovery and the
    reference come from: the CLI computes them per invocation, the
    service memoizes the recovery per plan x parameters ({!params_key},
    {!Cache.recovery}) and the reference per plan x parameters x
    payload ({!reference_key}, {!Cache.reference}).

    Every payload runs as a reduction over the collapsed range
    ({!Ompsim.Par.reduce}): the checksum is a [( + )] reduction
    of per-chunk {!Trahrhe.Recovery.walk_hash} sums (or, under
    [lanes > 1] without the native backend,
    {!Trahrhe.Recovery.block_hash} sums of the §VI-A lane blocks: the
    same value, at a few times the scalar walk's cost, because each
    block is materialised before it is hashed — every run's prefix is
    written once per run and a block is hashed as d row sums, see
    [bench/main.exe -- micro-lanes]); [reduce=sum|min|max] one of
    {!Trahrhe.Recovery.walk_reduce_int} partials in native ints; and
    [prod], or [min]/[max] on an overflow-guarded recovery, one of
    {!Trahrhe.Recovery.walk_reduce_rat} partials in exact rationals.
    A native-int [min]/[max] is exact because the recovery's headroom
    analysis bounds every clause value below 2^61; it is rendered as
    the same rational.

    The region walks each chunk in slices of at most 2^16 iterations
    (one more recovery each), folding the slice results in order with
    the payload's own associative combine, so slicing never changes a
    value. An optional [poll] is called on the region's slot 0 — the
    calling domain — after every slice, and every 4096 iterations of
    the serial reference: safe points at which a single-domain caller
    can do other cheap work while a long request runs ({!Server.serve}
    answers [health] and warm [compile] there), and at which {!run}
    checks its deadline. [poll] must not raise and must not open a
    parallel region. *)

type opts = {
  threads : int;  (** domains for the parallel region *)
  schedule : Ompsim.Schedule.t;
  lanes : int;  (** §VI-A lane width; 1 = per-iteration walk *)
  repeat : int;  (** executions of the region, each checked *)
  retries : int;  (** per-chunk retries under supervision *)
  native : bool;  (** route chunks through the native backend ({!Native}) *)
  reduce : Trahrhe.Nest.red_op option;
      (** run the region as a parallel reduction of the nest's clause
          with this operator instead of the checksum walk; the nest
          must carry a clause. The only place the operator lives: it
          is no part of the nest, the plan or the recovery *)
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
  | Raised of { run : int; exn : exn }
      (** run [run]'s region could not start: [Pool.run] raised [exn]
          (e.g. [threads] past the runtime's domain limit) *)
  | Mismatch of { run : int; parallel : value; serial : value }

type outcome = {
  reference : value;  (** the serial reference every run matched *)
  run_times : float array;  (** wall seconds of each run's region *)
}

(** [recovery ?native plan ~param rc opts] is [rc], the plan's
    interpreted runtime recovery under [param] (canonical names; fresh
    from {!Plan.recovery} or memoized by {!Cache.recovery}), with the
    native backend of [native] (default {!Native.default}) attached when
    [opts.native] ({!Native.recovery_explain}); the second component is
    the fallback reason when it did not engage. [rc] itself is never
    modified. *)
val recovery :
  ?native:Native.t ->
  Plan.t ->
  param:(string -> int) ->
  Trahrhe.Recovery.t ->
  opts ->
  Trahrhe.Recovery.t * string option

(** [serial rc ~nest ~param opts] is the serial reference: the plain
    left fold of the payload over [nest] (the plan's canonical nest,
    under [param]) in iteration order, independent of the collapsed
    walk — {!Trahrhe.Nest.iterate}, with [prod]/[min]/[max] in exact
    rationals. [None] only for [min]/[max] over an empty space.
    [poll] (default: none) is called after every 4096th iteration. *)
val serial :
  ?poll:(unit -> unit) ->
  Trahrhe.Recovery.t ->
  nest:Trahrhe.Nest.t ->
  param:(string -> int) ->
  opts ->
  value option

(** [params_key plan ~param] names {!Plan.recovery}'s result: the plan
    fingerprint and the values of the plan's canonical parameters under
    [param]. No run option is part of it. *)
val params_key : Plan.t -> param:(string -> int) -> string

(** [reference_key plan ~param opts] names {!serial}'s result:
    {!params_key} (the fingerprint covers the clause's value) plus the
    payload (checksum or reduce op). Schedule, threads, lanes, native,
    repeat and retries are not part of it: they never change the
    reference. *)
val reference_key : Plan.t -> param:(string -> int) -> opts -> string

(** [run ~reference rc opts] obtains the serial reference
    [reference poll] ({!serial}'s result under that [~poll], fresh or
    memoized; [None] fails with [Empty_extremum] before any run), then
    executes the collapsed region [opts.repeat] times on [rc], checking
    each run's value exactly against it. Each run is one
    {!Ompsim.Par.reduce} region with [opts.retries], [faults] (passed
    through: absent defers to [OMPSIM_FAULTS]) and the remaining
    deadline. [deadline_ms] budgets the reference and all runs
    together, measured from [started] (default: the call): it is
    checked before the reference, at the reference's safe points, and
    before each run; once spent, the pending run fails with
    [Deadline_expired] and the whole range unrecovered. A reference
    cut short raises through [reference], so {!Cache.reference}
    memoizes nothing. Stops at the first failing run. [poll] (default:
    nothing) is called on slot 0 after every slice of a chunk and at
    the reference's safe points (see above). *)
val run :
  ?faults:Ompsim.Fault.t option ->
  ?deadline_ms:int ->
  ?started:float ->
  ?poll:(unit -> unit) ->
  reference:((unit -> unit) -> value option) ->
  Trahrhe.Recovery.t ->
  opts ->
  (outcome, failure) result
