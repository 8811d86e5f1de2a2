(** Deterministic, seeded fault injection for the execution runtime.

    The fault-tolerance machinery of {!Par.reduce} (retry,
    cancellation, serial fallback) is only as trustworthy as the test
    pressure behind it — this module supplies that pressure. A fault
    {!t} describes a synthetic failure model: with probability [p] a
    chunk *attempt* raises {!Injected} before any work is done, and
    with probability [stall_p] the attempt is first delayed by a busy
    wait of [stall_us] microseconds (exercising the cancellation and
    deadline paths without wall-clock flakiness).

    Decisions are a pure hash of [(seed, chunk start, attempt)] — no
    hidden RNG state — so a run is reproducible bit-for-bit: the same
    seed fails the same chunks on the same attempts regardless of
    thread interleaving, schedule, or how many workers race. Because a
    retried attempt hashes differently, [p < 1] models transient
    faults that eventually pass, while [p = 1] models a hard-poisoned
    range that only the injection-free serial fallback can recover.

    Nothing in the runtime consults the global configuration except
    {!Par.reduce}, the one region engine, which captures it once at
    region entry and calls {!inject} at each chunk-attempt start.
    Every region is supervised, so an armed [OMPSIM_FAULTS] reaches
    every region that does not opt out with [~faults:None] (the
    raw-loop adapters {!Par.parallel_for_chunks} and
    {!Par.parallel_for} do) — and every such region recovers.
    Disarmed means one [Atomic.get] on region entry and no per-chunk
    injection work.

    Faults are injected at the *start* of an attempt, before the chunk
    body runs, so a failed attempt has performed no work and a retry
    is safe even for kernels that accumulate (the retry contract of
    {!Par.reduce} only requires idempotence for exceptions the
    kernel itself raises mid-chunk). *)

type t = {
  p : float;  (** per chunk-attempt failure probability, in [0,1] *)
  seed : int;  (** hash seed; same seed = same failures, always *)
  stall_p : float;  (** per chunk-attempt stall probability *)
  stall_us : int;  (** stall duration, microseconds of busy wait *)
  max_injections : int;  (** global injection budget; negative = unlimited *)
}

(** The synthetic failure raised by {!inject}: which chunk range, on
    which attempt. Carries no kernel state — the attempt did no work. *)
exception Injected of { start : int; len : int; attempt : int }

(** [p=0.1], seed 42, no stalls, unlimited budget — what a bare
    [OMPSIM_FAULTS=1] arms. *)
val default : t

(** [of_spec s] parses a fault spec: either an on-switch
    ([1]/[on]/[true]/[yes] give {!default}) or comma-separated
    [key=value] fields over keys [p], [seed], [stall], [stall_us],
    [max] (e.g. ["p=0.3,seed=7,stall=0.05,stall_us=200,max=50"];
    unmentioned keys keep their {!default}). Rejects unknown keys,
    malformed numbers, probabilities outside [0,1] and negative
    durations with a descriptive message. *)
val of_spec : string -> (t, string) result

(** [to_spec t] prints a spec {!of_spec} parses back to [t]. *)
val to_spec : t -> string

(** Global configuration, initialized from the [OMPSIM_FAULTS]
    environment variable when it holds a valid spec (an invalid spec
    is reported on stderr once and ignored — an injection harness must
    never be able to corrupt a run silently). *)
val get : unit -> t option

val set : t option -> unit

(** [armed ()] = [get () <> None]. *)
val armed : unit -> bool

(** [with_faults cfg f] runs [f ()] with the global configuration set
    to [cfg], restoring the previous value afterwards (also on
    exceptions). *)
val with_faults : t option -> (unit -> 'a) -> 'a

(** [decide cfg ~start ~attempt] is the pure injection decision for
    one chunk attempt — [true] iff {!inject} would raise (ignoring the
    budget). Exposed for determinism tests and for predicting a run's
    failure set. *)
val decide : t -> start:int -> attempt:int -> bool

(** [inject cfg ~start ~len ~attempt] plays one chunk attempt against
    the fault model: possibly busy-waits [stall_us], then possibly
    raises {!Injected}. Bumps {!Stats.faults_injected} /
    {!Stats.fault_stalls} (the counters are always written).
    Call site: the supervised chunk loop of {!Par.reduce};
    the serial fallback deliberately does not call it. *)
val inject : t -> start:int -> len:int -> attempt:int -> unit

(** [reset_budget ()] re-arms the global [max_injections] budget
    (shared across regions so a budgeted spec bounds a whole run). *)
val reset_budget : unit -> unit
