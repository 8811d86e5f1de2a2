(** Compile circuit breaker.

    A broken toolchain (missing gcc, wedged wrapper script, full disk)
    makes every fresh compile fail the same way; without a breaker
    each new fingerprint pays a full probe — up to a whole
    [OMPSIM_JIT_TIMEOUT_MS] deadline for a hang. The breaker turns
    that into bounded probes: after [threshold] {e consecutive}
    failures it opens and rejects compile attempts instantly; once
    [cooldown_ms] has passed, exactly one caller is let through as a
    half-open probe, and its result closes the breaker (success) or
    re-opens it for another cooldown (failure).

    State machine: [Closed] --threshold failures--> [Open]
    --cooldown elapsed--> [Half_open] (one probe in flight)
    --probe ok--> [Closed] / --probe fails--> [Open].

    Thread-safe; all transitions happen under an internal mutex. The
    clock is injectable so tests and the chaos harness drive
    transitions deterministically. Transitions, rejections and probes
    are counted in the process-wide [jit.breaker.*] metrics
    ({!Stats}), which the [health] verb reports. *)

type t

type state = Closed | Open | Half_open

(** [create ()] uses [threshold] (default [$OMPSIM_JIT_BREAKER_THRESHOLD]
    or 3 consecutive failures), [cooldown_ms] (default
    [$OMPSIM_JIT_BREAKER_COOLDOWN_MS] or 1000), and [now_ms] (default
    the wall clock) for the open-state cooldown. *)
val create : ?threshold:int -> ?cooldown_ms:int -> ?now_ms:(unit -> float) -> unit -> t

(** [acquire t] asks permission to attempt a compile. [true] means go
    (closed, or this caller won the half-open probe slot); [false]
    means rejected — the breaker is open and cooling down, or another
    probe is already in flight. A caller that got [true] must report
    {!success} or {!failure} exactly once. *)
val acquire : t -> bool

(** [success t] closes the breaker and resets the failure streak. *)
val success : t -> unit

(** [failure t] records a failed attempt: bumps the consecutive-failure
    streak, opens the breaker at [threshold], and re-opens it when a
    half-open probe fails. *)
val failure : t -> unit

val state : t -> state

(** current consecutive-failure streak *)
val failures : t -> int

(** [state_name s] is ["closed"], ["open"] or ["half-open"]. *)
val state_name : state -> string
