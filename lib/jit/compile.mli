(** The gcc driver: emitted C source -> cached shared object.

    Objects live next to the plans, one [<digest>.<salt>.so] per
    distinct emitted source ({!so_name}; the digest is
    {!Emit.field-digest}, so plans that emit the same C share one
    object; the salt is {!Abi.salt}, so a compiler or ABI change never
    loads a stale binary — it just misses and recompiles). Publication is atomic (private temp file +
    rename), mirroring the plan store.

    Compiles run under {!Subproc}: [OMPSIM_JIT_TIMEOUT_MS] (default
    30000) bounds the wall clock — on expiry the compiler's process
    group is SIGKILLed and the failure counts [jit.timeout] — and the
    first ~2KB of the compiler's stderr are carried in the [Error]
    string instead of being discarded. *)

(** [so_name digest] is the cache file name for a source of digest
    [digest] under the current ABI/compiler salt. *)
val so_name : string -> string

(** [is_breaker_rejection e] is [true] when [e] is a circuit-breaker
    rejection rather than a real compile outcome. Callers that cache
    specialize failures per fingerprint (see {!Service.Native}) must
    not cache these: the breaker re-closing would otherwise leave
    fingerprints pinned to the interpreted fallback forever. *)
val is_breaker_rejection : string -> bool

(** [is_plan_error e] is [true] when [e] is a plan-shaped failure
    (the emitter rejected the inversion) rather than a toolchain
    outcome. These are the only failures it is safe to cache per
    fingerprint forever: the same plan will fail the same way on
    every retry, whereas a toolchain failure (missing compiler,
    timeout, crash) may clear up and must stay retryable. *)
val is_plan_error : string -> bool

(** [emit inv] is {!Emit.source} with its failure marked as a plan
    error ({!is_plan_error}). *)
val emit : Trahrhe.Inversion.t -> (Emit.source, string) result

(** [build ?dir ?breaker src] returns a validated handle to the object
    built from [src]: loading the warm [.so] from [dir] when present
    and valid ([jit.load]), else compiling a fresh one ([jit.compile],
    under a [jit.compile] trace span) and publishing it in [dir]. [dir]
    defaults to a process-shared directory under the system temp dir.
    Corrupt or stale cache entries are silent misses: they are
    recompiled and overwritten, never surfaced.

    When [breaker] is given, fresh compiles consult it first: a
    rejected attempt returns an [Error] recognized by
    {!is_breaker_rejection} without forking the compiler, and
    toolchain outcomes (compile success/failure/timeout, unloadable
    object, unavailable compiler) feed {!Breaker.success} /
    {!Breaker.failure}. Warm loads bypass the breaker.

    [Error] means the native tier is unavailable for this plan (no
    compiler, compile failure, breaker open) — the caller falls back
    to the interpreted walk and counts [jit.fallback]. *)
val build : ?dir:string -> ?breaker:Breaker.t -> Emit.source -> (Native.handle, string) result

(** [specialize ?dir ?breaker inv] is {!emit} then {!build}: the handle
    for [inv] (a canonical plan inversion). Emission runs {e before}
    the breaker is consulted, so a plan the emitter rejects never
    consumes a half-open probe slot, and can never leak one. *)
val specialize :
  ?dir:string ->
  ?breaker:Breaker.t ->
  Trahrhe.Inversion.t ->
  (Native.handle, string) result
