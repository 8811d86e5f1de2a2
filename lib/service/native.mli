(** Native-handle cache: serves plans as specialized shared objects.

    One validated {!Jit.Native} handle per plan fingerprint, compiled
    (or warm-loaded) on first request and kept for the cache's
    lifetime, so a warm request is one table lookup. A miss emits the
    plan's C and single-flights the object on the source's digest
    ({!Jit.Emit.field-digest}) with the same machinery as plan compiles
    ({!Single_flight}): concurrent first requests build once, and plans
    that emit the same C share one object. The operator of a [reduce=]
    request is a run option, so every op of a nest runs its one plan's
    object ([sum], [min] and [max] fold in it; [prod], which has no
    native fold, never asks for it: {!Exec.recovery}). The [.so]
    files live in the same directory as the plans —
    [~dir], defaulting to [OMPSIM_PLAN_CACHE] — named
    [<digest>.<salt>.so] ({!Jit.Compile.so_name}).

    Only plan-shaped specialize failures (the emitter rejected the
    inversion) are cached per fingerprint. Toolchain failures stay
    retryable; the compile circuit breaker the cache threads into
    every build bounds their cost, its rejections are never cached
    (the breaker re-closing must let the fingerprint try again), and
    its state is queryable for the serve loop's [health] verb
    ({!breaker}). *)

type t

(** [create ()] makes a handle cache over [dir] (default:
    {!Plan.store_dir}, the [OMPSIM_PLAN_CACHE] store when set and
    non-empty, else a temp directory chosen by
    {!Jit.Compile.specialize}). [breaker] (default a fresh
    {!Jit.Breaker.create}, configured from the environment) guards
    this cache's fresh compiles. *)
val create : ?dir:string option -> ?breaker:Jit.Breaker.t -> unit -> t

(** [default ()] is the shared process-wide cache, configured from the
    environment. *)
val default : unit -> t

val dir : t -> string option

(** [breaker t] is the compile circuit breaker guarding this cache's
    fresh specializations — the [health] verb reports its state. *)
val breaker : t -> Jit.Breaker.t

(** [recovery t plan ~param rc] is [rc] — the plan's interpreted
    recovery under [param] ({!Plan.recovery}, or its memo
    {!Cache.recovery}) — with the native backend attached when one can
    be: the plan's object is fetched or built, cross-checked
    ([ompsim_trip] against [rc]'s trip count), and bound to the
    canonical parameter values. [rc] itself is never modified, so the
    attach, its cross-check and its accounting happen on every call. On
    any failure — no compiler, compile error, overflow-guarded nest,
    cross-check mismatch — [rc] is returned unchanged and
    [jit.fallback] is counted ([native.served] when the backend
    attaches); probe with {!Trahrhe.Recovery.native_enabled}. *)
val recovery : t -> Plan.t -> param:(string -> int) -> Trahrhe.Recovery.t -> Trahrhe.Recovery.t

(** [recovery_explain t plan ~param rc] is {!recovery} plus the
    fallback reason when the native backend could not be attached —
    including the compiler's stderr excerpt on a compile failure — so
    the serve loop can surface {e why} a request ran interpreted.
    [None] means the native backend is engaged. *)
val recovery_explain :
  t ->
  Plan.t ->
  param:(string -> int) ->
  Trahrhe.Recovery.t ->
  Trahrhe.Recovery.t * string option

(** [last_error t] is the most recent specialize failure (breaker
    rejections included), for the [health] report. *)
val last_error : t -> string option

(** [clear t] closes every cached handle and forgets all entries
    (including cached failures). Only call when no recovery obtained
    from [t] is still in use. *)
val clear : t -> unit
