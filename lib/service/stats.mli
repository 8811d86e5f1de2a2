(** Service-layer {!Obsv.Metrics} counters: the one ledger of the
    plan cache, the recovery and serial-reference memos, the native
    tier and the serve loop.

    Like {!Ompsim.Stats}, these register globally at module link time,
    are written whether or not {!Obsv.Control.enabled} is set, and
    reset with {!Obsv.Metrics.reset_all} (so [Ompsim.Stats.reset]
    covers them). They are process-wide: every {!Cache.t} and
    {!Native.t} in the process books into the same counters. The
    [health] and [shutdown] responses report their totals; the batch
    and serve summaries report their deltas over the run
    ({!Obsv.Metrics.since}). *)

val cache_hits : Obsv.Metrics.t
(** [cache.hit]: requests satisfied without a compile — in-memory LRU
    hits plus disk-tier hits *)

val cache_disk_hits : Obsv.Metrics.t
(** [cache.disk_hit]: the subset of hits served by decoding an on-disk
    plan (a fresh process with a warm [OMPSIM_PLAN_CACHE] dir sees
    only these) *)

val cache_misses : Obsv.Metrics.t
(** [cache.miss]: requests that ran the symbolic pipeline (corrupt or
    version-stale disk entries land here, never as errors) *)

val cache_evictions : Obsv.Metrics.t
(** [cache.evict]: plans dropped from the LRU tail at capacity *)

val singleflight_waits : Obsv.Metrics.t
(** [cache.singleflight_wait]: requests that parked behind an
    in-flight compile of the same fingerprint instead of compiling —
    per request: hits + misses + single-flight waits = requests *)

val inflight_admissions : Obsv.Metrics.t
(** [service.inflight]: requests admitted by the batch and serve front
    ends; the instantaneous in-flight level is also emitted as a
    Chrome counter sample under the same name *)

val serve_accepts : Obsv.Metrics.t
(** [serve.accept]: connections accepted by the serve event loop —
    after a run, accepts − closes = 0 (every accepted connection is
    closed by the loop before it returns) *)

val serve_timeouts : Obsv.Metrics.t
(** [serve.timeout]: requests whose per-request deadline
    ([--request-timeout-ms]) expired before execution finished; each
    one produced an error response, never a silent drop *)

val serve_rejected : Obsv.Metrics.t
(** [serve.rejected]: protocol-level rejections by the serve loop — an
    oversized request line overflows the connection's framer, which
    answers with one error response and closes that connection *)

val serve_throttled : Obsv.Metrics.t
(** [serve.throttled]: requests refused by per-client overload
    protection (the token-bucket [--rate-limit]); each one received a
    deterministic structured [rejected:overload] response *)

val serve_pumped : Obsv.Metrics.t
(** [serve.pumped]: lines the serve loop answered from inside another
    request's exec, at its safe points ({!Exec.run}'s [poll]) —
    [health], warm [compile] and rate-refused [compile] on idle
    connections; each is also counted where the loop would count it *)

val cache_quarantined : Obsv.Metrics.t
(** [cache.quarantined]: corrupt disk entries (envelope/CRC failures)
    moved aside to [<fingerprint>.bad] and recompiled — never silently
    re-served, never silently deleted *)

val cache_lock_waits : Obsv.Metrics.t
(** [cache.lock_wait]: cross-process lock acquisitions that actually
    contended (at least one failed try-lock) before winning *)

val cache_lock_steals : Obsv.Metrics.t
(** [cache.lock_steal]: lock acquisitions that timed out on a live
    holder ([OMPSIM_CACHE_LOCK_TIMEOUT_MS]) and proceeded without the
    lock — safe under atomic-rename publication, but worth counting *)

val cache_janitor : Obsv.Metrics.t
(** [cache.janitor]: orphaned files ([.tmp] temps of dead writers,
    stale [.lock]s, quarantined [.bad]s) removed by the startup sweep *)

val native_served : Obsv.Metrics.t
(** [native.served]: recoveries handed out with the native backend
    attached; fallbacks to the interpreted walk are [jit.fallback]
    ({!Jit.Stats.fallbacks}) *)

val recovery_hits : Obsv.Metrics.t
(** [exec.recovery.hit]: [exec] requests whose interpreted runtime
    recovery came from the memo ({!Cache.recovery}) instead of
    {!Plan.recovery} *)

val recovery_misses : Obsv.Metrics.t
(** [exec.recovery.miss]: [exec] requests that specialized their plan
    to their parameter values (and memoized it, unless it raised) —
    per [exec] whose plan compiled, exactly one of hit/miss advances *)

val reference_hits : Obsv.Metrics.t
(** [exec.reference.hit]: [exec] requests whose serial reference came
    from the memo ({!Cache.reference}) instead of a serial walk *)

val reference_misses : Obsv.Metrics.t
(** [exec.reference.miss]: [exec] requests that walked the space
    serially for their reference (and memoized it) — per [exec] that
    reaches its region, exactly one of hit/miss advances *)
