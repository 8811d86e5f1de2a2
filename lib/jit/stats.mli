(** Always-on {!Obsv.Metrics} counters of the JIT tier ([jit.hit]
    lives in {!Trahrhe.Recovery}, next to the walks it counts; the
    service's [native.served] in {!Service.Stats}):
    - [jit.compile] — fresh gcc compiles of a specialized object;
    - [jit.load] — warm [.so] loads served from the cache directory;
    - [jit.fallback] — native requests that fell back to the
      interpreted walk (no compiler, compile/load failure, or an
      overflow-guarded nest);
    - [jit.timeout] — supervised compiles killed by the
      [OMPSIM_JIT_TIMEOUT_MS] deadline;
    - [jit.breaker.open]/[close] — circuit-breaker transitions;
    - [jit.breaker.reject] — compile attempts refused while open;
    - [jit.breaker.probe] — half-open probes granted. *)

val compiles : Obsv.Metrics.t
val loads : Obsv.Metrics.t
val fallbacks : Obsv.Metrics.t
val timeouts : Obsv.Metrics.t
val breaker_opens : Obsv.Metrics.t
val breaker_closes : Obsv.Metrics.t
val breaker_rejects : Obsv.Metrics.t
val breaker_probes : Obsv.Metrics.t
