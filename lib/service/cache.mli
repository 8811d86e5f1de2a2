(** Two-tier plan cache with single-flight stampede protection.

    Tier 1 is a bounded in-memory LRU keyed by nest fingerprint; tier
    2 is an optional on-disk store (one [<fingerprint>.plan] file per
    plan, written atomically via rename inside a CRC envelope —
    {!Envelope}) enabled by passing [~dir] or setting the
    [OMPSIM_PLAN_CACHE] environment variable.

    Disk robustness: an entry whose envelope fails to verify (torn
    write, bit rot, foreign bytes) is {e quarantined} — moved to
    [<fingerprint>.bad], counted in [cache.quarantined], recompiled — never
    silently re-served; an entry that verifies but no longer decodes
    (older format version) is an ordinary miss and is overwritten.
    Fresh compiles into a shared store are serialized {e across
    processes} by an advisory [<fingerprint>.lock] file ({!Lockfile}):
    the loser of the race finds the winner's entry on a double-checked
    probe and serves it as a disk hit. A crashed holder's lock is
    reclaimed by the kernel; a wedged holder is abandoned after
    [OMPSIM_CACHE_LOCK_TIMEOUT_MS] (counted in [cache.lock_steal]).
    {!create} runs a startup janitor ({!sweep}) that removes orphaned
    dot-temps of dead writers, stale [.lock]s and [.bad] files.

    Concurrent in-process requests for the same fingerprint are
    single-flighted: the first runs the compile, the rest park on a
    condition variable and receive the winner's result. A failed
    compile propagates its error to every parked waiter but is {e
    not} cached — the next request for that fingerprint compiles
    again.

    Beside the plans, the cache memoizes two per-exec values, each in
    its own LRU of the same capacity and single-flighted per key like
    the plans: a plan's interpreted runtime recovery per canonical
    parameter values ({!recovery}), and its serial exec reference per
    parameter values and payload ({!reference}).

    All operations are thread-safe; the per-request critical sections
    take one mutex and never hold it across a compile or disk I/O.

    The cache keeps no counters of its own: it books every event in
    the process-wide [cache.*] metrics ({!Stats}), which are always
    on. Per request exactly one of [cache.hit]/[cache.miss]/
    [cache.singleflight_wait] advances (under the cache's mutex), and
    [cache.disk_hit <= cache.hit]. The robustness counters ride along
    without disturbing that invariant: a quarantined entry also counts
    as the miss that recompiles it. *)

type t

(** [create ()] makes a cache. [capacity] (default 256) bounds the
    in-memory tier; [dir] (default: {!Plan.store_dir}, from
    [OMPSIM_PLAN_CACHE])
    locates the disk tier, created on first store if missing. When
    the directory exists, creation runs one janitor {!sweep}. *)
val create : ?capacity:int -> ?dir:string option -> unit -> t

(** [default ()] is the shared process-wide cache, configured from the
    environment (created on first use). *)
val default : unit -> t

(** [sweep t] removes orphaned files from the disk tier and returns
    how many it removed (0 when no disk tier): private
    [.{name}.{pid}.{ext}] temps whose writer pid is dead, [.lock]
    files no live process holds, and quarantined [.bad] entries.
    Published entries are never candidates (they never start with a
    dot). Also run by {!create}. *)
val sweep : t -> int

(** [find_or_compile t nest] canonicalizes and fingerprints [nest],
    then returns its plan — from memory, from disk, from a concurrent
    in-flight compile, or by compiling — together with the renaming
    that maps [nest]'s names onto the plan's canonical ones (pass it
    to {!Fingerprint.canonical_param} when executing).

    [?compile] overrides the compiler (default {!Plan.compile} of the
    canonical nest) — the tests use it to inject slow or failing
    compiles; the contract is that it returns a plan for the canonical
    nest it is given. The slow path — disk probe, cross-process lock,
    compile — runs under a [service.cache] trace span; warm hits
    record only the metrics (a span per sub-microsecond hit would
    drown the trace). *)
val find_or_compile :
  ?compile:(Trahrhe.Nest.t -> (Plan.t, string) result) ->
  t ->
  Trahrhe.Nest.t ->
  (Plan.t * Fingerprint.renaming, string) result

(** [find_warm t nest] is [nest]'s plan when the in-memory tier holds
    it, booked as the hit {!find_or_compile} would book (and made most
    recent); [None] otherwise, with nothing booked, no disk probe and
    no compile. *)
val find_warm : t -> Trahrhe.Nest.t -> Plan.t option

(** [recovery t plan ~param] is {!Plan.recovery}[ plan ~param],
    memoized under {!Exec.params_key}: the plan fingerprint and the
    values of the plan's canonical parameters under [param]. Built on a
    miss from a closure over those values, so an entry keeps no
    reference to [param]. Run options never enter the key: every
    schedule, lane width, payload and [native] setting of one plan and
    parameter values shares one entry. The value is the interpreted
    recovery; attaching a native backend ({!Native.recovery_explain})
    stays per request, so a cached entry never holds a native handle.
    Books [exec.recovery.hit]/[exec.recovery.miss] ({!Stats});
    memoized, single-flighted and bounded like {!reference}. A
    {!Plan.recovery} that raises (e.g. [Invalid_argument] on a trip
    count past the native range) re-raises here and memoizes nothing.
    @raise Invalid_argument when [param] is unbound on a plan
    parameter, or as {!Plan.recovery}. *)
val recovery : t -> Plan.t -> param:(string -> int) -> Trahrhe.Recovery.t

(** [reference t key compute] is the serial reference memoized under
    [key] ({!Exec.reference_key}), or [compute ()] — computed without
    the cache's lock held, then memoized — on a miss. [None] (an empty
    min/max) is memoized like any value. The memo is an LRU of
    {!capacity} entries beside the plans' (so its memory is bounded
    like theirs) and books [exec.reference.hit]/[exec.reference.miss]
    ({!Stats}). Only the value is reused: every run is still checked
    against it. Domain-safe and single-flighted like the plans:
    concurrent misses on one key park on the first one's [compute ()]
    and count as hits, so [exec.reference.miss] counts walks. A
    [compute] that raises re-raises in its caller and memoizes
    nothing; a parked waiter then computes for itself. *)
val reference : t -> string -> (unit -> Exec.value option) -> Exec.value option

(** [size t] is the current in-memory plan count ([<= capacity]). *)
val size : t -> int

val capacity : t -> int
val dir : t -> string option

