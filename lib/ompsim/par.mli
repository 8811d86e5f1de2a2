(** Real shared-memory parallel-for on OCaml 5 domains.

    This is the execution counterpart of {!Sim}: an OpenMP-like
    [parallel for] whose schedules match {!Schedule}'s assignment
    exactly. On the 2-CPU container it demonstrates correctness
    (iterations are distributed and executed exactly once) more than
    speedup; on a larger multicore machine it parallelizes for real.

    Iterations must be independent — the same precondition the paper's
    transformation requires of the loops being collapsed.

    Every region runs through one engine, {!reduce}: a supervised
    reduction over the schedule's chunk partition.
    {!parallel_for_chunks} and {!parallel_for} are thin adapters over
    it for raw loops.

    Workers are dispatched to the warm persistent {!Pool} (no
    per-region domain creation); a region opened while the pool is busy
    (a nested region) runs on freshly spawned domains instead. Either
    way identical chunks go to identical slot numbers, so results are
    bit-identical across schedules — except [Work_stealing], whose
    chunk-to-worker mapping is inherently racy (the multiset of chunks
    executed is still exactly the schedule's chunk list, each chunk
    exactly once).

    [Schedule.Work_stealing c] is executed on per-worker Chase–Lev
    deques ({!Deque}): chunks are dealt round-robin up front, a worker
    drains its own deque with mutex-free owner pops, then steals from
    the other workers' deques until every deque is empty. With the
    observability layer on, local pops and steals are counted per slot
    in {!Stats.ws_local_pops} / {!Stats.ws_steals} (their total equals
    the region's chunk count exactly) and each worker's steal phase
    gets a [par.ws.steal] trace span.

    [Schedule.Dnc g] runs the divide-and-conquer splitter: workers
    recursively halve the collapsed interval down to [g] iterations
    through the same deques (split-tree node ids instead of dealt
    chunk indices), so thieves always steal the largest untouched
    subtree. The leaf partition is [Schedule.dnc_leaves] exactly —
    deterministic in [(n, g)] — and with observability on, splits and
    executed leaves are counted in {!Stats.dnc_splits} /
    {!Stats.dnc_grain_chunks} (steals still bill to
    {!Stats.ws_steals}). *)

(** {2 The region} *)

(** One chunk that kept failing: the range, the worker that gave up on
    it, how many attempts were made, and the last exception with the
    backtrace captured at its raise site. *)
type chunk_failure = {
  start : int;
  len : int;
  worker : int;
  attempts : int;
  error : exn;
  backtrace : Printexc.raw_backtrace;
}

type failure_reason =
  | Chunk_failed  (** a chunk exhausted its retries and the serial fallback failed too *)
  | Deadline_expired  (** the region's deadline passed; remaining work was cancelled *)

(** A structured region failure: never silent-partial — [unrecovered]
    lists exactly the index ranges of [0..n-1] that were not executed. *)
type region_error = {
  reason : failure_reason;
  failures : chunk_failure list;  (** in failure order *)
  unrecovered : (int * int) list;  (** sorted disjoint [(start, len)] ranges *)
}

(** [describe_error e] renders a {!region_error} for logs: reason,
    each failing chunk range/worker/attempts/exception, and the
    unrecovered ranges. *)
val describe_error : region_error -> string

(** [reduce ~nthreads ~schedule ~n ~combine f] runs one parallel
    region over [0..n-1] and reduces [f ~thread ~start ~len] over its
    chunk partition. It is the only region engine: every region is a
    reduction, and every region is supervised.

    {b Partials.} Each successful chunk records [(start, len, partial)]
    in a per-worker cell padded one cache line apart — no sharing, no
    locks on the hot path ({!Stats.reduce_partials}). The same cells
    are the region's coverage ledger. After the join the partials are
    sorted by chunk start and folded by a deterministic binary combine
    tree over adjacent positions ({!Stats.reduce_combines},
    [par.reduce.combine] span). The bracketing is keyed by chunk
    position in the collapsed range, never by worker arrival order, so
    for an associative [combine] the result is bit-for-bit identical
    across schedules, pooled or spawned workers, worker counts and
    fault/retry histories — exactly equal to the serial left fold over
    the chunk partials. [None] only when [n <= 0] (no chunks, and
    reduction operators need not have a neutral element — min/max).

    {b Supervision.}
    - every chunk attempt may first be failed or stalled by the
      captured {!Fault} configuration ([?faults], defaulting to
      {!Fault.get} — the [OMPSIM_FAULTS] environment spec;
      [~faults:None] disables injection for this region);
    - a failing chunk is retried in place up to [retries] times
      (default 0) with exponential backoff — sound when chunks are
      idempotent, which independent iterations (the collapsing
      precondition) guarantee for pure kernels. A failed attempt
      contributes no partial; a retried chunk contributes exactly once;
    - when a chunk exhausts its retries, or [deadline_ms] elapses, a
      cooperative cancellation token is raised; every schedule —
      including the work-stealing deque path — polls it at chunk-claim
      granularity, so siblings stop promptly and unclaimed work is
      abandoned (the ws deques are still drained so their cache stays
      reusable);
    - after the join, ranges no recorded partial covers are
      re-executed *serially* on the calling domain with fault
      injection suppressed ({!Stats.serial_fallbacks}), each adding
      one partial keyed by its own start — a coarser partition of
      [0,n), the identical fold for an associative [combine]. When the
      deadline expired, the gaps are reported instead of recovered.

    The result is all-or-error: [Ok] means every index in [0..n-1] was
    executed exactly once by a successful attempt; [Error e] carries
    the structured failures and the exact unrecovered ranges.

    Successful chunks are counted in
    {!Stats.par_chunks}/{!Stats.par_iterations} (so an [Ok] region's
    iteration total reconciles to [n] exactly even across retries and
    fallback), retries in {!Stats.chunk_retries}, cancellations in
    {!Stats.regions_cancelled}. With the observability layer on, the
    region gets a [par.region] span (args [n], [threads], [schedule],
    [retries]), each chunk attempt a [par.chunk] span, and failures
    [par.retry]/[par.cancel] instants and [par.fallback.serial] spans.
    @raise Invalid_argument when [nthreads <= 0], [retries < 0] or
    [deadline_ms < 0]. *)
val reduce :
  ?retries:int ->
  ?deadline_ms:int ->
  ?faults:Fault.t option ->
  nthreads:int ->
  schedule:Schedule.t ->
  n:int ->
  combine:('a -> 'a -> 'a) ->
  (thread:int -> start:int -> len:int -> 'a) ->
  ('a option, region_error) result

(** {2 Raw-loop adapters} *)

(** [parallel_for_chunks ~nthreads ~schedule ~n f] is {!reduce} with
    unit partials and [~faults:None]: it hands out whole chunks,
    [f ~thread ~start ~len], letting the §V schemes perform one costly
    recovery per chunk then increment. A chunk that fails, and fails
    again in the serial fallback, re-raises its first exception to the
    caller with the original backtrace. *)
val parallel_for_chunks :
  nthreads:int -> schedule:Schedule.t -> n:int -> (thread:int -> start:int -> len:int -> unit) -> unit

(** [parallel_for ~nthreads ~schedule ~n f] runs [f q] for every
    [q] in [0..n-1] across [nthreads] domains. *)
val parallel_for : nthreads:int -> schedule:Schedule.t -> n:int -> (int -> unit) -> unit
