(** Persistent domain pool.

    OCaml 5 [Domain.spawn]/[Domain.join] cost tens of microseconds per
    domain — a fork/join overhead the paper's Figure 10 explicitly
    budgets against. The pool keeps worker domains alive across
    parallel regions: each worker parks on its own mailbox (mutex +
    condition variable) and is handed closures to run; completion is
    signalled through a reusable countdown latch, so a dispatch costs
    a few condition-variable signals instead of domain creation.

    The pool is created lazily on the first multi-threaded dispatch
    and grows on demand when a region requests more workers than are
    alive; growth is all or nothing — when the runtime refuses a
    domain, the workers spawned for that growth are joined, the pool
    keeps its previous size and {!run} re-raises the spawn failure. It
    is shut down automatically at process exit. Worker
    [slot] numbers are stable: worker [j] always runs as slot [j]
    (the calling domain is slot 0).

    Nested or concurrent dispatches do not deadlock: when the pool is
    busy, {!run} falls back to spawning short-lived domains, matching
    the semantics of the non-pooled path. *)

(** [run ~nthreads f] executes [f 0 .. f (nthreads-1)] concurrently —
    [f 0] on the calling domain, the rest on pool workers — and
    returns when all have finished. If any [f t] raised, the first
    failure recorded (worker slot, exception, backtrace) wins and its
    exception is re-raised after all workers finished — with the
    original backtrace, via [Printexc.raise_with_backtrace], so a
    crash report points at the worker's raise site, not at the pool's
    join.
    @raise Invalid_argument when [nthreads <= 0]. *)
val run : nthreads:int -> (int -> unit) -> unit

(** [run_spawned ~nthreads f] is {!run} on freshly spawned domains
    instead of the pool — the nested-region fallback and the
    [OMPSIM_BACKEND=spawn] reference path. Same failure contract as
    {!run} (first failure wins, original backtrace preserved), and the
    calling domain always joins every spawned domain, even when
    [f 0] itself raises. *)
val run_spawned : nthreads:int -> (int -> unit) -> unit

(** [size ()] is the number of live pool workers (0 before the first
    dispatch). *)
val size : unit -> int

(** [pending ()] is the completion latch's outstanding-worker count —
    0 whenever no dispatch is in flight. Exposed for the soak tests'
    leak check. *)
val pending : unit -> int

(** [queued_jobs ()] counts workers holding a not-yet-started job in
    their mailbox — 0 whenever no dispatch is in flight. *)
val queued_jobs : unit -> int

(** [shutdown ()] stops and joins all pool workers (called
    automatically at exit; safe to call more than once — a later
    {!run} simply re-creates workers). *)
val shutdown : unit -> unit
