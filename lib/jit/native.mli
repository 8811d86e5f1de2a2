(** dlopen bindings to a plan-specialized shared object.

    A {!handle} owns one [dlopen]ed object; the resolved entry points
    are pure C over caller-provided buffers, so one handle is safe to
    use concurrently from any number of domains. Handles are never
    finalized implicitly — the JIT cache keeps them for the process
    lifetime; {!close} exists for tests.

    Parameter vectors are the canonical parameter values of the plan,
    in [nest.params] order (at most 16, enforced at load and call). *)

type handle

(** [load ~path ~digest] opens and validates a shared object:
    resolvable symbols, ABI version {!Abi.version}, an
    [ompsim_fingerprint] equal to [digest] (the digest of the source
    it was built from, {!Emit.field-digest}), plausible
    depth/parameter counts. Any failure — unreadable file, missing
    symbol, stale ABI, foreign digest — returns [Error]; callers treat
    it as a silent cache miss and recompile. *)
val load : path:string -> digest:string -> (handle, string) result

(** [close h] dlcloses the object; subsequent calls through [h] raise
    [Failure]. *)
val close : handle -> unit

val depth : handle -> int
val params : handle -> int

(** [trip h ps] is the collapsed trip count under parameters [ps]. *)
val trip : handle -> int array -> int

(** [walk_hash h ps ~pc ~len] is the native collapsed checksum walk:
    one in-object recovery at rank [pc], then the hash sum over the
    next [len] ranks (clamped to the iteration space; 0 when [pc] is
    outside it). Runs with the OCaml runtime lock released. *)
val walk_hash : handle -> int array -> pc:int -> len:int -> int

(** [reduce h ps op ~pc ~len] folds [op] over the nest's clause
    values in the chunk \[[pc], [pc+len-1]\]: one in-object recovery,
    then the clause's value polynomial accumulated per innermost run.
    [Sum] wraps in u64 (the interpreted native-int sum after the 63-bit
    truncation); [Min]/[Max] are the exact extremum, valid on a
    recovery that is not overflow-guarded, where every value is below
    2^61 in magnitude. Answers 0 when [pc] is outside the space or
    [len <= 0], and when the plan carries no reduction clause (the
    symbol is always exported). Runs with the OCaml runtime lock
    released.
    @raise Invalid_argument on [Prod]: the exact product has no native
    fold. *)
val reduce : handle -> int array -> Trahrhe.Nest.red_op -> pc:int -> len:int -> int

(** [recover h ps ~pc idx] writes the recovered indices of rank [pc]
    into [idx] (length >= depth).
    @raise Invalid_argument on an undersized buffer. *)
val recover : handle -> int array -> pc:int -> int array -> unit
