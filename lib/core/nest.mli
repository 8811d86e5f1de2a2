(** The loop-nest model of the paper (Fig. 5).

    A nest is a perfect chain of unit-stride loops
    [for (ik = lk(i1..ik-1); ik < uk(i1..ik-1); ik++)] whose bounds are
    affine in the surrounding iterators and in free integer size
    parameters. The loops to be collapsed must carry no dependence —
    dependence analysis is the caller's responsibility (as it is for
    the paper's tool, which trusts the user-written [collapse]
    clause). *)

module A = Polymath.Affine

type level = {
  var : string;
  lower : A.t;  (** inclusive lower bound, C-style [ik = lower] *)
  upper : A.t;  (** exclusive upper bound, C-style [ik < upper] *)
}

(** A reduction operator: the payload a run folds over the clause
    values. It is a run option ([Exec.opts.reduce] in the service), not
    part of the nest: one nest, plan and recovery serve every operator. *)
type red_op = Sum | Prod | Min | Max

(** A nest may declare a reduction clause: the value polynomial
    evaluated at every iteration point, which a [reduce=] run folds
    with the operator it asks for. The value ranges over the nest's
    iterators and parameters and must have integer coefficients, so
    per-point evaluation is integer-exact: reductions over [Zmath.Rat]
    are bit-for-bit schedule-independent, and the [Sum] fold
    additionally admits a wrapping native-int fast path (mod 2^63,
    matching the JIT's u64 accumulator truncated by [Val_long]). *)
type t = private { params : string list; levels : level list; reduce : Polymath.Polynomial.t option }

val op_to_string : red_op -> string

(** [op_of_string s] accepts ["sum"|"+"|"prod"|"*"|"min"|"max"]. *)
val op_of_string : string -> red_op option

(** [op_apply op a b] combines exactly over rationals. *)
val op_apply : red_op -> Zmath.Rat.t -> Zmath.Rat.t -> Zmath.Rat.t

(** Neutral element, when the operator has one ([Min]/[Max] do not —
    callers seed folds with the first value instead). *)
val op_neutral : red_op -> Zmath.Rat.t option

(** [make ~params ?reduce levels] validates and builds a nest: level
    variables must be distinct, disjoint from [params], and each bound
    may only mention parameters and strictly-outer level variables. A
    reduction clause's value may only mention iterators and parameters
    and must have integer coefficients.
    @raise Invalid_argument when the model is violated. *)
val make : params:string list -> ?reduce:Polymath.Polynomial.t -> level list -> t

(** [with_reduce n v] is [n] with its reduction clause's value replaced
    (revalidated). *)
val with_reduce : t -> Polymath.Polynomial.t option -> t

(** [default_reduce_value n] is the canonical payload used when a
    reduction is requested on a nest with no declared clause:
    [1 + sum_k (k+1)*x_k]. *)
val default_reduce_value : t -> Polymath.Polynomial.t

(** [with_default_reduce n] is the nest a [reduce=] request runs: [n]
    itself when it declares a clause, else [n] reducing
    {!default_reduce_value}. Every operator folds the same nest. *)
val with_default_reduce : t -> t

val depth : t -> int

(** [level_vars n] is the list of iterator names, outermost first. *)
val level_vars : t -> string list

(** [prefix n c] is the sub-nest of the [c] outermost loops (the loops
    being collapsed when [c < depth]); bounds of the remaining inner
    loops are unaffected by collapsing. Any reduction clause is
    dropped (its value may mention the discarded inner iterators).
    @raise Invalid_argument unless [1 <= c <= depth n]. *)
val prefix : t -> int -> t

(** [to_count_levels n] is the inclusive-bounds form used by the
    counting and lexmin machinery. *)
val to_count_levels : t -> Polyhedral.Count.level list

(** [max_dependence_degree n] is the largest number of loops whose
    trip count depends (transitively) on any single index — the degree
    bound of the univariate equations to solve, which the method
    requires to be at most 4 (paper §IV-B). *)
val max_dependence_degree : t -> int

(** [is_rectangular n] is true when every bound is parameter-only (the
    case OpenMP's own [collapse] already handles). *)
val is_rectangular : t -> bool

(** [iterate n ~param f] drives [f] over all iterations in
    lexicographic order, with concrete parameter values; for testing
    and reference execution. Each bound is resolved to index slots once
    per call, with its parameters folded in, and evaluated exactly in
    rationals.
    @raise Invalid_argument if a bound evaluates to a non-integer. *)
val iterate : t -> param:(string -> int) -> (int array -> unit) -> unit

(** [pp] prints the nest as C-style loop headers. *)
val pp : Format.formatter -> t -> unit
