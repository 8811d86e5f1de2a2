(** Inversion of ranking polynomials (paper §IV).

    For each level k of the nest, the unknown index [ik] is recovered
    from the collapsed index [pc] by solving
    [r(i1,..,ik, lexmin tail) - pc = 0] symbolically: the trailing
    indices are set to their parametric lexicographic minima, making the
    equation univariate in [ik]. Up to degree 4 the roots are radical
    closed forms; among the symbolic candidates, the convenient one is
    selected by checking the values it produces on sampled concrete
    instances — never by its real/complex type (paper §IV-C) — and the
    last index is recovered by an exact polynomial formula.

    Above degree 4 there is no radical closed form, but there is also
    no need for one: [r_sub.(k)] is strictly monotone in [ik] on the
    iteration interval, so the level is marked {!Numeric} and recovered
    at runtime by certified root isolation ({!Rootsolve.Isolate}) — a
    float-Newton seed validated by exact integer probes of the same
    monotone polynomial the binary-search fallback uses. Setting
    [OMPSIM_FORCE_NUMERIC=1] (or [~force_numeric:true]) routes every
    non-last level through the numeric path, for differential testing
    against the closed forms. *)

module P = Polymath.Polynomial

type level_recovery =
  | Root of {
      var : string;
      expr : Symx.Expr.t;  (** closed-form root; floor it to get the index *)
      mode : Symx.Cemit.mode;  (** how the generated C must evaluate it *)
    }
      (** all levels but the innermost *)
  | Last of { var : string; poly : P.t }
      (** innermost level: an exact integer polynomial in the prefix
          indices and [pc] *)
  | Numeric of { var : string; r_sub_index : int }
      (** no radical closed form (degree > 4, or forced): the index is
          the largest [v] with [r_sub.(r_sub_index) (prefix, v) <= pc],
          found by a seeded certified bracketing over the monotone
          substituted ranking *)

type t = {
  nest : Nest.t;
  pc_var : string;
  ranking : P.t;
  trip_count : P.t;  (** in the parameters only *)
  r_sub : P.t array;
      (** [r_sub.(k)] is the ranking with levels > k at their tail
          minima: the rank of the first iteration with a given
          [i0..ik] prefix. Exactly the polynomials whose roots are the
          closed forms; also the monotone functions used by guarded and
          binary-search recovery. *)
  recoveries : level_recovery array;  (** one per level, outermost first *)
}

type error =
  | Degree_too_high of { var : string; degree : int }
      (** kept for API stability: no longer produced by {!invert},
          which now routes degree > 4 levels to {!Numeric} recovery *)
  | No_valid_root of { var : string; candidates : int }
      (** no symbolic candidate reproduced the sampled iterations, or
          a numeric level failed its isolation certificate *)
  | No_samples
      (** every sampled parameter valuation gave an empty nest (only
          reachable when a closed-form level needs samples to select
          its root) *)
  | Sample_budget of { budget : int; sizes : int list }
      (** no sample is left because each non-empty one at these
          [sizes] enumerates more than [budget] points *)
  | Rank_mismatch of {
      size : int;  (** the sample size *)
      points : int;  (** points enumerated at that size *)
      position : int;  (** 1-based enumeration position of [point] *)
      point : (string * int) list;  (** level variable, value *)
    }
      (** the ranking polynomial does not rank a sample's points
          1..n in enumeration order: its Ehrhart sums assume every
          level range is non-empty or exactly empty, and some row of
          the sample has an upper bound below its lower bound minus
          one *)

val error_to_string : error -> string

(** [force_numeric_default ()] is the environment default for
    [?force_numeric]: true iff [OMPSIM_FORCE_NUMERIC] is ["1"] or
    ["true"]. Tests that assert closed-form structure consult it to
    stay meaningful under the forced-numeric CI shard. *)
val force_numeric_default : unit -> bool

(** [invert ?pc_var ?sample_sizes ?force_numeric nest] runs the full
    inversion. [pc_var] (default ["pc"]) names the collapsed index;
    [sample_sizes] (default [[3; 4; 6]]) are the parameter values used
    to validate and select candidate roots (each sample assigns
    parameter number [i] the value [size + 3*i]). [force_numeric]
    (default: [OMPSIM_FORCE_NUMERIC=1] in the environment) routes
    every non-last level through {!Numeric} recovery regardless of
    degree. *)
val invert :
  ?pc_var:string ->
  ?sample_sizes:int list ->
  ?force_numeric:bool ->
  Nest.t ->
  (t, error) result

(** [stage_root nest ~pc_var ~k expr ~param] stages the closed-form
    root [expr] of level [k] ({!Symx.Expr.compile_complex}) under the
    parameter values [param], which is asked only for the parameters
    [expr] reads. The result maps an index prefix (its first [k]
    entries are read) and [pc] to the root's value. Applying only
    [expr] stages the expression once for several valuations.
    @raise Invalid_argument if [expr] mentions a variable other than
    [pc_var], the [k] outer level variables and the parameters. *)
val stage_root :
  Nest.t ->
  pc_var:string ->
  k:int ->
  Symx.Expr.t ->
  param:(string -> int) ->
  int array ->
  int ->
  Complex.t

(** [invert_exn] is {!invert}, raising [Failure] on error. *)
val invert_exn :
  ?pc_var:string -> ?sample_sizes:int list -> ?force_numeric:bool -> Nest.t -> t
