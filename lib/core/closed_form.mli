(** The paper's closed-form index recovery (§IV, Figures 3/7): what
    the C printers emit in paper mode ([collapse --paper],
    {!Codegen.Schemes.config}[.paper]), and nothing the runtime or the
    default printed C evaluates.

    For each non-last level [k] the index is a root of
    [r_sub.(k) (prefix, ik) - pc = 0] ({!Inversion.t}), univariate in
    [ik]. Up to degree 4 the roots are radical closed forms; among the
    symbolic candidates, {!select} keeps the one whose floor reproduces
    the index on every sampled iteration — never by its real/complex
    type (paper §IV-C) — preferring a real-emittable, then a smaller
    expression. Above degree 4 there is no radical closed form: the
    level is {!Numeric}, printed as the same exact search the default
    output uses at every non-last level. The innermost level is an
    exact integer polynomial ({!Inversion.innermost}).

    {!make} evaluates the selection as the paper-mode C does: each
    [Root] level floors the real part of its complex root with no
    correction. Raw [floor] can miss the index by one where floating
    rounding lands on the wrong side of an integer, so this is a
    reference: {!Validate} counts its exact recoveries against
    enumeration, and the benches time it next to {!Recovery.recover},
    the exact recovery every runtime caller and the default printed C
    use. *)

type level =
  | Root of {
      var : string;
      expr : Symx.Expr.t;  (** closed-form root; floor it to get the index *)
      mode : Symx.Cemit.mode;  (** how the generated C must evaluate it *)
    }
      (** a non-last level of degree <= 4 *)
  | Last of { var : string; poly : Polymath.Polynomial.t }
      (** innermost level: an exact integer polynomial in the prefix
          indices and [pc] *)
  | Numeric of { var : string; r_sub_index : int }
      (** no radical closed form (degree > 4): the index is the largest
          [v] with [r_sub.(r_sub_index) (prefix, v) <= pc] *)

type t = {
  inversion : Inversion.t;
  levels : level array;  (** one per level, outermost first *)
}

type error =
  | Inversion of Inversion.error  (** {!Inversion.invert} refused the nest *)
  | No_valid_root of { var : string; candidates : int }
      (** no symbolic candidate reproduced the sampled iterations *)

val error_to_string : error -> string

(** [select ?sample_sizes inv] selects a recovery per level,
    enumerating the nest's {!Inversion.samples} again for the levels
    that have candidate roots. *)
val select : ?sample_sizes:int list -> Inversion.t -> (t, error) result

(** [select_exn] is {!select}, raising [Failure] on error. *)
val select_exn : ?sample_sizes:int list -> Inversion.t -> t

(** [invert ?pc_var ?sample_sizes nest] is {!Inversion.invert}
    followed by {!select}. *)
val invert : ?pc_var:string -> ?sample_sizes:int list -> Nest.t -> (t, error) result

(** [invert_exn] is {!invert}, raising [Failure] on error. *)
val invert_exn : ?pc_var:string -> ?sample_sizes:int list -> Nest.t -> t

(** [pp] prints one line per level: [i = floor(...)   [real]], the
    innermost [\[exact\]] polynomial, or the search of a {!Numeric}
    level. *)
val pp : Format.formatter -> t -> unit

(** The selected recoveries staged under concrete parameter values. *)
type evaluator

(** [make t ~param] stages the roots of [t] under the parameter values
    [param].
    @raise Invalid_argument as {!Recovery.make} does. *)
val make : t -> param:(string -> int) -> evaluator

(** [recover e pc] recovers the indices of rank [pc] by the closed
    forms, into a fresh array. *)
val recover : evaluator -> int -> int array
