(** Symbolic scalar expressions with rational powers.

    The closed-form roots of ranking polynomials (paper §IV) live here:
    nested radicals like
    [(sqrt(243 pc^2 - 486 pc + 242)/3^(3/2) + 3 pc - 3)^(1/3) + ... ].
    Expressions may evaluate through complex intermediates even when the
    final value is real (paper §IV-C), so the numeric evaluator works
    over complex doubles, exactly like the generated C code uses
    [csqrt]/[cpow]/[creal]. *)

module Q = Zmath.Rat

type t =
  | Const of Q.t
  | I  (** the imaginary unit *)
  | Var of string
  | Sum of t list
  | Prod of t list
  | Pow of t * Q.t  (** rational exponent: 1/2 = sqrt, 1/3 = cbrt, -1 = inverse *)

val zero : t
val one : t
val of_int : int -> t
val of_rat : Q.t -> t
val var : string -> t

(** Smart constructors: flatten nested sums/products and fold literal
    constants (they do not attempt algebraic simplification beyond
    that). *)

val add : t -> t -> t
val sum : t list -> t
val neg : t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val prod : t list -> t
val div : t -> t -> t
val pow : t -> Q.t -> t
val sqrt : t -> t
val cbrt : t -> t
val inv : t -> t

(** [of_poly p] converts a polynomial to an expression. *)
val of_poly : Polymath.Polynomial.t -> t

(** [subst x e' e] substitutes [e'] for variable [x]. *)
val subst : string -> t -> t -> t

val free_vars : t -> string list

(** [compile_complex ~slot e] stages [e] for repeated numeric
    evaluation over complex doubles: [slot] maps each variable of [e]
    to an index of the argument array, which holds the variables'
    values. Constants are converted once. [0^0 = 1] and [0^negative]
    is infinite, matching C's [cpow] conventions closely enough for
    root evaluation.
    @raise Invalid_argument (from [slot]) on unmapped variables. *)
val compile_complex : slot:(string -> int) -> t -> Complex.t array -> Complex.t

(** [eval_complex env e] evaluates [e] once: {!compile_complex} with
    the values [env] gives its free variables. *)
val eval_complex : (string -> Complex.t) -> t -> Complex.t

(** [contains_fractional_pow e] is true when some exponent in [e] is
    not an integer — the signal that evaluation may transit through
    complex values and C emission must use [complex.h] functions unless
    the radicand is provably a real square root (see
    {!Cemit.classify}). *)
val contains_fractional_pow : t -> bool

val equal : t -> t -> bool

(** [to_string e] is a readable math-style rendering. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
