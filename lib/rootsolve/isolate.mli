(** Certified numeric root isolation over exact rationals.

    {!Solver} stops at degree 4: Ferrari is the last closed form. This
    module lifts the cap for index recovery, which never needed the
    radical expression in the first place — only the unique integer
    below the root. The level equations the collapser inverts are
    strictly monotone on the iteration interval (their derivative is a
    positive combination of trip counts; see the invariant families of
    Humenberger–Jaroschek–Kovács in PAPERS.md), so the real root in
    [[lo, hi)] is unique and an enclosure [(lo, hi)] with
    [sign (p lo) <> sign (p hi)] and width < 1 identifies it exactly.

    Everything here is exact {!Zmath.Rat} arithmetic except
    {!float_root}, the deliberately uncertified float shadow used to
    seed the integer bracketing in [Recovery]. *)

module Q = Zmath.Rat

(** Dense univariate polynomial: [p.(k)] is the coefficient of [x^k]. *)
type poly = Q.t array

(** Degree with zero coefficients dropped; [-1] for the zero polynomial. *)
val degree : poly -> int

(** Exact Horner evaluation. *)
val eval : poly -> Q.t -> Q.t

val derivative : poly -> poly

(** Descartes' count: sign variations of the coefficient sequence —
    an upper bound (of matching parity) on the positive real roots. *)
val sign_variations : poly -> int

(** [variations_on p ~lo ~hi] is the Descartes bound on the roots in
    the open interval [(lo, hi)], computed by the Möbius transform
    [(1+x)^n * p((lo + hi*x)/(1+x))] (Vincent–Collins–Akritas). [0]
    certifies no root; [1] certifies exactly one. *)
val variations_on : poly -> lo:Q.t -> hi:Q.t -> int

type enclosure = {
  enc_lo : Q.t;
  enc_hi : Q.t;
  exact : bool;  (** the root is rational and [enc_lo = enc_hi] *)
  newton_steps : int;
  bisect_steps : int;
}

type error =
  | Zero_polynomial
  | No_root of { variations : int }
      (** endpoint signs agree and the Descartes count on the interval
          is zero: certified root-free *)
  | Not_isolating of { variations : int }
      (** subdivision exhausted without finding a sign change: the
          interval is not an isolating interval for a single simple
          root (the monotonicity precondition does not hold) *)

val error_to_string : error -> string

(** [isolate ?max_width p ~lo ~hi] returns a certified enclosure of
    the unique root of [p] in [[lo, hi]]: on success either [exact]
    (a rational root, [enc_lo = enc_hi]) or a bracket with
    [sign (p enc_lo) <> sign (p enc_hi)] and
    [enc_hi - enc_lo < max_width] (default 1). Refinement interleaves
    interval-Newton steps (dyadically rounded to keep the rationals
    small) with bisection; bisection alone already guarantees
    termination, Newton makes the tail quadratic. *)
val isolate : ?max_width:Q.t -> poly -> lo:Q.t -> hi:Q.t -> (enclosure, error) result

(** [integer_root p e] is the floor of the root of [p] isolated by [e]
    — the recovered loop index. A width-<1 bracket pins the floor to
    [floor enc_lo] or [floor enc_hi]; one exact evaluation at the
    boundary integer decides between them. [None] when the bracket is
    wider than 1 (a [max_width] above the default was requested). *)
val integer_root : poly -> enclosure -> Zmath.Bigint.t option

(** Uncertified float shadow of {!isolate}: a safeguarded
    Newton–bisection hybrid over the float image of the coefficients.
    Returns a point close to the root of [c] in [[lo, hi]] — the seed
    for [Recovery]'s exact integer bracketing, never a result to trust
    on its own. Always returns a finite value inside [[lo, hi]]. *)
val float_root : float array -> lo:float -> hi:float -> float
