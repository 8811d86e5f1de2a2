(** Overflow-safe polynomial evaluation and the native-int headroom
    rule.

    A {!t} is a polynomial scaled by the LCM of its coefficient
    denominators, kept as flat terms with bigint coefficients over
    integer slots (the same slot numbering a {!Horner.t} uses). It
    evaluates exactly at any argument size. {!fits_native} decides
    whether the {!Horner} form of the same polynomials may be used
    instead: native-int evaluation is exact as long as no intermediate
    leaves 63 bits. *)

type t

(** [compile ~slot p] scales [p] to integer coefficients and maps each
    variable to its slot. *)
val compile : slot:(string -> int) -> Polynomial.t -> t

(** [eval t lookup] is the exact value, with [lookup s] as the value of
    slot [s]; the value itself must fit an [int].
    @raise Failure when it does not. *)
val eval : t -> (int -> int) -> int

(** [magnitude t mag] is [Sigma_t |c_t| * Prod_j mag.(slot_j)^e_j], an
    upper bound on the scaled polynomial over every point whose slot
    [s] has magnitude at most [mag.(s)]. *)
val magnitude : t -> Zmath.Bigint.t array -> Zmath.Bigint.t

(** [fits_native ~mag ts] is the headroom rule: with [W] the largest
    {!magnitude} among [ts], [deg] their largest total degree and [M]
    the largest entry of [mag] (at least 1), it holds iff
    [W * M * 2^(deg+1) < 2^61]. That leaves room for one Horner multiply
    past the term bound and for finite-difference tables
    ([|Delta^k f| <= 2^k max|f|]), so every Horner evaluation and
    {!Horner.Stepper} of [ts] over such points is exact. With every
    entry of [mag] at least 1, it also bounds every scaled coefficient
    inside the [int] range. *)
val fits_native : mag:Zmath.Bigint.t array -> t list -> bool
