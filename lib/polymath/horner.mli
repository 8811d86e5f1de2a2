(** Compiled polynomial evaluation: Horner forms and finite-difference
    stepping over native integers.

    The runtime hot path (index recovery, bound checks, incremental
    walks) evaluates ranking/bound polynomials millions of times with
    integer arguments. {!compile} lowers a {!Polynomial.t} once into a
    nested Horner form over integer "slots" (the caller maps variable
    names to slot numbers, e.g. nest level [k] -> slot [k]); {!eval}
    then runs in one multiply + one add per compiled coefficient, with
    no name lookups, no rationals and no repeated-multiplication power
    loops.

    {!Stepper} goes further for regular walks: for a fixed assignment
    of all slots but one, it tabulates forward differences of the
    polynomial along that slot, so advancing the slot by +1 updates the
    value with O(degree) integer additions and zero multiplications —
    the classical difference-engine evaluation, matching the paper's
    §V philosophy of replacing per-iteration re-computation by cheap
    incrementation.

    Exactness: the polynomial is scaled by the LCM of its coefficient
    denominators and evaluated in native [int] arithmetic; the final
    division asserts divisibility. This is exact as long as the scaled
    intermediate values fit in 63 bits — the same contract the
    recovery machinery already relies on. *)

type t

(** [compile ~slot p] lowers [p] to a Horner form. [slot] must map
    every variable of [p] to a distinct non-negative slot.
    @raise Invalid_argument (from the slot map) on unbound variables. *)
val compile : slot:(string -> int) -> Polynomial.t -> t

(** [eval t lookup] evaluates with [lookup s] as the value of slot
    [s]. The result is exact; divisibility by the denominator LCM is
    asserted. *)
val eval : t -> (int -> int) -> int

(** [degree_in_slot t s] is the degree of the compiled polynomial in
    slot [s] (0 when absent). *)
val degree_in_slot : t -> int -> int

(** [degree t] is the total degree of the compiled polynomial. *)
val degree : t -> int

module Stepper : sig
  (** A difference table for one compiled polynomial along one slot. *)
  type horner := t

  type t

  (** [make h ~slot ~start ~lookup] tabulates [h] at
      [slot = start, start+1, ..., start+d] (where [d] is the degree
      in [slot]; other slots read once through [lookup]) and converts
      to forward differences. The polynomial must be integer-valued on
      integers, which ranking/bound Ehrhart polynomials are. *)
  val make : horner -> slot:int -> start:int -> lookup:(int -> int) -> t

  (** [value st] is the polynomial's value at the stepper's current
      slot position. O(1). *)
  val value : t -> int

  (** [arg st] is the current position of the stepped slot. *)
  val arg : t -> int

  (** [step st] advances the stepped slot by +1: O(degree) integer
      additions, no multiplications. *)
  val step : t -> unit
end
