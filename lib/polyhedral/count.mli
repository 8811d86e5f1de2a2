(** Ehrhart counting for nest-form iteration domains.

    A nest-form domain is a chain of levels, each with one affine lower
    and one affine upper bound (both inclusive here) that may mention
    outer level variables and free parameters — exactly the loop model
    of the paper's Fig. 5 after normalizing strict bounds. For such
    domains the number of integer points is an honest polynomial in the
    parameters (no quasi-periodic part), obtained by summing 1 through
    the levels innermost-first with {!Polymath.Summation}. This replaces
    the ISL/barvinok dependency of the original tool. *)

type level = {
  var : string;
  lo : Polymath.Affine.t;  (** inclusive lower bound *)
  hi : Polymath.Affine.t;  (** inclusive upper bound *)
}

(** [count levels] is the polynomial in the free parameters equal to
    the number of integer points, assuming every level's range is
    nonempty or exactly empty at the boundary ([hi = lo - 1]); see
    {!Polymath.Summation.sum} for the validity caveat. *)
val count : level list -> Polymath.Polynomial.t

(** [count_inner levels] gives, for each level k (outermost first), the
    polynomial counting the points of levels k+1.. below one fixed
    iteration of level k — i.e. the trip count of the sub-nest rooted
    just inside level k. The last element is the constant 1. *)
val count_inner : level list -> Polymath.Polynomial.t list

(** [count_with_inner levels] is [(count levels, count_inner levels)],
    summing the chain once. *)
val count_with_inner : level list -> Polymath.Polynomial.t * Polymath.Polynomial.t list

(** [to_polyhedron levels] is the constraint form of the domain. *)
val to_polyhedron : level list -> Polyhedron.t

(** [of_polyhedron p ~order ~params] converts a constraint-form domain
    (the shape ISL consumes) into nest form, eliminating variables
    innermost-first with Fourier–Motzkin and keeping, at each level,
    the single lower and single upper bound on that variable. This
    succeeds exactly for domains in the paper's Fig. 5 model; a
    variable with several independent lower (or upper) bounds — a
    domain needing [max]/[min] bounds — is reported as an error, as are
    unbounded variables. *)
val of_polyhedron :
  Polyhedron.t -> order:string list -> params:string list -> (level list, string) result

(** [enumerate levels ~param] lists all integer points (as
    [(var, value)] association lists, lexicographic order) for concrete
    parameter values; intended for validation at small sizes.
    @raise Invalid_argument if a bound evaluates to a non-integer. *)
val enumerate : level list -> param:(string -> int) -> (string * int) list list
