(** Ranking Ehrhart polynomials (paper §III).

    The ranking polynomial [r(i1..ic)] of a nest maps each iteration to
    its 1-based lexicographic rank; it is a bijection onto
    [1 .. trip_count] and is monotonically increasing w.r.t. the
    lexicographic order of the indices. It is computed by splitting the
    lexicographic-order condition into a union of disjoint nest-form
    polyhedra and summing their Ehrhart polynomials — here via exact
    Bernoulli–Faulhaber summation. *)

module P = Polymath.Polynomial

(** [ranking n] is the ranking polynomial over the nest's iterators
    and parameters. *)
val ranking : Nest.t -> P.t

(** [trip_count n] is the total number of iterations as a polynomial in
    the parameters — the collapsed loop's upper bound. *)
val trip_count : Nest.t -> P.t

(** [ranking_and_trip n] is [(ranking n, trip_count n)], computing the
    inner-count summations both share once. *)
val ranking_and_trip : Nest.t -> P.t * P.t

(** [rank_at n ~param idx] evaluates the ranking polynomial exactly at
    a concrete iteration (for tests and exact recovery). *)
val rank_at : Nest.t -> param:(string -> int) -> int array -> Zmath.Bigint.t
