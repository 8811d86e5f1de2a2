(** Ranking and sampled checks: what every collapse of a nest needs
    (paper §III-IV).

    An inversion carries the ranking polynomial, the trip count and,
    per level [k], the substituted ranking [r_sub.(k)]: the ranking
    with the levels below [k] set to their parametric lexicographic
    minima, a strictly monotone function of [ik] on the iteration
    interval. The runtime ({!Recovery.recover}) recovers every non-last
    level as the largest [v] with [r_sub.(k) (prefix, v) <= pc], by a
    float-seeded exact search, and the innermost one by an exact
    integer formula; so nothing here selects a closed-form root. The
    paper's radical roots, which only the C printers need, are
    {!Closed_form}.

    {!invert} checks the polynomials on sampled concrete instances: at
    each sample the ranking must give the enumerated points the ranks
    [1..n] in order, and the trip count must be [n]. Ehrhart sums hold
    only where every level range is non-empty or exactly empty, and
    these checks are how a nest outside that model is refused rather
    than run. *)

module P = Polymath.Polynomial

type t = {
  nest : Nest.t;
  pc_var : string;
  ranking : P.t;
  trip_count : P.t;  (** in the parameters only *)
  r_sub : P.t array;
      (** [r_sub.(k)] is the ranking with levels > k at their tail
          minima: the rank of the first iteration with a given
          [i0..ik] prefix. The monotone functions {!Recovery.recover}
          searches, and the polynomials whose roots are the paper's
          closed forms. *)
}

type error =
  | No_samples  (** every sampled parameter valuation gave an empty nest *)
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
  | Trip_mismatch of { size : int; points : int; trip : Zmath.Rat.t }
      (** the sample's points are ranked 1..[points] in order, but the
          trip count polynomial gives [trip]: rows of negative extent
          that come last in the order shift no rank, only the total *)

val error_to_string : error -> string

(** Concrete instances of a nest: one parameter valuation and its
    points in enumeration order, so the point at list position [n]
    has rank [n + 1]. *)
type sample = { param : string -> int; points : int array list }

(** [samples ?sample_sizes inv] enumerates the nest at each sample
    size within a 4000-point budget (each sample assigns parameter number
    [i] the value [size + 3*i]; default sizes [[3; 4; 6]]) and checks
    the ranks and the trip count of every non-empty one.
    @return the samples, in size order, or the first failed check;
    [No_samples]/[Sample_budget] when none is left. *)
val samples : ?sample_sizes:int list -> t -> (sample list, error) result

(** [invert ?pc_var ?sample_sizes nest] computes the ranking, the trip
    count and the substituted rankings, then checks them on the
    {!samples} of a nest of depth >= 2 (a single level is its own
    exact formula). [pc_var] (default ["pc"]) names the collapsed
    index.
    @raise Invalid_argument when [pc_var] is a level variable or a
    parameter of the nest. *)
val invert : ?pc_var:string -> ?sample_sizes:int list -> Nest.t -> (t, error) result

(** [invert_exn] is {!invert}, raising [Failure] on error. *)
val invert_exn : ?pc_var:string -> ?sample_sizes:int list -> Nest.t -> t
