(** Brute-force validation of the collapsing pipeline.

    These checks enumerate an entire concrete iteration domain and
    verify, iteration by iteration, every invariant the transformation
    relies on. They are the correctness backbone of the test suite and
    are also exposed through the CLI ([trahrhe validate]). *)

type report = {
  iterations : int;  (** points enumerated *)
  trip_count_ok : bool;  (** polynomial trip count = enumeration size *)
  ranking_bijective : bool;  (** ranks are exactly 1..trip_count in order *)
  closed_form_ok : int;
      (** iterations recovered exactly by the paper's raw closed forms
          ({!Closed_form}), the recovery [collapse] emits by default *)
  recover_ok : int;  (** ... by the runtime's {!Recovery.recover} *)
  increment_ok : bool;  (** §V incrementation walks the domain in order *)
}

(** [check forms ~param] enumerates the domain under concrete
    parameter values and exercises ranking, the closed-form reference
    [forms], the runtime recovery of their inversion and
    incrementation on every iteration. *)
val check : Closed_form.t -> param:(string -> int) -> report

(** [all_ok r] means every invariant held on every iteration. *)
val all_ok : report -> bool

(** [raw_floor_ok r] is {!all_ok} minus the raw closed-form criterion —
    useful at sizes where plain [floor] is expected to suffer float
    rounding while {!Recovery.recover} must still be exact. *)
val raw_floor_ok : report -> bool

val pp : Format.formatter -> report -> unit
