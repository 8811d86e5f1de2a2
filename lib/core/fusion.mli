(** Fusing loop nests of different shapes into one parallel loop
    (paper §IX: "the fusion of loop nests of different shapes").

    Given nests with trip counts T1, T2, ..., the fused loop runs
    [pc = 1 .. T1 + T2 + ...]; iteration [pc] executes segment [s] —
    the first with [offset_s < pc <= offset_s + T_s] — at the segment's
    local rank [pc - offset_s]. Each fused iteration belongs to exactly
    one original nest, so collapsing the fusion load-balances the
    concatenated work across threads in a single parallel region
    (instead of one fork/join per nest).

    Segments must be pairwise independent (no dependences across or
    inside them), as for ordinary collapsing. *)

type t

type segment = {
  index : int;  (** position in the fusion *)
  inversion : Inversion.t;
  offset : Polymath.Polynomial.t;
      (** sum of the preceding trip counts (in the parameters) *)
}

(** [fuse invs] builds the fusion, in the given order.
    @raise Invalid_argument on an empty list or mismatched pc
    variables. *)
val fuse : Inversion.t list -> t

val segments : t -> segment list

(** [total_trip t] is the fused trip count polynomial. *)
val total_trip : t -> Polymath.Polynomial.t

(** [locate t ~param pc] is [(segment, local_pc)] for a fused rank.
    @raise Invalid_argument when [pc] is out of range. *)
val locate : t -> param:(string -> int) -> int -> segment * int

(** [recover t ~param pc] recovers the executing segment and its
    original indices ({!Recovery.recover}). *)
val recover : t -> param:(string -> int) -> int -> int * int array

(** [iter t ~param f] drives [f segment_index idx] over the fused
    range in order, one segment after the other, by incrementation.
    C generation lives in {!Codegen.Xforms.fused}. *)
val iter : t -> param:(string -> int) -> (int -> int array -> unit) -> unit
