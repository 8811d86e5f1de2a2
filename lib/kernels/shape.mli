(** Helpers shared by the kernel definitions. *)

module A = Polymath.Affine

(** [aff terms c] is the affine expression [sum k*v + c] from integer
    coefficients. *)
val aff : (string * int) list -> int -> A.t

(** [init_mat n f] is an [n*n] row-major float array with
    [f row col]. *)
val init_mat : int -> (int -> int -> float) -> float array

(** [checksum a] is a position-weighted sum, stable under evaluation
    order, used to compare original vs collapsed kernel runs. *)
val checksum : float array -> float

(** [run_collapsed rc ~trip ~recoveries body] drives the §V collapsed
    serial execution: split [1..trip] into [recoveries] chunks, do one
    costly recovery per chunk, then advance indices by
    incrementation; [body] receives the index array valid for that
    iteration. *)
val run_collapsed :
  Trahrhe.Recovery.t -> trip:int -> recoveries:int -> (int array -> unit) -> unit
