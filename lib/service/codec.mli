(** Exact {!Sexp} codecs for the values a compiled plan carries.

    Every [of_*] / [to_*] pair round-trips exactly: rationals travel as
    decimal text (no float transit anywhere), polynomials as canonical
    term lists. Decoders raise {!Error} on any malformed input;
    {!Plan.decode} is the single entry point that catches it and turns
    corrupt data into an [Error] result. *)

exception Error of string

val of_rat : Zmath.Rat.t -> Sexp.t
val to_rat : Sexp.t -> Zmath.Rat.t

val of_int_sexp : int -> Sexp.t
val to_int_sexp : Sexp.t -> int

val of_poly : Polymath.Polynomial.t -> Sexp.t
val to_poly : Sexp.t -> Polymath.Polynomial.t

val of_nest : Trahrhe.Nest.t -> Sexp.t

(** [to_nest s] rebuilds through {!Trahrhe.Nest.make}, so a decoded
    nest re-passes model validation (raises {!Error} otherwise). *)
val to_nest : Sexp.t -> Trahrhe.Nest.t

val of_inversion : Trahrhe.Inversion.t -> Sexp.t
val to_inversion : Sexp.t -> Trahrhe.Inversion.t
