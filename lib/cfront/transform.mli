(** The source-to-source tool: rewrite C files in which non-rectangular
    nests carry an OpenMP [collapse] clause.

    OpenMP itself rejects [collapse] on non-rectangular loops; like the
    paper's tool, this front-end treats the clause as the user's
    request and replaces the construct with a legally collapsed single
    loop embedding the index recovery. Rectangular nests are left
    untouched (OpenMP handles them natively). *)

type scheme =
  | Naive  (** recovery at every iteration (paper Fig. 3) *)
  | Per_thread  (** once per thread + incrementation (Fig. 4, default) *)
  | Chunked of int  (** once per static chunk (§V) *)
  | Simd of int  (** §VI-A with the given vector length *)

type options = {
  scheme : scheme;
  paper : bool;
      (** print the paper's closed forms with a raw [floor] (§IV), which
          rounding can put off by one, instead of the exact recovery *)
  counter_ty : string;
}

val default_options : options

type region = {
  pragma_start : int;  (** byte offset of [#pragma] *)
  body_end : int;  (** byte offset one past the construct *)
  collapse : int;
  nest : Trahrhe.Nest.t;  (** after stride normalization *)
  body : string;  (** body statement text, braces stripped *)
  reconstruct : (string * Polymath.Affine.t) list;
      (** original strided iterators rebuilt from surrogate iterators
          (empty for unit-stride nests) *)
}

(** [find_regions source] locates every
    [#pragma omp ... for ... collapse(n)] construct whose [n]
    outermost loops are perfectly nested and non-rectangular, parsing
    them into the nest model.
    @raise Failure on malformed constructs. *)
val find_regions : string -> region list

(** [transform_source ?options source] rewrites every non-rectangular
    collapsed region of [source]; returns the new text and the number
    of transformed constructs. In paper mode the headers the printed
    closed forms need ([<math.h>], [<complex.h>]) are included once at
    the top; the default recovery needs none.
    @raise Failure when a region's nest does not invert, when its
    constants overflow the counter ({!Codegen.Schemes.fits_counter}),
    or in paper mode when its closed forms do not select. *)
val transform_source : ?options:options -> string -> string * int

(** [transform_file ?options ~input ~output ()] is {!transform_source}
    over files. Returns the number of transformed constructs. *)
val transform_file : ?options:options -> input:string -> output:string -> unit -> int
