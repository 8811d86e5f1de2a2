(** Benchmark kernels: the evaluation workloads of the paper's §VII.

    The paper evaluates 9 Polybench kernels (transformed into
    non-rectangular nests by Pluto, some tiled) plus two triangular
    matrix kernels, [utma] and [ltmp]. Only correlation, covariance,
    symm (and their tiled variants), utma and ltmp are named in the
    paper; the remaining Polybench picks are reconstructed here with
    the same iteration-space families the paper lists (triangular,
    tetrahedral, trapezoidal, rhomboidal, parallelepiped) — see
    DESIGN.md.

    Each kernel carries:
    - the nest model of its collapsed loops,
    - cost generators for the Figure 9 schedule simulations (work per
      outermost iteration for the original parallelization; work per
      collapsed iteration in lexicographic order for the transformed
      one),
    - real serial OCaml implementations, original and collapsed (the
      §V per-chunk recovery scheme), for the Figure 10 overhead
      measurements. *)

type t = {
  name : string;
  description : string;
  family : string;  (** iteration-space family, e.g. "triangular" *)
  collapsed : int;  (** number of loops collapsed *)
  total_loops : int;  (** loops of the full kernel nest *)
  nest : Trahrhe.Nest.t;  (** model of the collapsed loops *)
  param_map : int -> string -> int;
      (** binds each nest parameter given the headline size [n]
          (usually every parameter is [n]; e.g. fdtd_skewed fixes its
          wavefront count) *)
  default_n : int;  (** size for Figure 9 simulations *)
  fig10_n : int;  (** size for native serial measurements *)
  outer_costs : n:int -> float array;
      (** cost of each outermost-loop iteration (work units) *)
  collapsed_costs : n:int -> float array;
      (** cost of each collapsed iteration, lexicographic order *)
  serial_original : n:int -> float;
      (** run the real kernel serially; returns a checksum *)
  serial_collapsed : n:int -> recoveries:int -> float;
      (** run the collapsed form serially with [recoveries] closed-form
          recoveries spread over the pc range (§V); returns the same
          checksum *)
}

(** [param_of t ~n] is the parameter valuation of [t.nest] at headline
    size [n] (via [t.param_map]). *)
val param_of : t -> n:int -> string -> int

(** [inversion t] is the kernel's (lazily cached) inversion; the
    figures select its closed forms with {!Trahrhe.Closed_form.select}. *)
val inversion : t -> Trahrhe.Inversion.t

(** [recovery t ~n] is the runtime recovery compiled at size [n]. *)
val recovery : t -> n:int -> Trahrhe.Recovery.t

(** [chunk_starts ~trip ~recoveries] splits [1..trip] into [recoveries]
    balanced chunks and lists their starting pc values. *)
val chunk_starts : trip:int -> recoveries:int -> (int * int) list
(** ... as [(start_pc, len)] pairs. *)

(** [register k] adds a kernel to the global registry (done by each
    kernel module at link time). *)
val register : t -> t

(** [all ()] lists registered kernels in registration order. *)
val all : unit -> t list

(** [find name] looks a kernel up by name. *)
val find : string -> t option
