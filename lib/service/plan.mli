(** A compiled, serializable collapse plan.

    A plan is the {!Trahrhe.Inversion.t} of one {e canonical} nest
    (see {!Fingerprint.canonicalize}): ranking and trip-count
    polynomials and the substituted rankings, checked on samples —
    everything the runtime ({!Trahrhe.Recovery.make}) and the native
    tier need, so a cache hit skips the whole ranking/inversion
    pipeline. It carries no closed-form root: only the C printers
    select one ({!Trahrhe.Closed_form}). The codec round-trips exactly
    (bigint-backed rationals travel as decimal text). *)

type t = {
  fingerprint : string;  (** {!Fingerprint.hash} of the canonical nest *)
  inversion : Trahrhe.Inversion.t;  (** over the canonical nest *)
}

(** [store_dir ()] is the on-disk plan store named by the
    [OMPSIM_PLAN_CACHE] environment variable, shared by the plan cache
    ({!Cache}) and the native tier ({!Native}); unset or empty is no
    store. *)
val store_dir : unit -> string option

(** [make ~fingerprint inversion] is the plan of [inversion], whose
    nest must have the digest [fingerprint]. *)
val make : fingerprint:string -> Trahrhe.Inversion.t -> t

(** Wire format version, equal to {!Fingerprint.format_version}; a
    decoded plan with any other version is rejected. *)
val format_version : int

(** [compile canonical_nest] runs the symbolic pipeline (ranking,
    trip count, substituted rankings, sampled checks:
    {!Trahrhe.Inversion.invert}) under a [service.compile] span.
    The nest must already be canonical — {!Cache.find_or_compile}
    guarantees that; compiling a non-canonical nest yields a plan
    whose fingerprint no alpha-equivalent request would ever look up. *)
val compile : Trahrhe.Nest.t -> (t, string) result

(** [encode p] is the one-line wire form. *)
val encode : t -> string

(** [decode s] parses and validates: sexp shape, format version, and
    agreement between the stored fingerprint and the re-computed hash
    of the embedded nest (a renamed or bit-rotted cache file is a
    decode error, which the cache treats as a miss). *)
val decode : string -> (t, string) result

(** [recovery p ~param] specializes the plan to concrete parameter
    values. [param] is keyed by the {e canonical} parameter names —
    lift a caller-side valuation with {!Fingerprint.canonical_param}. *)
val recovery : t -> param:(string -> int) -> Trahrhe.Recovery.t

(** [equal a b] is structural equality over every serialized field —
    the round-trip property the codec tests check. *)
val equal : t -> t -> bool
