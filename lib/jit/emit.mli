(** C source generation for plan-specialized shared objects.

    [source inv ~fingerprint] emits a self-contained C translation
    unit specializing the inversion's recovery functions, bound
    steppers and collapsed checksum loop, built on the
    {!Codegen.C_ast} / {!Codegen.C_print} machinery and
    {!Symx.Cemit.emit_poly_int}'s exact scaled-integer polynomial
    forms. All arithmetic is [int64] — no floating point anywhere —
    and the recovery is the per-level binary search of
    {!Trahrhe.Recovery.recover_binsearch}, so results are bit-for-bit
    identical to the interpreted pipelines (int64 wraparound truncated
    to OCaml's 63-bit ints agrees with native-int wraparound, and the
    emitter is only used on nests that passed the overflow-headroom
    check).

    Exported symbols (the ABI, version {!Abi.version}):
    - [ompsim_abi], [ompsim_fingerprint], [ompsim_depth],
      [ompsim_params] — identity, checked at load;
    - [ompsim_trip(P)] — trip count under the canonical parameter
      vector [P];
    - [ompsim_recover(P, pc, idx)] — exact index recovery of rank
      [pc];
    - [ompsim_walk_hash(P, pc, len)] — one recovery + incremental
      walk accumulating the collapsed checksum over [len] ranks;
    - [ompsim_reduce_sum(P, pc, len)] — the same walk accumulating the
      nest's reduction value (0 when the nest carries no clause).

    The inversion must be a canonical plan ([x0..], [p0..]): any
    variable that is not an emittable C identifier is rejected with
    [Error]. *)

val source : Trahrhe.Inversion.t -> fingerprint:string -> (string, string) result
