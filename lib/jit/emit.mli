(** C source generation for plan-specialized shared objects.

    [source inv ~fingerprint] emits a self-contained C translation
    unit from {!Codegen.Schemes}' own emitters: the printers' exact
    recovery ({!Codegen.Schemes.recovery_stmts}, a search at every
    non-last level, then the innermost formula), and the chunk
    walkers step from row to row with the empty-row-safe carry
    ({!Codegen.Schemes.carry_stmts}) — the same C the paper schemes
    run. The canonical names ([p0..], [x0..], [pc]) become C locals
    bound from the ABI's arrays. All arithmetic is [int64]
    ({!Symx.Cemit.emit_poly_int}'s exact scaled-integer forms, no
    floating point), so results are bit-for-bit those of
    {!Trahrhe.Recovery.recover} and the interpreted walks
    (int64 wraparound truncated to OCaml's 63-bit ints agrees with
    native-int wraparound, and the emitter is only used on nests that
    passed the overflow-headroom check).

    Exported symbols (the ABI, version {!Abi.version}):
    - [ompsim_abi], [ompsim_fingerprint], [ompsim_depth],
      [ompsim_params] — identity, checked at load;
    - [ompsim_trip(P)] — trip count under the canonical parameter
      vector [P];
    - [ompsim_recover(P, pc, idx)] — exact index recovery of rank
      [pc];
    - [ompsim_walk_hash(P, pc, len)] — one recovery, then innermost
      runs accumulating the collapsed checksum over [len] ranks (the
      outer-prefix hash hoisted once per run);
    - [ompsim_reduce_sum(P, pc, len)] — the same walk accumulating the
      nest's reduction value (0 when the nest carries no clause).

    The inversion must be a canonical plan ([x0..], [p0..]): any
    variable that is not an emittable C identifier is rejected with
    [Error], as is a nest whose constants overflow [int64]
    ({!Codegen.Schemes.fits_counter}), which runs interpreted. *)

val source : Trahrhe.Inversion.t -> fingerprint:string -> (string, string) result
