(** C source generation for plan-specialized shared objects.

    [source inv] emits a self-contained C translation unit from
    {!Codegen.Schemes}' own emitters: the printers' exact recovery
    ({!Codegen.Schemes.recovery_stmts}, a search at every non-last
    level, then the innermost formula), and the chunk
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

    The unit includes no header (the [int64] types come from the
    compiler's [__INT64_TYPE__] / [__UINT64_TYPE__]) and carries no
    plan fingerprint: its identity is the digest of its own code, so
    plans that emit the same C share one object. The reduction
    operator is a call argument, not part of the code: one plan, and
    so one object, serves every [reduce=] op of a nest.

    Exported symbols (the ABI, version {!Abi.version}):
    - [ompsim_abi], [ompsim_fingerprint], [ompsim_depth],
      [ompsim_params] — identity, checked at load; [ompsim_fingerprint]
      answers the source's {!field-digest};
    - [ompsim_trip(P)] — trip count under the canonical parameter
      vector [P];
    - [ompsim_recover(P, pc, idx)] — exact index recovery of rank
      [pc];
    - [ompsim_walk_hash(P, pc, len)] — one recovery, then innermost
      runs accumulating the collapsed checksum over [len] ranks (the
      outer-prefix hash hoisted once per run);
    - [ompsim_reduce(P, pc, len, op)] — the same walk folding the
      nest's reduction value by [op] (0 sum, 1 min, 2 max): one
      walker whose run body branches on [op] once per run, into the
      u64 sum loop or one extremum loop ([max(sign * v)], [sign = -1]
      for min, seeded at [INT64_MIN], exact below the 2^61 headroom
      the runtime requires before it attaches an object). A stub
      answering 0 when the nest carries no clause.

    The inversion must be a canonical plan ([x0..], [p0..]): any
    variable that is not an emittable C identifier is rejected with
    [Error], as is a nest whose constants overflow [int64]
    ({!Codegen.Schemes.fits_counter}), which runs interpreted. *)

type source = {
  text : string;  (** the C translation unit *)
  digest : string;
      (** hex digest of [text] up to its [ompsim_fingerprint], which
          returns it: the object's cache key ({!Compile.so_name}) *)
}

val source : Trahrhe.Inversion.t -> (source, string) result
