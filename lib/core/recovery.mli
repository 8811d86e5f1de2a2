(** Runtime index recovery — the OCaml analogue of the code the tool
    generates in C.

    A {!t} is an inversion specialized to concrete parameter values.
    {!make} compiles every ranking, substituted ranking, bound and
    clause-value polynomial once into two evaluators: a native-int
    Horner form ({!Polymath.Horner}, with finite-difference steppers)
    for the hot path, and an exact bigint form for overflow-safe mode
    (below). One evaluator picks between them per recovery.

    {b One recovery.} {!recover} is the only index recovery, whatever
    the plan's level kinds. The innermost level has an exact integer
    formula, [lb + pc - rank_prefix(lb)]. Every other level is the
    largest [v] with [rank_prefix v <= pc]: a float Newton seed from
    the level's univariate ranking coefficients, certified by exact
    galloping and binary probes of that monotone polynomial. So every
    index is exact at any size, and no closed form is evaluated at
    runtime. The paper's closed forms (Figures 3/7), evaluated with a
    raw floating [floor] as the paper-mode C does, are {!Closed_form}:
    the reference {!Validate} compares this recovery against.

    {b One chunk engine.} Every chunk entry point — {!walk},
    {!walk_hash}, {!walk_lanes}, {!recover_block}, {!walk_reduce_int},
    {!walk_reduce_rat} — is a payload over one private engine: the
    paper's §V scheme of one {!recover} at the chunk's first
    rank, then a carry over cached per-level bounds (difference-table
    steppers, or re-evaluated bigint polynomials in overflow-safe mode)
    that hands the chunk out as innermost runs — a fixed outer prefix
    plus an interval of the inner index — and never stands on an empty
    row. {!walk_hash} and {!walk_reduce_int} fold whole runs; a
    per-iteration adapter serves {!walk} and {!walk_reduce_rat}, and a
    lane adapter packs runs into §VI-A lockstep blocks. One
    instrumentation wrapper records every entry's counters and span. A native backend
    ({!attach_native}) replaces a whole chunk of {!walk_hash} or of
    {!walk_reduce_int} with one call into the specialized object.
    {!increment} is the same §V step as a standalone primitive.

    {b Overflow-safe mode.} The Horner forms are exact only while
    their scaled intermediates fit 63 bits. {!make} precomputes
    a per-nest threshold from the polynomial coefficients (an
    inductive magnitude bound per index level, then a worst-case
    intermediate bound — derivation in DESIGN.md); when the bound
    reaches the native range the recovery flips to overflow-safe mode
    ({!overflow_guarded}): every evaluation routes through the bigint
    forms, so {!recover}'s probes stay exact, and the engine
    re-evaluates bounds instead of stepping difference tables — slower, but exact instead of
    silently wrapped. The [recovery.bigint_fallback] counter records
    both the {!make} detection and each chunk routed through the safe
    path.

    A {!t} is immutable after {!make}: all recovery and bound queries
    are safe to call concurrently from multiple domains (the parallel
    executors hand the same value to every worker). *)

type t

(** A native execution backend: the operations a plan-specialized
    shared object provides, already bound to this recovery's parameter
    values. [n_walk_hash ~pc ~len] is the whole checksum reduction of
    {!walk_hash} in one call; [n_recover ~pc idx] writes the recovered
    indices of rank [pc] into [idx]; [n_reduce op ~pc ~len] is the
    whole {!walk_reduce_int} of [op] ([Sum], [Min] or [Max]; never
    called with [Prod]) in one call (the shared object always exports
    the symbol — it returns 0 when the plan's nest carries no clause,
    and is only routed to when it does). All three must agree
    bit-for-bit with the interpreted implementations — the QCheck
    oracle checks this on random nests. *)
type native = {
  n_walk_hash : pc:int -> len:int -> int;
  n_recover : pc:int -> int array -> unit;
  n_reduce : Nest.red_op -> pc:int -> len:int -> int;
}

(** [attach_native t nat] returns a recovery that routes {!walk_hash}
    and every {!walk_reduce_int} ([Sum], [Min], [Max]) through the
    native backend (every other entry point stays interpreted, and
    {!walk_reduce_int}'s argument checks run before the routing).
    Refused (returns [t] unchanged) on an {!overflow_guarded}
    recovery: the specialized int64 C would wrap exactly where the
    bigint path is required, so overflow mode stays interpreted.
    Callers detect the refusal with {!native_enabled} and count it as
    a jit fallback. *)
val attach_native : t -> native -> t

(** [native_enabled t] is [true] when a native backend is attached. *)
val native_enabled : t -> bool

(** [native_recover t pc] recovers rank [pc]'s indices through the
    native backend ([None] when none is attached) — the probe the
    differential tests compare against {!recover}. *)
val native_recover : t -> int -> int array option

(** [make inv ~param] specializes an inversion to parameter values,
    compiling each polynomial role once into its Horner and bigint
    forms and deciding {!overflow_guarded} from their coefficients.
    @raise Invalid_argument when a needed parameter is missing, or the
    trip count is negative or exceeds the native int range. *)
val make : Inversion.t -> param:(string -> int) -> t

val depth : t -> int

(** [overflow_guarded t] is [true] when {!make}'s coefficient analysis
    found that native-int intermediates could wrap at this nest size,
    so every evaluation goes through the exact bigint path. *)
val overflow_guarded : t -> bool

(** [trip_count t] is the total number of collapsed iterations. *)
val trip_count : t -> int

(** [rank t idx] is the exact 1-based rank of iteration [idx]. *)
val rank : t -> int array -> int

(** [rank_prefix t ~level v prefix] is the exact rank of the first
    iteration whose indices up to [level] are [prefix.(0..level-1), v]
    — the monotone function {!recover} searches. *)
val rank_prefix : t -> level:int -> int -> int array -> int

(** [lower_bound t ~level prefix] (resp. {!upper_bound}) evaluates the
    level's inclusive lower (exclusive upper) bound under [prefix]. *)
val lower_bound : t -> level:int -> int array -> int

val upper_bound : t -> level:int -> int array -> int

(** [recover t pc] recovers the indices of rank [pc] exactly, into a
    fresh array: each level's index is the [v] with
    [rank_prefix v <= pc < rank_prefix (v+1)] (see the header). Bumps
    [inversion.numeric] once per searched (non-last) level and
    [inversion.closed_form] once for the innermost formula. *)
val recover : t -> int -> int array

(** [isolate_level t idx ~pc ~level] is the certified rational
    enclosure of the level equation's root, [None] on the innermost
    level, whose exact formula has no root to isolate. [idx] must hold
    the recovered prefix for levels [< level]. Diagnostic and bench surface: the enclosure width and
    iteration counts are what [exec --report] and [micro-invert]
    print; the hot path proves the same index with integer probes. *)
val isolate_level :
  ?max_width:Zmath.Rat.t ->
  t ->
  int array ->
  pc:int ->
  level:int ->
  (Rootsolve.Isolate.enclosure, Rootsolve.Isolate.error) result option

(** Cumulative per-level recovery counters (all recoveries in this
    process, across every plan), as recorded by the
    [inversion.numeric] / [inversion.closed_form] metrics: the levels
    {!recover} searched, and the innermost exact formulas it
    evaluated. *)
val numeric_recoveries : unit -> int

val closed_form_recoveries : unit -> int

(** [increment t idx] advances [idx] in place to the next iteration in
    lexicographic order, recomputing inner lower bounds as the original
    nest would (§V incrementation) and skipping empty rows at every
    level; returns [false] when [idx] was the last iteration. *)
val increment : t -> int array -> bool

(** [first t] is the first iteration (the nest's lexicographic
    minimum).
    @raise Failure when the domain is empty. *)
val first : t -> int array

(** [walk t ~pc ~len f] performs ONE costly recovery at the 1-based
    collapsed index [pc] and then visits the next [len] iterations in
    lexicographic order, calling [f idx] on each (stopping early at the
    end of the iteration space). This is the §V per-chunk scheme as a
    library routine: the engine hands out innermost runs over cached
    bounds, [f] is called once per iteration of each run, and a carry
    at level [k] updates level [k+1]'s bounds by difference tables
    instead of re-evaluating their polynomials. Empty rows are skipped,
    at every level.

    [f] receives the walker's internal index array; it must not retain
    or mutate it.

    Every chunk entry point ({!walk}, {!walk_hash}, {!walk_lanes},
    {!recover_block}, {!walk_reduce_int}, {!walk_reduce_rat}) records
    the same ledger per call: [recovery.walks] +1,
    [recovery.iterations] + the iterations actually visited, and
    [jit.hit] +1 when the native backend served the chunk. When the
    observability layer is on ({!Obsv.Control.enabled}) the call also
    gets a [recovery.walk] trace span and, on the interpreted engine,
    the [recovery.recover_ns] (the one recovery) vs [recovery.step_ns]
    (the stepping) time split. With the layer off, the cost over
    {!walk_uninstrumented} is the counter writes and one flag check
    per call. *)
val walk : t -> pc:int -> len:int -> (int array -> unit) -> unit

(** [walk_uninstrumented] is {!walk} without the instrumentation
    wrapper — the bare engine, kept as the reference the overhead
    micro-bench ([bench/main.exe -- micro-obsv]) compares {!walk}
    against. Prefer {!walk} everywhere else. *)
val walk_uninstrumented : t -> pc:int -> len:int -> (int array -> unit) -> unit

(** [iter_hash idx] is the checksum hash of one iteration tuple:
    [fold h = h*1000003 + idx.(k)] from [h = 0] (native-int
    wraparound). Summed over a chunk it is order-independent, so
    concurrent chunks sum to the serial reference. *)
val iter_hash : int array -> int

(** [block_hash lanes ~count] is the sum of {!iter_hash} over lanes
    [0, count) of a structure-of-arrays block (as delivered by
    {!walk_lanes}). It is computed as d row sums: {!iter_hash} of a
    depth-d tuple is [sum_k idx.(k) * 1000003^(d-1-k)], linear in the
    index, and native ints form a ring modulo 2^63, so the sum over
    lanes equals the same fold applied to the row sums [S_k = sum_l
    lanes.(k).(l)] — bit for bit, wraparound included. Every lane
    value is still read, once, by one add.
    @raise Invalid_argument when [count] exceeds a row's length. *)
val block_hash : int array array -> count:int -> int

(** [walk_hash t ~pc ~len] is the collapsed checksum walk — the
    execution payload of [trahrhe exec] and the service as a
    first-class operation: one recovery at rank [pc], then the sum
    (native-int wraparound) of {!iter_hash} over the next [len]
    iterations, stopping at the end of the space. With a native
    backend attached ({!attach_native}) the whole reduction runs in
    the specialized [.so] — one C call per chunk, no per-iteration
    callback; otherwise it is equivalent to accumulating over
    {!walk}. *)
val walk_hash : t -> pc:int -> len:int -> int

(** {2 Reduction walks}

    Available when the nest declares a reduction clause ({!Nest.t}'s
    [reduce] value); every entry point raises [Invalid_argument]
    otherwise. The operator is not part of the clause: each fold takes
    it as an argument, so one recovery serves every operator. *)

(** [reduce_value_int t idx] evaluates the clause value at one index
    point in native-int arithmetic. The clause grammar forces integer
    coefficients, so wraparound commutes with every operation: the
    result is the exact value mod 2^63 — the same residue the JIT's
    u64 accumulator yields after [Val_long] truncation, which is what
    makes a [Sum] {!walk_reduce_int} bit-identical across the interpreted and
    native backends even past overflow. *)
val reduce_value_int : t -> int array -> int

(** [reduce_value_rat t idx] evaluates the clause value exactly over
    rationals — the per-point payload of the generic
    {+, x, min, max} engine and of serial reference folds. *)
val reduce_value_rat : t -> int array -> Zmath.Rat.t

(** [reduce_value_bound t] bounds the clause value's magnitude at
    every iteration point: {!make}'s per-level index magnitudes
    substituted into the value polynomial's term magnitudes. A product
    over the whole space is then at most [bound ^ trip_count] in
    magnitude, which is how the exec runner refuses a product too
    large to fold exactly before walking it. *)
val reduce_value_bound : t -> Zmath.Bigint.t

(** [walk_reduce_int t op ~pc ~len] folds [op] over the native-int
    values ({!reduce_value_int}) of the chunk: one recovery at rank
    [pc], then the next [len] iterations. With a native backend
    attached the whole chunk of any of these operators runs in the
    specialized [.so] ([jit.hit]).
    - [Sum]: the wrapping native-int sum (0 when [len <= 0]).
    - [Min]/[Max]: the exact extremum, seeded with the chunk's first
      value. Exact because on a recovery that is not
      {!overflow_guarded}, {!make}'s headroom analysis bounds every
      clause value below 2^61, so no evaluation wraps. Equals
      {!walk_reduce_rat} over the same range.
    @raise Invalid_argument when [op] is [Prod], or for [Min]/[Max]
    when the recovery is {!overflow_guarded}, [len <= 0] or [pc] lies
    outside the iteration space (checked before any native call). *)
val walk_reduce_int : t -> Nest.red_op -> pc:int -> len:int -> int

(** [walk_reduce_rat t op ~pc ~len] folds [op] over the exact
    rational values of the next [len] iterations, seeded with
    the first value (so it serves min/max, which have no neutral
    element). Equals the serial left fold over the same range exactly.
    The fold of [Prod], and of [Min]/[Max] on an {!overflow_guarded}
    recovery, where {!walk_reduce_int} would wrap.
    @raise Invalid_argument when [len <= 0] or [pc] lies outside the
    iteration space. *)
val walk_reduce_rat : t -> Nest.red_op -> pc:int -> len:int -> Zmath.Rat.t

(** [walk_lanes t ~pc ~len ~vlength f] is the §VI-A batched lane-walk:
    ONE costly recovery at the collapsed index [pc], then the next
    [len] iterations are delivered in blocks of up to [vlength]
    consecutive ranks, all lanes of a block materialized in lockstep
    by the finite-difference steppers before [f] runs once per block.

    [f ~base ~count lanes]: [lanes] is a structure-of-arrays buffer —
    [lanes.(k).(l)] is the level-[k] index of lane [l] — of which the
    first [count] lanes are valid ([count = vlength] except for the
    last block of the walk, or when a block is cut short by the end of
    the iteration space); [base] is the 1-based collapsed rank of lane
    0. Lane [l] of a block holds rank [base + l]: consecutive ranks
    per block, i.e. exactly the §VI-B [Gpu.Coalesced] warp mapping
    when [vlength] is the warp width. Because consecutive ranks share
    their outer-index prefix, each innermost run fills the outer levels
    with one value and the innermost level by a counting loop — no
    per-iteration closure call. Both ride the same innermost runs as
    the per-iteration {!walk}; [bench/main.exe -- micro-lanes]
    compares the two.

    The outer rows persist across the blocks of a run: once a block
    of a run has been delivered, every lane of the buffer holds the
    run's prefix, and the blocks after it inside the same run rewrite
    only the innermost row. So [f] receives the walker's internal
    buffer and must not retain or mutate it: a lane written by [f]
    would stay wrong in every later block of the run. Instrumented
    like {!walk}.
    @raise Invalid_argument when [vlength <= 0]. *)
val walk_lanes :
  t -> pc:int -> len:int -> vlength:int -> (base:int -> count:int -> int array array -> unit) -> unit

(** [recover_block t ~pc lanes] is the one-block §VI-A primitive:
    one {!recover} at rank [pc], then the caller-provided
    structure-of-arrays buffer [lanes] (one row per nest level, all
    rows the same width) is filled in lockstep with the indices of
    ranks [pc, pc+1, ...]. Returns how many lanes were filled — the
    buffer width, unless the iteration space ends first; 0 when [pc]
    is outside [1..trip_count].
    @raise Invalid_argument on a misshapen buffer. *)
val recover_block : t -> pc:int -> int array array -> int
