module P = Polymath.Polynomial
module A = Polymath.Affine
module H = Polymath.Horner
module Bp = Polymath.Bpoly
module Q = Zmath.Rat
module B = Zmath.Bigint

(* slot assignment: level k -> k, pc -> depth *)

(* observability: walks that had to take the overflow-safe bigint
   path (bumped once per [make] that detects the risk, then once per
   walk routed through it) *)
let c_bigint_fallback = Obsv.Metrics.create "recovery.bigint_fallback"

(* chunks served by a native (.so) backend *)
let c_jit_hits = Obsv.Metrics.create "jit.hit"

(* per-level recovery ledger: a searched (non-last) level counts as
   numeric, the innermost level's exact formula as closed_form *)
let c_inv_closed = Obsv.Metrics.create "inversion.closed_form"
let c_inv_numeric = Obsv.Metrics.create "inversion.numeric"

let numeric_recoveries () = Obsv.Metrics.total c_inv_numeric
let closed_form_recoveries () = Obsv.Metrics.total c_inv_closed

type native = {
  n_walk_hash : pc:int -> len:int -> int;
  n_recover : pc:int -> int array -> unit;
  n_reduce_sum : pc:int -> len:int -> int;
}

(* one polynomial role compiled once into both of its evaluators: the
   Horner form for the native-int hot path (and its finite-difference
   steppers), the bigint form for overflow-safe mode. Under [safe] the
   Horner form is a zero placeholder: the scaled coefficients alone may
   exceed the native range. *)
type poly = { horner : H.t; exact : Bp.t }

(* a nest's reduction clause: its compiled value polynomial, plus the
   parameter-substituted polynomial itself for exact rational folds.
   The operator is the caller's: every fold takes it as an argument. *)
type reduce_comp = {
  r_poly : P.t;  (** parameter-substituted value, vars = level vars *)
  value : poly;
}

(* compiled support for one searched (non-last) level: the
   parameter-folded substituted ranking scaled integral and split into
   the dense ascending coefficients of its univariate form in the level
   variable. [nl_seed] evaluates them to floats for the Newton seed;
   [nl_univ] keeps the exact polynomials for certified isolation. *)
type numeric_level = {
  nl_scale : Q.t;  (** denominator lcm L: [nl_univ] holds [L * r_sub_k] *)
  nl_scale_f : float;
  nl_univ : P.t array;  (** vars = outer (prefix) levels only *)
  nl_seed : int array -> float array;
}

type t = {
  inv : Inversion.t;
  d : int;
  param : string -> int;
  trip : int;
  safe : bool;
      (** overflow-safe mode: native-int intermediates could wrap at
          this nest size, so every evaluation routes through [exact] *)
  rank_poly : poly;
  r_sub : poly array;
  lo : poly array;  (** inclusive lower bounds, vars = outer levels *)
  up : poly array;  (** exclusive upper bounds *)
  numeric : numeric_level option array;
      (** [Some _] at every level but the innermost, whose index has an
          exact formula *)
  reduce : reduce_comp option;
      (** compiled reduction clause, when the nest declares one *)
  native : native option;
      (** specialized [.so] backend, attached per-plan by the JIT tier *)
}

let make (inv : Inversion.t) ~param =
  let nest = inv.Inversion.nest in
  let d = Nest.depth nest in
  let vars = Array.of_list (Nest.level_vars nest) in
  let pc_var = inv.Inversion.pc_var in
  let slot x =
    if x = pc_var then d
    else begin
      let rec find j =
        if j >= d then invalid_arg ("Recovery: unbound variable " ^ x) else if vars.(j) = x then j else find (j + 1)
      in
      find 0
    end
  in
  let fold_params p =
    List.fold_left
      (fun p x ->
        if x = pc_var || Array.exists (fun v -> v = x) vars then p
        else P.subst x (P.const (Q.of_int (param x))) p)
      p (P.vars p)
  in
  let trip =
    let tp = fold_params inv.Inversion.trip_count in
    match P.is_const tp with
    | Some c -> (
      match B.to_int (Q.to_bigint_exn c) with
      | Some trip -> trip
      | None -> invalid_arg "Recovery.make: trip count exceeds the native int range")
    | None -> invalid_arg "Recovery.make: trip count not constant under the given parameters"
  in
  if trip < 0 then invalid_arg "Recovery.make: negative trip count";
  let levels = Array.of_list nest.Nest.levels in
  (* bigint forms first: they exist at any size, and the overflow
     threshold below decides whether the Horner forms may be compiled
     at all (their scaled coefficients alone can exceed the native
     range for huge parameters) *)
  let stage p =
    let folded = fold_params p in
    (folded, Bp.compile ~slot folded)
  in
  let s_rank = stage inv.Inversion.ranking in
  let s_sub = Array.map stage inv.Inversion.r_sub in
  let s_lo = Array.map (fun (l : Nest.level) -> stage (A.to_poly l.lower)) levels in
  let s_up = Array.map (fun (l : Nest.level) -> stage (A.to_poly l.upper)) levels in
  (* the reduction value is evaluated at every iteration point by the
     same evaluators, so it participates in the overflow analysis on
     equal footing with the rankings and bounds *)
  let s_val = Option.map stage nest.Nest.reduce in
  (* Per-nest overflow threshold, precomputed from the polynomial
     coefficients (derivation in DESIGN.md "Fault tolerance"): bound
     each level's index magnitude inductively — |idx_k| is at most the
     term-magnitude sum of its bounds over the outer bounds, plus 1 —
     then apply the 2^61 headroom rule of [Bpoly.fits_native] to every
     polynomial evaluated over those magnitudes. *)
  let mag = Array.make (d + 1) B.one in
  mag.(d) <- B.of_int (max 1 trip);
  for k = 0 to d - 1 do
    let m_lo = Bp.magnitude (snd s_lo.(k)) mag and m_up = Bp.magnitude (snd s_up.(k)) mag in
    mag.(k) <- B.add (if B.compare m_lo m_up >= 0 then m_lo else m_up) B.one
  done;
  let exact_forms =
    List.map snd
      ((s_rank :: Array.to_list s_sub) @ Array.to_list s_lo @ Array.to_list s_up
     @ Option.to_list s_val)
  in
  let safe = not (Bp.fits_native ~mag exact_forms) in
  if safe then Obsv.Metrics.incr_here c_bigint_fallback;
  let zero_poly = P.const Q.zero in
  let form (folded, exact) =
    { horner = H.compile ~slot (if safe then zero_poly else folded); exact }
  in
  let reduce = Option.map (fun ((r_poly, _) as sv) -> { r_poly; value = form sv }) s_val in
  let numeric =
    Array.init d (fun k ->
        if k = d - 1 then None
        else begin
          let var = vars.(k) and folded = fst s_sub.(k) in
          (* scale by the denominator lcm: the univariate coefficients
             of the scaled polynomial have integer coefficients, hence
             integer values at the (integer) recovered prefixes, so the
             Horner forms evaluate them exactly *)
          let lcm = P.denominator_lcm folded in
          let scaled = P.scale (Q.of_bigint lcm) folded in
          let u = P.as_univariate var scaled in
          let dmax = List.fold_left (fun acc (e, _) -> max acc e) 0 u in
          let univ = Array.make (dmax + 1) (P.const Q.zero) in
          List.iter (fun (e, c) -> univ.(e) <- c) u;
          let seed =
            if safe then begin
              (* overflow-guarded: the float image is only a seed, so
                 lossy bigint-free evaluation is fine here *)
              fun idx -> Array.map (P.eval_float (fun x -> float_of_int idx.(slot x))) univ
            end
            else begin
              let hs = Array.map (H.compile ~slot) univ in
              fun idx -> Array.map (fun h -> float_of_int (H.eval h (fun s -> idx.(s)))) hs
            end
          in
          Some
            { nl_scale = Q.of_bigint lcm;
              nl_scale_f = Zmath.Bigint.to_float lcm;
              nl_univ = univ;
              nl_seed = seed }
        end)
  in
  { inv;
    d;
    param;
    trip;
    safe;
    rank_poly = form s_rank;
    r_sub = Array.map form s_sub;
    lo = Array.map form s_lo;
    up = Array.map form s_up;
    numeric;
    reduce;
    native = None }

let depth t = t.d
let trip_count t = t.trip
let overflow_guarded t = t.safe

(* overflow-guarded nests refuse the native backend: the specialized C
   computes in int64 and would wrap exactly where the bigint path is
   needed (the caller counts the refusal as a jit fallback) *)
let attach_native t nat = if t.safe then t else { t with native = Some nat }
let native_enabled t = t.native <> None

let native_recover t pc =
  match t.native with
  | None -> None
  | Some nat ->
    let idx = Array.make t.d 0 in
    nat.n_recover ~pc idx;
    Some idx

(* the one evaluator every polynomial role goes through *)
let eval t p lookup = if t.safe then Bp.eval p.exact lookup else H.eval p.horner lookup

let rank t idx = eval t t.rank_poly (fun s -> idx.(s))

let rank_prefix t ~level v prefix =
  eval t t.r_sub.(level) (fun s -> if s = level then v else prefix.(s))

let lower_bound t ~level prefix = eval t t.lo.(level) (fun s -> prefix.(s))
let upper_bound t ~level prefix = eval t t.up.(level) (fun s -> prefix.(s))

(* largest v in [lo, hi] with rank_prefix v <= pc, probing outward
   from a seed: the float-Newton enclosure is almost always within one
   of the answer, so the exact certificate costs two monotone probes;
   a bad seed degrades to doubling steps and a binary search over the
   surviving bracket — never worse than an unseeded search *)
let seeded_level_search t idx pc k ~lo ~hi ~seed =
  let g v = rank_prefix t ~level:k v idx <= pc in
  let s = max lo (min hi seed) in
  let a = ref lo and b = ref hi in
  if g s then begin
    a := s;
    let step = ref 1 in
    let galloping = ref true in
    (* a difference, not [!a + !step], so huge bigint-mode bounds
       cannot wrap the test *)
    while !galloping && !b - !a > !step do
      if g (!a + !step) then begin
        a := !a + !step;
        step := !step * 2
      end
      else begin
        b := !a + !step - 1;
        galloping := false
      end
    done
  end
  else begin
    b := s - 1;
    let step = ref 1 in
    let galloping = ref (!a < !b) in
    while !galloping do
      let v = !b - !step in
      if v <= !a then galloping := false
      else if g v then begin
        a := v;
        galloping := false
      end
      else begin
        b := v - 1;
        step := !step * 2;
        galloping := !a < !b
      end
    done
  end;
  while !a < !b do
    let mid = !a + ((!b - !a + 1) / 2) in
    if g mid then a := mid else b := mid - 1
  done;
  !a

(* level k under the recovered prefix [idx.(0..k-1)]: the innermost
   level's exact formula [lb + pc - rank_prefix(lb)], any other level
   the seeded search *)
let recover_level t idx pc k =
  let lo = lower_bound t ~level:k idx in
  match t.numeric.(k) with
  | None -> lo + pc - rank_prefix t ~level:k lo idx
  | Some nl ->
    let hi = upper_bound t ~level:k idx - 1 in
    if hi <= lo then lo
    else begin
      let c = nl.nl_seed idx in
      c.(0) <- c.(0) -. (nl.nl_scale_f *. float_of_int pc);
      let r = Rootsolve.Isolate.float_root c ~lo:(float_of_int lo) ~hi:(float_of_int hi +. 1.0) in
      seeded_level_search t idx pc k ~lo ~hi ~seed:(int_of_float (Float.floor r))
    end

let recover t pc =
  Obsv.Metrics.add_here c_inv_numeric (t.d - 1);
  Obsv.Metrics.incr_here c_inv_closed;
  let idx = Array.make t.d 0 in
  for k = 0 to t.d - 1 do
    idx.(k) <- recover_level t idx pc k
  done;
  idx

(* certified rational isolation of a searched level's root: the exact
   Isolate enclosure of r_sub_k(prefix, v) = pc over the level's
   bounds. Diagnostic and bench surface — the hot path proves the same
   fact with exact integer probes of the monotone ranking. *)
let isolate_level ?max_width t idx ~pc ~level =
  match t.numeric.(level) with
  | Some nl ->
    let vars = Array.of_list (Nest.level_vars t.inv.Inversion.nest) in
    let env x =
      let rec find j =
        if j >= level then Q.of_int (t.param x)
        else if vars.(j) = x then Q.of_int idx.(j)
        else find (j + 1)
      in
      find 0
    in
    let p = Array.map (P.eval env) nl.nl_univ in
    p.(0) <- Q.sub p.(0) (Q.mul nl.nl_scale (Q.of_int pc));
    let lo = Q.of_int (lower_bound t ~level idx) in
    let hi = Q.of_int (upper_bound t ~level idx) in
    Some (Rootsolve.Isolate.isolate ?max_width p ~lo ~hi)
  | None -> None

(* the §V step on re-evaluated bounds: [advance k] advances level k, or
   the nearest outer level that is not exhausted; [settle q] resets
   levels q.. to their lower bounds, carrying one level up past an
   empty row. Both are false past the end of the space. *)
let rec advance t idx k =
  if k < 0 then false
  else if idx.(k) + 1 < upper_bound t ~level:k idx then begin
    idx.(k) <- idx.(k) + 1;
    settle t idx (k + 1)
  end
  else advance t idx (k - 1)

and settle t idx q =
  if q >= t.d then true
  else begin
    idx.(q) <- lower_bound t ~level:q idx;
    if idx.(q) < upper_bound t ~level:q idx then settle t idx (q + 1) else advance t idx (q - 1)
  end

let increment t idx = advance t idx (t.d - 1)

let first t =
  if t.trip = 0 then failwith "Recovery.first: empty iteration domain";
  let idx = Array.make t.d 0 in
  ignore (settle t idx 0);
  idx

(* ---------------- the chunk engine (§V, §VI-A) ---------------- *)

(* A chunk is delivered as innermost runs: [run idx v0 count] is the
   [count >= 1] consecutive iterations [idx.(0..d-2), v] for v in
   [v0, v0 + count), with [idx.(d-1) = v0] on entry. The fold may
   overwrite [idx.(d-1)] (the carry resets it) but no outer level. *)

(* [Stdlib.min] is polymorphic: on the per-run and per-block bounds it
   would cost a [compare] call each *)
let imin (a : int) b = if a <= b then a else b

(* the step phase of one chunk: hand [run] the innermost runs of the
   [len] iterations starting at [idx] (the chunk's one recovery),
   stopping early at the end of the space; returns the iterations
   visited. Per-level bounds are cached over [idx]. Level q > 0
   additionally carries difference-table steppers along the parent
   variable q-1, so a carry updates its bounds in O(degree) additions;
   overflow-safe mode re-evaluates the bound polynomials through their
   bigint forms instead — the same values [increment] computes. *)
let step t idx ~len run =
  let d = t.d in
  let lo = Array.make d 0 and hi = Array.make d 0 in
  let build, step_bounds =
    if t.safe then begin
      let reeval q =
        lo.(q) <- lower_bound t ~level:q idx;
        hi.(q) <- upper_bound t ~level:q idx
      in
      (reeval, reeval)
    end
    else begin
      let lo_st = Array.make d None and hi_st = Array.make d None in
      let build q =
        let lookup s = idx.(s) in
        let ls = H.Stepper.make t.lo.(q).horner ~slot:(q - 1) ~start:idx.(q - 1) ~lookup in
        let hs = H.Stepper.make t.up.(q).horner ~slot:(q - 1) ~start:idx.(q - 1) ~lookup in
        lo_st.(q) <- Some ls;
        hi_st.(q) <- Some hs;
        lo.(q) <- H.Stepper.value ls;
        hi.(q) <- H.Stepper.value hs
      in
      let step_one bound st q =
        match st.(q) with
        | Some s ->
          H.Stepper.step s;
          bound.(q) <- H.Stepper.value s
        | None -> ()
      in
      (build, fun q -> step_one lo lo_st q; step_one hi hi_st q)
    end
  in
  lo.(0) <- lower_bound t ~level:0 idx;
  hi.(0) <- upper_bound t ~level:0 idx;
  for q = 1 to d - 1 do
    build q
  done;
  (* the carry: advance level k, or the nearest outer level that is not
     exhausted, then descend, resetting each deeper level to its lower
     bound; false at the end of the space. The direct child steps its
     bound tables along the advanced index; deeper levels saw their
     whole prefix change and are rebuilt. An empty row (lo >= hi) at
     level q holds no iteration, so the carry resumes at level q-1:
     the walk never stands on an empty row at any level. *)
  let rec carry k =
    if k < 0 then false
    else if idx.(k) + 1 < hi.(k) then begin
      idx.(k) <- idx.(k) + 1;
      descend k (k + 1)
    end
    else carry (k - 1)
  and descend k q =
    if q >= d then true
    else begin
      if q = k + 1 then step_bounds q else build q;
      idx.(q) <- lo.(q);
      if lo.(q) < hi.(q) then descend k (q + 1) else carry (q - 1)
    end
  in
  let inner = d - 1 in
  let remaining = ref len and alive = ref true in
  while !alive do
    let v0 = idx.(inner) in
    let count = imin !remaining (hi.(inner) - v0) in
    run idx v0 count;
    remaining := !remaining - count;
    alive := !remaining > 0 && carry (inner - 1)
  done;
  len - !remaining

(* the walk ledger: per-chunk counters, always on; the traced run adds
   the [recovery.walk] span and the recovery-vs-stepping time split *)
let c_walks = Obsv.Metrics.create "recovery.walks"
let c_iterations = Obsv.Metrics.create "recovery.iterations"
let c_recover_ns = Obsv.Metrics.create "recovery.recover_ns"
let c_step_ns = Obsv.Metrics.create "recovery.step_ns"

(* the interpreted chunk: the one recovery, then the step phase; no
   iteration when [pc] lies outside the space. [timed] splits its time
   into the two phases. *)
let engine ~timed t ~pc ~len run =
  if pc < 1 || pc > t.trip then 0
  else if not timed then step t (recover t pc) ~len run
  else begin
    let t0 = Obsv.Clock.now_ns () in
    let idx = recover t pc in
    let t1 = Obsv.Clock.now_ns () in
    Obsv.Metrics.add_here c_recover_ns (t1 - t0);
    let visited = step t idx ~len run in
    Obsv.Metrics.add_here c_step_ns (Obsv.Clock.now_ns () - t1);
    visited
  end

(* one chunk, returning the iterations it visited. [native], when
   given, replaces the whole chunk with one call into the specialized
   object (which clamps at the end of the space like the engine does). *)
let run_chunk ~timed ?native t ~pc ~len run =
  match native with
  | Some call ->
    Obsv.Metrics.incr_here c_jit_hits;
    call ();
    if pc < 1 || pc > t.trip then 0 else imin len (t.trip - pc + 1)
  | None -> engine ~timed t ~pc ~len run

(* the one instrumentation wrapper every public chunk entry runs
   through *)
let chunk ?native t ~pc ~len run =
  if len > 0 then begin
    Obsv.Metrics.incr_here c_walks;
    if t.safe then Obsv.Metrics.incr_here c_bigint_fallback;
    let visited =
      if not (Obsv.Control.enabled ()) then run_chunk ~timed:false ?native t ~pc ~len run
      else
        Obsv.Trace.with_span "recovery.walk"
          ~args:[ ("pc", Obsv.Trace.Int pc); ("len", Obsv.Trace.Int len) ]
          (fun () -> run_chunk ~timed:true ?native t ~pc ~len run)
    in
    Obsv.Metrics.add_here c_iterations visited
  end

(* ---------------- the two adapters ---------------- *)

(* per-iteration: [f] once per iteration of each run *)
let per_iteration f idx v0 count =
  let inner = Array.length idx - 1 in
  for v = v0 to v0 + count - 1 do
    idx.(inner) <- v;
    f idx
  done

(* §VI-A lanes: runs packed into lockstep blocks of consecutive ranks
   in a structure-of-arrays buffer ([lanes.(k).(l)] is level k of lane
   l; the block width is the buffer's row length). A run's prefix is
   the same for all its lanes and its inner values count up, so no
   lane costs a closure call. The outer rows persist across the blocks
   of a run: lanes [stale, vlength) already hold the run's prefix once
   a block of it has gone to [f], so a block inside the run rewrites
   only the innermost row (which is why [f] must not mutate the
   buffer). A block goes to [f] once full or once it holds the chunk's
   last iteration: the engine visits exactly [min len (trip - pc + 1)]
   of them, so every lane index stays below [vlength] by construction.
   The innermost row is written four lanes per loop turn, as
   [block_hash] reads it: a native OCaml loop pays its compare and
   safe-point poll per turn, which is most of an 8-lane block's cost. *)
let lane_blocks t lanes ~pc ~len f =
  let vlength = Array.length lanes.(0) and inner = t.d - 1 in
  let ilanes = lanes.(inner) in
  let left = ref (imin len (t.trip - pc + 1)) and base = ref pc and fill = ref 0 in
  fun idx v0 count ->
    let v = ref v0 and n = ref count and stale = ref vlength in
    while !n > 0 do
      let c = !fill in
      let take = imin !n (vlength - c) in
      let upto = imin (c + take) !stale in
      if upto > c then
        for k = 0 to inner - 1 do
          let row = Array.unsafe_get lanes k and x = Array.unsafe_get idx k in
          for l = c to upto - 1 do
            Array.unsafe_set row l x
          done
        done;
      stale := imin !stale c;
      let off = !v - c and l = ref c and stop = c + take in
      while !l + 4 <= stop do
        let i = !l in
        Array.unsafe_set ilanes i (off + i);
        Array.unsafe_set ilanes (i + 1) (off + i + 1);
        Array.unsafe_set ilanes (i + 2) (off + i + 2);
        Array.unsafe_set ilanes (i + 3) (off + i + 3);
        l := i + 4
      done;
      while !l < stop do
        Array.unsafe_set ilanes !l (off + !l);
        incr l
      done;
      fill := c + take;
      v := !v + take;
      n := !n - take;
      left := !left - take;
      if !fill = vlength || !left = 0 then begin
        f ~base:!base ~count:!fill lanes;
        base := !base + !fill;
        fill := 0
      end
    done

(* ---------------- payloads ---------------- *)

let walk t ~pc ~len f = chunk t ~pc ~len (per_iteration f)

let walk_uninstrumented t ~pc ~len f =
  if len > 0 then ignore (engine ~timed:false t ~pc ~len (per_iteration f))

(* the checksum payload of [trahrhe exec] and the service: the order-
   independent sum of per-iteration index hashes, so concurrent chunks
   sum to the serial reference *)
let hash_mix h v = (h * 1000003) + v

let iter_hash idx =
  let h = ref 0 in
  for k = 0 to Array.length idx - 1 do
    h := hash_mix !h idx.(k)
  done;
  !h

(* the sum of [iter_hash] over a block's first [count] lanes.
   [iter_hash] is linear in the index over wrapping ints, so the sum
   is [hash_mix] folded over the d row sums: one add per lane value,
   four per loop turn. *)
let block_hash lanes ~count =
  let h = ref 0 in
  for k = 0 to Array.length lanes - 1 do
    let row = lanes.(k) in
    if count > Array.length row then invalid_arg "Recovery.block_hash: count exceeds the row";
    let s = ref 0 and l = ref 0 in
    while !l + 4 <= count do
      let i = !l in
      s := !s + Array.unsafe_get row i + Array.unsafe_get row (i + 1)
           + Array.unsafe_get row (i + 2) + Array.unsafe_get row (i + 3);
      l := i + 4
    done;
    while !l < count do
      s := !s + Array.unsafe_get row !l;
      incr l
    done;
    h := hash_mix !h !s
  done;
  !h

(* per run, the outer-prefix hash is folded once; each iteration then
   adds [hash_mix prefix v] *)
let walk_hash t ~pc ~len =
  let acc = ref 0 and inner = t.d - 1 in
  chunk t ~pc ~len
    ?native:(Option.map (fun nat () -> acc := nat.n_walk_hash ~pc ~len) t.native)
    (fun idx v0 count ->
      let h = ref 0 in
      for k = 0 to inner - 1 do
        h := hash_mix !h idx.(k)
      done;
      let base = hash_mix !h 0 and a = ref !acc in
      for v = v0 to v0 + count - 1 do
        a := !a + base + v
      done;
      acc := !a);
  !acc

let make_lanes t vlength = Array.init t.d (fun _ -> Array.make vlength 0)

let walk_lanes t ~pc ~len ~vlength f =
  if vlength <= 0 then invalid_arg "Recovery.walk_lanes: vlength must be positive";
  chunk t ~pc ~len (lane_blocks t (make_lanes t vlength) ~pc ~len f)

let recover_block t ~pc lanes =
  if Array.length lanes <> t.d then
    invalid_arg "Recovery.recover_block: lanes must have one row per nest level";
  let width = Array.length lanes.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> width then
        invalid_arg "Recovery.recover_block: ragged lanes buffer")
    lanes;
  let filled = ref 0 in
  if width > 0 && pc >= 1 && pc <= t.trip then begin
    let len = imin width (t.trip - pc + 1) in
    chunk t ~pc ~len (lane_blocks t lanes ~pc ~len (fun ~base:_ ~count _ -> filled := count))
  end;
  !filled

(* ---------------- reduction payloads ---------------- *)

let reduce_comp t =
  match t.reduce with
  | Some rc -> rc
  | None -> invalid_arg "Recovery: nest carries no reduction clause"

(* native-int evaluation of the clause value at one index point. The
   clause grammar forces integer coefficients (no exact divisions), so
   native-int wraparound commutes with every + and *: the result is
   the exact value mod 2^63 — the same residue the JIT's u64
   accumulator yields after [Val_long] truncation. *)
let value_int t rc idx = eval t rc.value (fun s -> idx.(s))

let reduce_value_int t idx = value_int t (reduce_comp t) idx

(* exact rational evaluation, for the {+, x, min, max} generic engine *)
let reduce_rat_eval t rc =
  let vars = Array.of_list (Nest.level_vars t.inv.Inversion.nest) in
  fun idx ->
    P.eval
      (fun x ->
        let rec find j =
          if j >= t.d then invalid_arg ("Recovery.reduce_value_rat: unbound variable " ^ x)
          else if vars.(j) = x then Q.of_int idx.(j)
          else find (j + 1)
        in
        find 0)
      rc.r_poly

let reduce_value_rat t idx = reduce_rat_eval t (reduce_comp t) idx

(* the native-int fold of one run's clause values into [acc]. Off the
   overflow guard, a difference table along the inner index steps the
   value in O(degree) additions once the run outlasts the table's
   [degree + 1] samples (all inside the run, so within [make]'s
   headroom); guarded recoveries evaluate every value exactly. *)
let fold_run_int t rc op acc =
  let inner = t.d - 1 and h = rc.value.horner in
  let stepped = if t.safe then max_int else H.degree_in_slot h inner + 1 in
  fun idx v0 count ->
    let a = ref !acc in
    if count > stepped then begin
      let st = H.Stepper.make h ~slot:inner ~start:v0 ~lookup:(fun s -> idx.(s)) in
      a := op !a (H.Stepper.value st);
      for _ = 2 to count do
        H.Stepper.step st;
        a := op !a (H.Stepper.value st)
      done
    end
    else
      for v = v0 to v0 + count - 1 do
        idx.(inner) <- v;
        a := op !a (value_int t rc idx)
      done;
    acc := !a

(* the native-int fold of the clause: a wrapping sum (one native call
   per chunk when the backend is attached), or min/max, which are exact
   only below [make]'s 2^61 headroom and so refuse a guarded recovery.
   Every clause value is then below 2^61 in magnitude, so [max_int]
   (resp. [min_int]) is a seed the chunk's first value always replaces. *)
let walk_reduce_int t op ~pc ~len =
  let rc = reduce_comp t in
  let acc = ref 0 in
  (match op with
  | Nest.Sum ->
    chunk t ~pc ~len
      ?native:(Option.map (fun nat () -> acc := nat.n_reduce_sum ~pc ~len) t.native)
      (fold_run_int t rc ( + ) acc)
  | Nest.Min | Nest.Max ->
    if t.safe then invalid_arg "Recovery.walk_reduce_int: min/max on an overflow-guarded recovery";
    if len <= 0 || pc < 1 || pc > t.trip then
      invalid_arg "Recovery.walk_reduce_int: empty chunk or pc outside the iteration space";
    let pick = if op = Nest.Min then Int.min else Int.max in
    acc := (if op = Nest.Min then max_int else min_int);
    chunk t ~pc ~len (fold_run_int t rc pick acc)
  | Nest.Prod -> invalid_arg "Recovery.walk_reduce_int: a product folds in rationals");
  !acc

let walk_reduce_rat t op ~pc ~len =
  let rc = reduce_comp t in
  if len <= 0 then invalid_arg "Recovery.walk_reduce_rat: empty chunk";
  let eval = reduce_rat_eval t rc and acc = ref None in
  chunk t ~pc ~len
    (per_iteration (fun idx ->
         let v = eval idx in
         acc := Some (match !acc with None -> v | Some a -> Nest.op_apply op a v)));
  match !acc with
  | Some q -> q
  | None -> invalid_arg "Recovery.walk_reduce_rat: pc outside the iteration space"
