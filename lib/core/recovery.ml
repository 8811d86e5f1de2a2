module P = Polymath.Polynomial
module A = Polymath.Affine
module H = Polymath.Horner
module Q = Zmath.Rat
module B = Zmath.Bigint
module E = Symx.Expr

(* slot assignment: level k -> k, pc -> depth *)

(* Overflow-safe form of a polynomial: the scaled flat-term form with
   bigint coefficients and bigint accumulation, immune to native-int
   wraparound at any nest size. Results (ranks, bounds) still fit the
   native int — it is the *intermediates* (coefficient * index powers)
   that overflow first — so evaluation returns an [int]. *)
type bpoly = { bden : B.t; bterms : (B.t * (int * int) array) array }

let compile_bpoly ~slot p =
  let bden = P.denominator_lcm p in
  let scaled = P.scale (Q.of_bigint bden) p in
  let bterms =
    P.terms scaled
    |> List.map (fun (c, m) ->
           let coeff = Q.to_bigint_exn c in
           let exps =
             Polymath.Monomial.to_list m
             |> List.map (fun (x, e) -> (slot x, e))
             |> Array.of_list
           in
           (coeff, exps))
    |> Array.of_list
  in
  { bden; bterms }

let eval_bpoly bp lookup =
  let acc = ref B.zero in
  Array.iter
    (fun (coeff, exps) ->
      let v = ref coeff in
      Array.iter (fun (slot, e) -> v := B.mul !v (B.pow (B.of_int (lookup slot)) e)) exps;
      acc := B.add !acc !v)
    bp.bterms;
  let q, r = B.divmod !acc bp.bden in
  assert (B.is_zero r);
  B.to_int_exn q

(* [Sigma_t |c_t| * Prod_j mag.(slot_j)^e_j] — an upper bound on
   |scaled polynomial| over any point whose slot magnitudes are
   bounded by [mag] (the division by [bden] is deliberately skipped:
   compiled evaluation works on the scaled polynomial, and skipping it
   only over-approximates). *)
let term_magnitude bp mag =
  Array.fold_left
    (fun acc (coeff, exps) ->
      let v =
        Array.fold_left (fun v (slot, e) -> B.mul v (B.pow mag.(slot) e)) (B.abs coeff) exps
      in
      B.add acc v)
    B.zero bp.bterms

let total_degree bp =
  Array.fold_left
    (fun acc (_, exps) -> max acc (Array.fold_left (fun s (_, e) -> s + e) 0 exps))
    0 bp.bterms

(* observability: walks that had to take the overflow-safe bigint
   path (bumped once per [make] that detects the risk, then once per
   walk routed through it) *)
let c_bigint_fallback = Obsv.Metrics.create "recovery.bigint_fallback"

(* chunks served by a native (.so) backend *)
let c_jit_hits = Obsv.Metrics.create "jit.hit"

(* per-level recovery ledger: how many level recoveries went through a
   closed-form/exact plan entry vs the certified numeric path (degree
   > 4 rankings, or OMPSIM_FORCE_NUMERIC differential runs) *)
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
type poly = { horner : H.t; exact : bpoly }

(* a nest's reduction clause: its compiled value polynomial, plus the
   parameter-substituted polynomial itself for exact rational folds *)
type reduce_comp = {
  r_op : Nest.red_op;
  r_poly : P.t;  (** parameter-substituted value, vars = level vars *)
  value : poly;
}

(* compiled support for one Numeric level: the parameter-folded
   substituted ranking scaled integral and split into the dense
   ascending coefficients of its univariate form in the level
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
  root_envs : (int array -> int -> string -> Complex.t) array;
      (** env builder for level k: takes idx prefix and pc *)
  numeric : numeric_level option array;
      (** [Some _] exactly at the [Inversion.Numeric] levels *)
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
    (folded, compile_bpoly ~slot folded)
  in
  let s_rank = stage inv.Inversion.ranking in
  let s_sub = Array.map stage inv.Inversion.r_sub in
  let s_lo = Array.map (fun (l : Nest.level) -> stage (A.to_poly l.lower)) levels in
  let s_up = Array.map (fun (l : Nest.level) -> stage (A.to_poly l.upper)) levels in
  (* the reduction value is evaluated at every iteration point by the
     same evaluators, so it participates in the overflow analysis on
     equal footing with the rankings and bounds *)
  let s_val = Option.map (fun (r : Nest.reduction) -> stage r.Nest.value) nest.Nest.reduce in
  (* Per-nest overflow threshold, precomputed from the polynomial
     coefficients (derivation in DESIGN.md "Fault tolerance"):
     1. bound each level's index magnitude inductively — |idx_k| is at
        most the term-magnitude sum of its bounds over the outer
        bounds, plus 1;
     2. bound any scaled-polynomial evaluation over those magnitudes
        by its term-magnitude sum W;
     3. leave headroom for Horner partials (one multiply by an index
        ahead of the sum bound) and the finite-difference tables
        (|Delta^k f| <= 2^k max|f|): W * max_mag * 2^(deg+1);
     native-int evaluation is allowed only below 2^61. *)
  let mag = Array.make (d + 1) B.one in
  mag.(d) <- B.of_int (max 1 trip);
  let bmax = ref mag.(d) in
  for k = 0 to d - 1 do
    let m_lo = term_magnitude (snd s_lo.(k)) mag and m_up = term_magnitude (snd s_up.(k)) mag in
    let m = B.add (if B.compare m_lo m_up >= 0 then m_lo else m_up) B.one in
    mag.(k) <- m;
    if B.compare m !bmax > 0 then bmax := m
  done;
  let worst = ref B.zero and deg = ref 0 in
  let consider (_, bp) =
    let w = term_magnitude bp mag in
    if B.compare w !worst > 0 then worst := w;
    deg := max !deg (total_degree bp)
  in
  consider s_rank;
  Array.iter consider s_sub;
  Array.iter consider s_lo;
  Array.iter consider s_up;
  Option.iter consider s_val;
  let headroom = B.mul (B.mul !worst !bmax) (B.pow (B.of_int 2) (!deg + 1)) in
  let safe = B.compare headroom (B.pow (B.of_int 2) 61) >= 0 in
  if safe then Obsv.Metrics.incr_here c_bigint_fallback;
  let zero_poly = P.const Q.zero in
  let form (folded, exact) =
    { horner = H.compile ~slot (if safe then zero_poly else folded); exact }
  in
  let reduce =
    match (nest.Nest.reduce, s_val) with
    | Some r, Some ((r_poly, _) as sv) -> Some { r_op = r.Nest.op; r_poly; value = form sv }
    | _ -> None
  in
  let root_envs =
    Array.init d (fun k idx pc x ->
        if x = pc_var then { Complex.re = float_of_int pc; im = 0.0 }
        else begin
          let rec find j =
            if j >= k then { Complex.re = float_of_int (param x); im = 0.0 }
            else if vars.(j) = x then { Complex.re = float_of_int idx.(j); im = 0.0 }
            else find (j + 1)
          in
          find 0
        end)
  in
  let numeric =
    Array.map
      (function
        | Inversion.Numeric { var; r_sub_index } ->
          let folded = fold_params inv.Inversion.r_sub.(r_sub_index) in
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
        | Inversion.Root _ | Inversion.Last _ -> None)
      inv.Inversion.recoveries
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
    root_envs;
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
let eval t p lookup = if t.safe then eval_bpoly p.exact lookup else H.eval p.horner lookup

let rank t idx = eval t t.rank_poly (fun s -> idx.(s))

let rank_prefix t ~level v prefix =
  eval t t.r_sub.(level) (fun s -> if s = level then v else prefix.(s))

let lower_bound t ~level prefix = eval t t.lo.(level) (fun s -> prefix.(s))
let upper_bound t ~level prefix = eval t t.up.(level) (fun s -> prefix.(s))

(* largest v in [lo, hi] with rank_prefix v <= pc, probing outward
   from a seed: the float-Newton enclosure is almost always within one
   of the answer, so the exact certificate costs two monotone probes;
   a bad seed degrades to doubling steps and a binary search over the
   surviving bracket — never worse than the unseeded search *)
let seeded_level_search t idx pc k ~lo ~hi ~seed =
  let g v = rank_prefix t ~level:k v idx <= pc in
  let s = max lo (min hi seed) in
  let a = ref lo and b = ref hi in
  if g s then begin
    a := s;
    let step = ref 1 in
    let galloping = ref true in
    while !galloping && !b > !a + !step do
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

let recover_level_raw t idx pc k =
  match t.inv.Inversion.recoveries.(k) with
  | Inversion.Last { poly = _; _ } ->
    (* exact integer formula; use the compiled substituted ranking:
       ik = lb + pc - rank_prefix(lb) *)
    let lb = lower_bound t ~level:k idx in
    lb + pc - rank_prefix t ~level:k lb idx
  | Inversion.Root { expr; _ } ->
    let z = E.eval_complex (t.root_envs.(k) idx pc) expr in
    int_of_float (Float.floor z.Complex.re)
  | Inversion.Numeric _ ->
    let lo = lower_bound t ~level:k idx in
    let hi = upper_bound t ~level:k idx - 1 in
    if hi <= lo then lo
    else begin
      let seed =
        match t.numeric.(k) with
        | None -> lo + ((hi - lo) / 2)
        | Some nl ->
          let c = nl.nl_seed idx in
          c.(0) <- c.(0) -. (nl.nl_scale_f *. float_of_int pc);
          let r =
            Rootsolve.Isolate.float_root c ~lo:(float_of_int lo)
              ~hi:(float_of_int hi +. 1.0)
          in
          int_of_float (Float.floor r)
      in
      seeded_level_search t idx pc k ~lo ~hi ~seed
    end

let recover t pc =
  let idx = Array.make t.d 0 in
  for k = 0 to t.d - 1 do
    idx.(k) <- recover_level_raw t idx pc k
  done;
  idx

let adjust_level t idx pc k =
  (* exact fix-up: find ik with rank_prefix(ik) <= pc < rank_prefix(ik+1),
     clamping into the level's bounds first *)
  let lo = lower_bound t ~level:k idx in
  let hi = upper_bound t ~level:k idx - 1 in
  let v = ref (max lo (min hi idx.(k))) in
  if not t.safe then begin
    (* difference-table scan: each probe of the monotone substituted
       ranking costs O(degree) additions instead of a full re-evaluation *)
    let st =
      H.Stepper.make t.r_sub.(k).horner ~slot:k ~start:!v ~lookup:(fun s -> idx.(s))
    in
    let continue = ref (!v < hi) in
    while !continue do
      H.Stepper.step st;
      if H.Stepper.value st <= pc then begin
        incr v;
        continue := !v < hi
      end
      else begin
        H.Stepper.step_back st;
        continue := false
      end
    done;
    while !v > lo && H.Stepper.value st > pc do
      H.Stepper.step_back st;
      decr v
    done
  end
  else begin
    while !v < hi && rank_prefix t ~level:k (!v + 1) idx <= pc do incr v done;
    while !v > lo && rank_prefix t ~level:k !v idx > pc do decr v done
  end;
  idx.(k) <- !v

let count_level_kind t k =
  match t.inv.Inversion.recoveries.(k) with
  | Inversion.Numeric _ -> Obsv.Metrics.incr_here c_inv_numeric
  | Inversion.Root _ | Inversion.Last _ -> Obsv.Metrics.incr_here c_inv_closed

let recover_binsearch t pc =
  let idx = Array.make t.d 0 in
  for k = 0 to t.d - 1 do
    count_level_kind t k;
    let lo = lower_bound t ~level:k idx in
    let hi = upper_bound t ~level:k idx - 1 in
    (* largest v with rank_prefix v <= pc; rank_prefix is monotone in v *)
    let a = ref lo and b = ref hi in
    while !a < !b do
      let mid = !a + ((!b - !a + 1) / 2) in
      if rank_prefix t ~level:k mid idx <= pc then a := mid else b := mid - 1
    done;
    idx.(k) <- !a
  done;
  idx

let recover_guarded t pc =
  (* overflow-safe mode: the closed forms' float evaluation loses
     integer precision long before the intermediates wrap, and the
     native adjustment scan is exactly what must not run — binary
     search over the bigint rankings is the exact degradation path *)
  if t.safe then recover_binsearch t pc
  else begin
    let idx = Array.make t.d 0 in
    for k = 0 to t.d - 1 do
      count_level_kind t k;
      match t.inv.Inversion.recoveries.(k) with
      | Inversion.Numeric _ ->
        (* the seeded bracket search certifies the index with exact
           monotone probes: it needs no adjustment pass *)
        idx.(k) <- recover_level_raw t idx pc k
      | Inversion.Root _ | Inversion.Last _ ->
        idx.(k) <- recover_level_raw t idx pc k;
        adjust_level t idx pc k
    done;
    idx
  end

(* certified rational isolation of a numeric level's root: the exact
   Isolate enclosure of r_sub_k(prefix, v) = pc over the level's
   bounds. Diagnostic and bench surface — the hot path proves the same
   fact with exact integer probes of the monotone ranking. *)
let isolate_level ?max_width t idx ~pc ~level =
  match t.numeric.(level) with
  | None -> None
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

let increment t idx =
  let rec go k =
    if k < 0 then false
    else begin
      let next = idx.(k) + 1 in
      if next < upper_bound t ~level:k idx then begin
        idx.(k) <- next;
        for q = k + 1 to t.d - 1 do
          idx.(q) <- lower_bound t ~level:q idx
        done;
        true
      end
      else go (k - 1)
    end
  in
  go (t.d - 1)

let first t =
  if t.trip = 0 then failwith "Recovery.first: empty iteration domain";
  let idx = Array.make t.d 0 in
  for k = 0 to t.d - 1 do
    idx.(k) <- lower_bound t ~level:k idx
  done;
  idx

(* ---------------- the chunk engine (§V, §VI-A) ---------------- *)

(* the chunk's payload shape: one callback per iteration, or lockstep
   blocks of consecutive ranks materialized into a structure-of-arrays
   buffer ([lanes.(k).(l)] is level k of lane l; the block width is the
   buffer's row length) *)
type shape =
  | Scalar of (int array -> unit)
  | Lanes of int array array * (base:int -> count:int -> int array array -> unit)

(* [Stdlib.min] is polymorphic: on the lane shape's per-block and
   per-run bounds it would cost a [compare] call each *)
let imin (a : int) b = if a <= b then a else b

(* the step phase of one chunk: drive [shape] over [len] iterations
   starting from [idx] (the chunk's one recovery, rank [pc]), stopping
   early at the end of the space; returns the iterations visited.
   Per-level bounds are cached over [idx]. Level q > 0 additionally
   carries difference-table steppers along the parent variable q-1, so
   a carry updates its bounds in O(degree) additions; overflow-safe
   mode re-evaluates the bound polynomials through their bigint forms
   instead — the same values [increment] computes. *)
let step t idx ~pc ~len shape =
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
     exhausted, resetting every deeper level to its lower bound; false
     at the end of the space. The direct child steps its bound tables
     along the advanced index; deeper levels saw their whole prefix
     change and are rebuilt. *)
  let rec carry k =
    if k < 0 then false
    else if idx.(k) + 1 < hi.(k) then begin
      idx.(k) <- idx.(k) + 1;
      if k + 1 < d then begin
        step_bounds (k + 1);
        idx.(k + 1) <- lo.(k + 1);
        for q = k + 2 to d - 1 do
          build q;
          idx.(q) <- lo.(q)
        done
      end;
      true
    end
    else carry (k - 1)
  in
  let inner = d - 1 in
  let remaining = ref len in
  (match shape with
  | Scalar f ->
    f idx;
    decr remaining;
    while !remaining > 0 && carry inner do
      f idx;
      decr remaining
    done
  | Lanes (lanes, f) ->
    (* lockstep runs along the innermost level: consecutive ranks
       share the outer prefix, filled by [Array.fill]; the inner lane
       values just count up — no per-iteration closure call *)
    let vlength = Array.length lanes.(0) and ilanes = lanes.(inner) in
    let base = ref pc and alive = ref true in
    while !remaining > 0 && !alive do
      let want = imin vlength !remaining in
      let count = ref 0 in
      while !count < want && !alive do
        let run = imin (want - !count) (hi.(inner) - idx.(inner)) in
        for k = 0 to inner - 1 do
          Array.fill lanes.(k) !count run idx.(k)
        done;
        let v0 = idx.(inner) in
        for r = 0 to run - 1 do
          ilanes.(!count + r) <- v0 + r
        done;
        count := !count + run;
        idx.(inner) <- v0 + run;
        if idx.(inner) >= hi.(inner) && not (carry (inner - 1)) then alive := false
      done;
      f ~base:!base ~count:!count lanes;
      base := !base + !count;
      remaining := !remaining - !count
    done);
  len - !remaining

(* the engine: the chunk's one recovery, then the step phase *)
let engine t ~pc ~len shape = step t (recover_guarded t pc) ~pc ~len shape

(* the walk ledger: per-chunk counters, always on; the traced run adds
   the [recovery.walk] span and the recovery-vs-stepping time split *)
let c_walks = Obsv.Metrics.create "recovery.walks"
let c_iterations = Obsv.Metrics.create "recovery.iterations"
let c_recover_ns = Obsv.Metrics.create "recovery.recover_ns"
let c_step_ns = Obsv.Metrics.create "recovery.step_ns"

(* one chunk, returning the iterations it visited. [native], when
   given, replaces the whole chunk with one call into the specialized
   object (which clamps at the end of the space like the engine does).
   [timed] splits the interpreted chunk's time into its recovery and
   stepping phases. *)
let run_chunk ~timed ?native t ~pc ~len shape =
  match native with
  | Some run ->
    Obsv.Metrics.incr_here c_jit_hits;
    run ();
    if pc < 1 || pc > t.trip then 0 else min len (t.trip - pc + 1)
  | None when timed ->
    let t0 = Obsv.Clock.now_ns () in
    let idx = recover_guarded t pc in
    let t1 = Obsv.Clock.now_ns () in
    Obsv.Metrics.add_here c_recover_ns (t1 - t0);
    let visited = step t idx ~pc ~len shape in
    Obsv.Metrics.add_here c_step_ns (Obsv.Clock.now_ns () - t1);
    visited
  | None -> engine t ~pc ~len shape

(* the one instrumentation wrapper every public chunk entry runs
   through *)
let chunk ?native t ~pc ~len shape =
  if len > 0 then begin
    Obsv.Metrics.incr_here c_walks;
    if t.safe then Obsv.Metrics.incr_here c_bigint_fallback;
    let visited =
      if not (Obsv.Control.enabled ()) then run_chunk ~timed:false ?native t ~pc ~len shape
      else
        Obsv.Trace.with_span "recovery.walk"
          ~args:[ ("pc", Obsv.Trace.Int pc); ("len", Obsv.Trace.Int len) ]
          (fun () -> run_chunk ~timed:true ?native t ~pc ~len shape)
    in
    Obsv.Metrics.add_here c_iterations visited
  end

(* ---------------- payloads ---------------- *)

let walk t ~pc ~len f = chunk t ~pc ~len (Scalar f)
let walk_uninstrumented t ~pc ~len f = if len > 0 then ignore (engine t ~pc ~len (Scalar f))

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

let lane_hash lanes l =
  let h = ref 0 in
  for k = 0 to Array.length lanes - 1 do
    h := hash_mix !h lanes.(k).(l)
  done;
  !h

let walk_hash t ~pc ~len =
  let acc = ref 0 in
  chunk t ~pc ~len
    ?native:(Option.map (fun nat () -> acc := nat.n_walk_hash ~pc ~len) t.native)
    (Scalar (fun idx -> acc := !acc + iter_hash idx));
  !acc

let make_lanes t vlength = Array.init t.d (fun _ -> Array.make vlength 0)

let walk_lanes t ~pc ~len ~vlength f =
  if vlength <= 0 then invalid_arg "Recovery.walk_lanes: vlength must be positive";
  chunk t ~pc ~len (Lanes (make_lanes t vlength, f))

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
  if width > 0 && pc >= 1 && pc <= t.trip then
    chunk t ~pc ~len:(min width (t.trip - pc + 1))
      (Lanes (lanes, fun ~base:_ ~count _ -> filled := count));
  !filled

(* ---------------- reduction payloads ---------------- *)

let reduction t = t.inv.Inversion.nest.Nest.reduce

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

let walk_reduce_sum t ~pc ~len =
  let rc = reduce_comp t in
  if rc.r_op <> Nest.Sum then invalid_arg "Recovery.walk_reduce_sum: clause is not a sum";
  let eval = value_int t rc and acc = ref 0 in
  chunk t ~pc ~len
    ?native:(Option.map (fun nat () -> acc := nat.n_reduce_sum ~pc ~len) t.native)
    (Scalar (fun idx -> acc := !acc + eval idx));
  !acc

let walk_reduce_rat t ~pc ~len =
  let rc = reduce_comp t in
  if len <= 0 then invalid_arg "Recovery.walk_reduce_rat: empty chunk";
  let eval = reduce_rat_eval t rc and acc = ref None in
  chunk t ~pc ~len
    (Scalar
       (fun idx ->
         let v = eval idx in
         acc := Some (match !acc with None -> v | Some a -> Nest.op_apply rc.r_op a v)));
  match !acc with
  | Some q -> q
  | None -> invalid_arg "Recovery.walk_reduce_rat: pc outside the iteration space"
