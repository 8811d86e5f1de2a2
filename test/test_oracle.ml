(* Property-based differential oracle over the collapse pipeline
   (ISSUE 2): for random valid non-rectangular nests, walking the
   collapsed range chunk-by-chunk must reproduce the nest's
   lexicographic enumeration exactly — same multiset, same order, each
   iteration exactly once — under every schedule, in top-level regions
   (pool workers) and nested ones (spawned domains). *)

module A = Polymath.Affine
module Q = Zmath.Rat
module N = Trahrhe.Nest

let var_names = [| "i"; "j"; "k"; "l" |]

(* The generated family is valid by construction: constants are >= 0
   and every outer-iterator coefficient is +1, so each index value is
   >= 0 inductively; each level's extent (upper - lower) is >= 0 on
   every reachable prefix. Mostly the extent is >= 1 — a constant in
   1..4, [N + e] with N >= 4, or [outer + e] with e >= 1 and
   outer >= 0. The staircase level [x_k = x_(k-1) .. U - 1], below a
   level [x_(k-1) = L .. U], has extent [U - 1 - x_(k-1)], which is 0
   at the last value of every [x_(k-1)] row (e.g. [k = j..i] under
   [j = 0..i+1] is empty at j = i). A constant-extent level appended
   below the generated ones turns such empty rows into empty middle
   rows. [gen_shape] also says whether it drew either of these two
   levels. Dependence degree is bounded by 3, well inside the
   method's degree-4 closed-form range. *)
let gen_shape : (N.t * int * bool) QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 3 >>= fun depth ->
  int_range 4 8 >>= fun nval ->
  let gen_level k =
    int_range 0 2 >>= fun c ->
    (if k = 0 then return []
     else
       int_range (-1) (k - 1) >>= fun pick ->
       return (if pick < 0 then [] else [ (var_names.(pick), Q.one) ]))
    >>= fun lower_terms ->
    let lower = A.make lower_terms (Q.of_int c) in
    let extent_gens =
      [ (3, int_range 1 4 >>= fun e -> return (A.const (Q.of_int e)));
        (3, int_range 0 2 >>= fun e -> return (A.make [ ("N", Q.one) ] (Q.of_int e))) ]
      @
      if k = 0 then []
      else
        [ ( 2,
            int_range 0 (k - 1) >>= fun p ->
            int_range 1 3 >>= fun e ->
            return (A.make [ (var_names.(p), Q.one) ] (Q.of_int e)) ) ]
    in
    frequency extent_gens >>= fun extent ->
    return { N.var = var_names.(k); lower; upper = A.add lower extent }
  in
  let staircase k (prev : N.level) =
    { N.var = var_names.(k);
      lower = A.var prev.N.var;
      upper = A.add_const (Q.of_int (-1)) prev.N.upper }
  in
  let rec build k acc =
    if k = depth then return (List.rev acc)
    else
      (match acc with
      | (prev, _) :: _ ->
        frequency
          [ (2, gen_level k >>= fun l -> return (l, false));
            (1, return (staircase k prev, true)) ]
      | [] -> gen_level k >>= fun l -> return (l, false))
      >>= fun (l, stair) -> build (k + 1) ((l, stair) :: acc)
  in
  build 0 [] >>= fun drawn ->
  let levels = List.map fst drawn and stair = List.exists snd drawn in
  frequency
    [ (2, return []);
      ( 1,
        int_range 1 3 >>= fun c ->
        return [ { N.var = var_names.(depth); lower = A.const Q.zero; upper = A.const (Q.of_int c) } ]
      ) ]
  >>= fun tail -> return (N.make ~params:[ "N" ] (levels @ tail), nval, stair || tail <> [])

(* Plain draws are returned as drawn: they are non-empty by
   construction and must invert, which the properties assert. Only a
   draw with a staircase or appended level is redrawn when its space
   is empty or {!Trahrhe.Inversion.invert} refuses its nest (shapes
   outside the model are ROADMAP item 2). Plain draws are frequent, so
   the redrawing ends. The runtime and the printers accept the same
   nests, so they share these cases. *)
let rec gen_case st =
  let nest, nval, novel = gen_shape st in
  let keep () =
    let nonempty = ref false in
    N.iterate nest ~param:(fun _ -> nval) (fun _ -> nonempty := true);
    !nonempty && Result.is_ok (Trahrhe.Inversion.invert nest)
  in
  if (not novel) || keep () then (nest, nval) else gen_case st

let print_case (nest, nval) = Format.asprintf "N = %d,@ %a" nval N.pp nest
let arb_case = QCheck.make ~print:print_case gen_case

(* where a region runs: top level, on the pool's workers, or nested
   inside a busy pool region, on spawned domains *)
let placements = [ ((fun f -> f ()), "pool"); (Test_ompsim.in_nested_region, "nested") ]

let schedules =
  [ Ompsim.Schedule.Static; Ompsim.Schedule.Static_chunk 3; Ompsim.Schedule.Dynamic 2;
    Ompsim.Schedule.Guided 2; Ompsim.Schedule.Work_stealing 2 ]

(* widths for the batched lane-walk check: degenerate (1), partial
   blocks likely (4, 8) and wider than most generated nests (32) *)
let vlengths = [ 1; 4; 8; 32 ]

let idx_to_string idx =
  "(" ^ String.concat "," (List.map string_of_int (Array.to_list idx)) ^ ")"

(* One placement x schedule run: collapse, hand out chunks of the flat
   range, recover + walk each chunk, and record what rank saw which
   index. Any deviation from [reference] is reported with enough
   context to replay. *)
let run_one ~bname ~schedule rc reference trip =
  let visited = Array.make trip None in
  let calls = Atomic.make 0 in
  let dupes = Atomic.make 0 in
  Ompsim.Par.parallel_for_chunks ~nthreads:3 ~schedule ~n:trip
    (fun ~thread:_ ~start ~len ->
      let j = ref start in
      Trahrhe.Recovery.walk rc ~pc:(start + 1) ~len (fun idx ->
          (if !j < start + len && !j < trip then
             match visited.(!j) with
             | None -> visited.(!j) <- Some (Array.copy idx)
             | Some _ -> Atomic.incr dupes);
          incr j;
          Atomic.incr calls));
  let where = Printf.sprintf "%s / %s" bname (Ompsim.Schedule.to_string schedule) in
  if Atomic.get calls <> trip then
    QCheck.Test.fail_reportf "%s: %d callbacks for trip count %d" where (Atomic.get calls) trip;
  if Atomic.get dupes <> 0 then
    QCheck.Test.fail_reportf "%s: %d ranks visited more than once" where (Atomic.get dupes);
  Array.iteri
    (fun r v ->
      match v with
      | None -> QCheck.Test.fail_reportf "%s: rank %d never visited" where (r + 1)
      | Some idx ->
        if idx <> reference.(r) then
          QCheck.Test.fail_reportf "%s: rank %d visited %s, nest enumerates %s" where (r + 1)
            (idx_to_string idx) (idx_to_string reference.(r)))
    visited

(* Serial lane-walk check: the §VI-A batched walk must deliver the
   same ranks in the same order as the per-iteration walk, for every
   block width — lane [l] of a block based at [base] holds the index
   of rank [base + l], blocks tile [1..trip] without gap or overlap. *)
let run_lanes ~vlength rc reference trip =
  let depth = Array.length reference.(0) in
  let next = ref 1 in
  Trahrhe.Recovery.walk_lanes rc ~pc:1 ~len:trip ~vlength (fun ~base ~count lanes ->
      if base <> !next then
        QCheck.Test.fail_reportf "vlength %d: block based at %d, expected %d" vlength base !next;
      if count <= 0 || count > vlength then
        QCheck.Test.fail_reportf "vlength %d: block count %d out of 1..%d" vlength count vlength;
      if Array.length lanes <> depth then
        QCheck.Test.fail_reportf "vlength %d: %d lane rows for depth %d" vlength
          (Array.length lanes) depth;
      for l = 0 to count - 1 do
        let want = reference.(base + l - 1) in
        for k = 0 to depth - 1 do
          if lanes.(k).(l) <> want.(k) then
            QCheck.Test.fail_reportf "vlength %d: rank %d lane %d level %d is %d, nest has %d"
              vlength (base + l) l k
              lanes.(k).(l)
              want.(k)
        done
      done;
      next := base + count);
  if !next <> trip + 1 then
    QCheck.Test.fail_reportf "vlength %d: blocks covered 1..%d of trip %d" vlength (!next - 1) trip

(* Fault-injected variant: the same walk driven by a
   supervised unit region under a seeded 30% chunk-failure rate with two
   retries must still visit every rank exactly once with the right
   index — retry re-runs whole chunks (injection fires before the
   body, so no partial work repeats) and the serial fallback covers
   whatever the cancelled region dropped. [lanes] switches the chunk
   body to the batched §VI-A walk. *)
let run_one_resilient ~schedule ?lanes rc reference trip =
  let visited = Array.make trip None in
  let dupes = Atomic.make 0 in
  let faults = Some { Ompsim.Fault.default with p = 0.3; seed = 0x5eed } in
  let record j idx =
    if j >= 0 && j < trip then
      match visited.(j) with
      | None -> visited.(j) <- Some (Array.copy idx)
      | Some _ -> Atomic.incr dupes
  in
  let body ~thread:_ ~start ~len =
    match lanes with
    | None ->
      let j = ref start in
      Trahrhe.Recovery.walk rc ~pc:(start + 1) ~len (fun idx ->
          record !j idx;
          incr j)
    | Some vlength ->
      let depth = Array.length reference.(0) in
      let idx = Array.make depth 0 in
      Trahrhe.Recovery.walk_lanes rc ~pc:(start + 1) ~len ~vlength
        (fun ~base ~count lanes ->
          for l = 0 to count - 1 do
            for k = 0 to depth - 1 do
              idx.(k) <- lanes.(k).(l)
            done;
            record (base + l - 1) idx
          done)
  in
  let where =
    Printf.sprintf "resilient %s%s"
      (Ompsim.Schedule.to_string schedule)
      (match lanes with None -> "" | Some v -> Printf.sprintf " / vlength %d" v)
  in
  (match Test_ompsim.unit_region ~retries:2 ~faults ~nthreads:3 ~schedule ~n:trip body with
  | Ok () -> ()
  | Error e -> QCheck.Test.fail_reportf "%s: %s" where (Ompsim.Par.describe_error e));
  if Atomic.get dupes <> 0 then
    QCheck.Test.fail_reportf "%s: %d ranks visited more than once" where (Atomic.get dupes);
  Array.iteri
    (fun r v ->
      match v with
      | None -> QCheck.Test.fail_reportf "%s: rank %d never visited" where (r + 1)
      | Some idx ->
        if idx <> reference.(r) then
          QCheck.Test.fail_reportf "%s: rank %d visited %s, nest enumerates %s" where (r + 1)
            (idx_to_string idx) (idx_to_string reference.(r)))
    visited

let check_case (nest, nval) =
  let param _ = nval in
  match Trahrhe.Inversion.invert nest with
  | Error e ->
    QCheck.Test.fail_reportf "inversion failed on a valid nest: %s"
      (Trahrhe.Inversion.error_to_string e)
  | Ok inv ->
    let rc = Trahrhe.Recovery.make inv ~param in
    let trip = Trahrhe.Recovery.trip_count rc in
    let buf = ref [] in
    N.iterate nest ~param (fun idx -> buf := Array.copy idx :: !buf);
    let reference = Array.of_list (List.rev !buf) in
    if Array.length reference <> trip then
      QCheck.Test.fail_reportf "trip count %d but the nest enumerates %d iterations" trip
        (Array.length reference);
    if trip = 0 then QCheck.Test.fail_reportf "generator produced an empty nest";
    List.iter
      (fun (place, bname) ->
        place (fun () ->
            List.iter (fun schedule -> run_one ~bname ~schedule rc reference trip) schedules))
      placements;
    List.iter (fun vlength -> run_lanes ~vlength rc reference trip) vlengths;
    true

let check_case_resilient (nest, nval) =
  let param _ = nval in
  match Trahrhe.Inversion.invert nest with
  | Error e ->
    QCheck.Test.fail_reportf "inversion failed on a valid nest: %s"
      (Trahrhe.Inversion.error_to_string e)
  | Ok inv ->
    let rc = Trahrhe.Recovery.make inv ~param in
    let trip = Trahrhe.Recovery.trip_count rc in
    let buf = ref [] in
    N.iterate nest ~param (fun idx -> buf := Array.copy idx :: !buf);
    let reference = Array.of_list (List.rev !buf) in
    List.iter (fun schedule -> run_one_resilient ~schedule rc reference trip) schedules;
    List.iter
      (fun vlength ->
        run_one_resilient ~schedule:(Ompsim.Schedule.Dynamic 2) ~lanes:vlength rc reference trip)
      vlengths;
    true

(* Reduction differential: attach a reduction clause to the same
   random nests and check the parallel combine tree against the serial
   fold — exactly, for every operator, every schedule (D&C included),
   a nested region on spawned domains, the batched lane-walk feeding the fold, and with
   fault injection armed. Sum folds in wrapped native ints (the JIT's
   contract), min/max in native ints below the recovery's headroom;
   prod folds in exact rationals. *)

let red_ops = [ N.Sum; N.Prod; N.Min; N.Max ]
let red_schedules = schedules @ [ Ompsim.Schedule.Dnc 2 ]

type red_value = Rint of int | Rrat of Q.t

let red_to_string = function Rint v -> string_of_int v | Rrat q -> Q.to_string q

let red_equal a b =
  match (a, b) with
  | Rint x, Rint y -> x = y
  | Rrat x, Rrat y -> Q.compare x y = 0
  | _ -> false

let serial_reduce nest rc ~param ~op =
  match op with
  | N.Sum ->
    let acc = ref 0 in
    N.iterate nest ~param (fun idx -> acc := !acc + Trahrhe.Recovery.reduce_value_int rc idx);
    Rint !acc
  | _ ->
    let acc = ref None in
    N.iterate nest ~param (fun idx ->
        let v = Trahrhe.Recovery.reduce_value_rat rc idx in
        acc := Some (match !acc with None -> v | Some a -> N.op_apply op a v));
    (match !acc with
    | Some v -> Rrat v
    | None -> QCheck.Test.fail_reportf "generator produced an empty nest")

let run_reduce ~where ?faults ?lanes ~schedule ~op ~depth rc trip expect =
  let module R = Trahrhe.Recovery in
  (* the service's routing: sum always, and min/max unless the
     recovery is overflow-guarded, fold in native ints *)
  let int_fold = op = N.Sum || (op <> N.Prod && not (R.overflow_guarded rc)) in
  let combine a b =
    match (a, b) with
    | Rint x, Rint y ->
      Rint (match op with N.Min -> Int.min x y | N.Max -> Int.max x y | _ -> x + y)
    | Rrat x, Rrat y -> Rrat (N.op_apply op x y)
    | _ -> QCheck.Test.fail_reportf "%s: mixed partial representations" where
  in
  let body ~thread:_ ~start ~len =
    match lanes with
    | None when int_fold -> Rint (R.walk_reduce_int rc op ~pc:(start + 1) ~len)
    | None -> Rrat (R.walk_reduce_rat rc op ~pc:(start + 1) ~len)
    | Some vlength ->
      (* the §VI-A batched walk feeding the fold: evaluate the clause
         lane by lane and fold locally, one partial per chunk *)
      let idx = Array.make depth 0 in
      let acc = ref None in
      R.walk_lanes rc ~pc:(start + 1) ~len ~vlength (fun ~base:_ ~count lanes ->
          for l = 0 to count - 1 do
            for k = 0 to depth - 1 do
              idx.(k) <- lanes.(k).(l)
            done;
            let v =
              if int_fold then Rint (R.reduce_value_int rc idx) else Rrat (R.reduce_value_rat rc idx)
            in
            acc := Some (match !acc with None -> v | Some a -> combine a v)
          done);
      (match !acc with
      | Some v -> v
      | None -> QCheck.Test.fail_reportf "%s: chunk of %d delivered no lanes" where len)
  in
  (* [faults] absent is [~faults:None]: the plain differential keeps
     its partition even with OMPSIM_FAULTS armed *)
  let result =
    match Ompsim.Par.reduce ~retries:2 ~faults ~nthreads:3 ~schedule ~n:trip ~combine body with
    | Ok r -> r
    | Error e -> QCheck.Test.fail_reportf "%s: %s" where (Ompsim.Par.describe_error e)
  in
  match result with
  | None -> QCheck.Test.fail_reportf "%s: empty reduction over trip count %d" where trip
  | Some v ->
    (* an int extremum is compared as the rational it renders as *)
    let v = match (op, v) with (N.Min | N.Max), Rint x -> Rrat (Q.of_int x) | _ -> v in
    if not (red_equal v expect) then
      QCheck.Test.fail_reportf "%s: reduced to %s, serial fold is %s" where (red_to_string v)
        (red_to_string expect)

let check_case_reduce (nest, nval) =
  let param _ = nval in
  (* one clause nest and one recovery serve every operator *)
  let nest_r = N.with_default_reduce nest in
  match Trahrhe.Inversion.invert nest_r with
  | Error e ->
    QCheck.Test.fail_reportf "inversion failed on a valid nest: %s"
      (Trahrhe.Inversion.error_to_string e)
  | Ok inv ->
    let rc = Trahrhe.Recovery.make inv ~param in
    let trip = Trahrhe.Recovery.trip_count rc in
    let depth = N.depth nest_r in
    let faults = { Ompsim.Fault.default with p = 0.3; seed = 0x5eed } in
    List.iter
      (fun op ->
        let expect = serial_reduce nest_r rc ~param ~op in
        let opname = N.op_to_string op in
        List.iter
          (fun schedule ->
            let sname = Ompsim.Schedule.to_string schedule in
            run_reduce
              ~where:(Printf.sprintf "reduce %s / %s" opname sname)
              ~schedule ~op ~depth rc trip expect;
            run_reduce
              ~where:(Printf.sprintf "reduce %s / %s / faults" opname sname)
              ~faults ~schedule ~op ~depth rc trip expect)
          red_schedules;
        (* nested region on spawned domains: the combine tree is keyed
           by chunk position, so a different worker topology must not
           change a bit *)
        Test_ompsim.in_nested_region (fun () ->
            run_reduce
              ~where:(Printf.sprintf "reduce %s / nested / dnc" opname)
              ~schedule:(Ompsim.Schedule.Dnc 1) ~op ~depth rc trip expect);
        List.iter
          (fun vlength ->
            run_reduce
              ~where:(Printf.sprintf "reduce %s / lanes %d" opname vlength)
              ~lanes:vlength
              ~schedule:(Ompsim.Schedule.Dynamic 2)
              ~op ~depth rc trip expect)
          vlengths)
      red_ops;
    true

let prop_reduce_matches_serial =
  QCheck.Test.make
    ~name:"parallel reduction = serial fold (40 nests x 4 ops x schedules x faults)" ~count:40
    arb_case check_case_reduce

(* D&C soak: the divide-and-conquer splitter's observability counters
   must reconcile exactly against [Schedule.dnc_leaves] ground truth —
   grain_chunks = leaves, splits = leaves - 1, and the reduction
   accounting (partials = leaves, combines = leaves - 1) — while every
   rank is still visited exactly once. *)
let test_dnc_counter_soak () =
  Obsv.Control.with_enabled true @@ fun () ->
  let total = Obsv.Metrics.total in
  List.iter
    (fun (n, grain, nthreads) ->
      let where = Printf.sprintf "n=%d grain=%d threads=%d" n grain nthreads in
      let leaves = Ompsim.Schedule.dnc_leaves ~grain ~n in
      (* ground truth tiles [0, n) contiguously in ascending order *)
      let covered = List.fold_left (fun acc (_, len) -> acc + len) 0 leaves in
      Alcotest.(check int) (where ^ ": leaves tile the range") n covered;
      let rec contiguous = function
        | (s1, l1) :: ((s2, _) :: _ as rest) -> s1 + l1 = s2 && contiguous rest
        | _ -> true
      in
      Alcotest.(check bool) (where ^ ": leaves contiguous") true (contiguous leaves);
      let splits0 = total Ompsim.Stats.dnc_splits in
      let chunks0 = total Ompsim.Stats.dnc_grain_chunks in
      let partials0 = total Ompsim.Stats.reduce_partials in
      let combines0 = total Ompsim.Stats.reduce_combines in
      let seen = Array.make n (Atomic.make 0) in
      Array.iteri (fun q _ -> seen.(q) <- Atomic.make 0) seen;
      let r =
        Ompsim.Par.reduce ~faults:None ~nthreads ~schedule:(Ompsim.Schedule.Dnc grain) ~n
          ~combine:( + ) (fun ~thread:_ ~start ~len ->
            for q = start to start + len - 1 do
              Atomic.incr seen.(q)
            done;
            len)
        |> Result.get_ok
      in
      Alcotest.(check (option int)) (where ^ ": lengths sum to n") (Some n) r;
      let bad = ref 0 in
      Array.iter (fun c -> if Atomic.get c <> 1 then incr bad) seen;
      Alcotest.(check int) (where ^ ": every rank exactly once") 0 !bad;
      let m = List.length leaves in
      Alcotest.(check int)
        (where ^ ": dnc.grain_chunks = leaves")
        m
        (total Ompsim.Stats.dnc_grain_chunks - chunks0);
      Alcotest.(check int)
        (where ^ ": dnc.splits = leaves - 1")
        (m - 1)
        (total Ompsim.Stats.dnc_splits - splits0);
      Alcotest.(check int)
        (where ^ ": reduce.partials = leaves")
        m
        (total Ompsim.Stats.reduce_partials - partials0);
      Alcotest.(check int)
        (where ^ ": reduce.combines = leaves - 1")
        (m - 1)
        (total Ompsim.Stats.reduce_combines - combines0))
    [ (1, 1, 3); (7, 2, 3); (64, 1, 4); (100, 3, 4); (1000, 16, 4); (37, 37, 2) ]

(* Cached-plan differential (ISSUE 5): a plan served by the service
   cache — whether from the in-memory LRU, from a disk round-trip, or
   received as a single-flight follower — must drive the collapsed
   walk to exactly the nest's enumeration, same as a fresh compile.
   The follower is made deterministic by gating the injected compile
   until the cache has counted the waiter. *)

let walk_all rc trip =
  let out = Array.make trip [||] in
  let j = ref 0 in
  Trahrhe.Recovery.walk rc ~pc:1 ~len:trip (fun idx ->
      if !j < trip then out.(!j) <- Array.copy idx;
      incr j);
  if !j <> trip then QCheck.Test.fail_reportf "walk delivered %d of %d ranks" !j trip;
  out

let check_against ~what reference walked =
  Array.iteri
    (fun r idx ->
      if idx <> reference.(r) then
        QCheck.Test.fail_reportf "%s: rank %d walked %s, nest enumerates %s" what (r + 1)
          (idx_to_string idx) (idx_to_string reference.(r)))
    walked

let cached_tmp_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "ompsim-oracle-cache-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     dir)

let follower_plan cache nest =
  (* two concurrent requests; the compile parks until the cache
     reports the second one waiting, so exactly one is a follower *)
  let gate = Mutex.create () in
  let open_flag = ref false in
  let opened = Condition.create () in
  let gated n =
    Mutex.lock gate;
    while not !open_flag do
      Condition.wait opened gate
    done;
    Mutex.unlock gate;
    Service.Plan.compile n
  in
  let results = Array.make 2 (Error "unset") in
  let since = Obsv.Metrics.snapshot () in
  let waits () = Obsv.Metrics.since since Service.Stats.singleflight_waits in
  let domains =
    Array.init 2 (fun r ->
        Domain.spawn (fun () ->
            results.(r) <- Service.Cache.find_or_compile ~compile:gated cache nest))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    waits () < 1
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.0005
  done;
  Mutex.lock gate;
  open_flag := true;
  Condition.broadcast opened;
  Mutex.unlock gate;
  Array.iter Domain.join domains;
  if waits () <> 1 then
    QCheck.Test.fail_reportf "single-flight: expected exactly one follower";
  results

let check_case_cached (nest, nval) =
  let param _ = nval in
  let reference =
    let buf = ref [] in
    N.iterate nest ~param (fun idx -> buf := Array.copy idx :: !buf);
    Array.of_list (List.rev !buf)
  in
  let canonical, renaming = Service.Fingerprint.canonicalize nest in
  let fresh =
    match Service.Plan.compile canonical with
    | Ok p -> p
    | Error e -> QCheck.Test.fail_reportf "plan compile failed on a valid nest: %s" e
  in
  let run_plan ~what plan renaming =
    if not (Service.Plan.equal fresh plan) then
      QCheck.Test.fail_reportf "%s: served plan differs from a fresh compile" what;
    let cparam = Service.Fingerprint.canonical_param renaming param in
    let rc = Service.Plan.recovery plan ~param:cparam in
    let trip = Trahrhe.Recovery.trip_count rc in
    if trip <> Array.length reference then
      QCheck.Test.fail_reportf "%s: trip count %d, nest enumerates %d" what trip
        (Array.length reference);
    check_against ~what reference (walk_all rc trip)
  in
  run_plan ~what:"fresh compile" fresh renaming;
  (* memory hit: second lookup in the same cache *)
  let mem = Service.Cache.create ~capacity:4 ~dir:None () in
  (match Service.Cache.find_or_compile mem nest with
  | Error e -> QCheck.Test.fail_reportf "memory miss path failed: %s" e
  | Ok _ -> ());
  let since = Obsv.Metrics.snapshot () in
  (match Service.Cache.find_or_compile mem nest with
  | Error e -> QCheck.Test.fail_reportf "memory hit path failed: %s" e
  | Ok (plan, rn) ->
    if Obsv.Metrics.since since Service.Stats.cache_hits <> 1 then
      QCheck.Test.fail_reportf "second lookup was not a memory hit";
    run_plan ~what:"memory hit" plan rn);
  (* disk hit: a fresh cache (cold memory) over a populated store *)
  let dir = Lazy.force cached_tmp_dir in
  (match Service.Cache.find_or_compile (Service.Cache.create ~dir:(Some dir) ()) nest with
  | Error e -> QCheck.Test.fail_reportf "disk populate failed: %s" e
  | Ok _ -> ());
  (match Service.Cache.find_or_compile (Service.Cache.create ~dir:(Some dir) ()) nest with
  | Error e -> QCheck.Test.fail_reportf "disk hit path failed: %s" e
  | Ok (plan, rn) -> run_plan ~what:"disk hit" plan rn);
  (* single-flight follower: both racers' plans must drive the walk *)
  let sf = Service.Cache.create ~capacity:4 ~dir:None () in
  Array.iter
    (fun r ->
      match r with
      | Error e -> QCheck.Test.fail_reportf "single-flight request failed: %s" e
      | Ok (plan, rn) -> run_plan ~what:"single-flight" plan rn)
    (follower_plan sf nest);
  true

let prop_cached_plan_matches =
  QCheck.Test.make ~name:"cached plan walk = fresh compile walk (100 nests)" ~count:100
    arb_case check_case_cached

(* Native-specialization differential (ISSUE 6): a recovery served by
   the native tier — plan specialized to a shared object, recovery /
   stepping / hashing running as compiled C — must reproduce the
   interpreted walk and the nest's exact enumeration bit for bit:
   same indices per rank, same chunked checksums for every chunking,
   same lane blocks. Without a C compiler the tier must fall back to
   the interpreted walk and still be exact. *)

let native_tier =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "ompsim-oracle-jit-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     ( Service.Cache.create ~capacity:512 ~dir:(Some dir) (),
       Service.Native.create ~dir:(Some dir) () ))

let check_case_native (nest, nval) =
  let param _ = nval in
  let cache, tier = Lazy.force native_tier in
  let reference =
    let buf = ref [] in
    N.iterate nest ~param (fun idx -> buf := Array.copy idx :: !buf);
    Array.of_list (List.rev !buf)
  in
  match Service.Cache.find_or_compile cache nest with
  | Error e -> QCheck.Test.fail_reportf "plan compile failed on a valid nest: %s" e
  | Ok (plan, renaming) ->
    let module R = Trahrhe.Recovery in
    let cparam = Service.Fingerprint.canonical_param renaming param in
    let rc_i = Service.Plan.recovery plan ~param:cparam in
    let rc_n = Service.Native.recovery tier plan ~param:cparam rc_i in
    let trip = R.trip_count rc_n in
    if trip <> Array.length reference then
      QCheck.Test.fail_reportf "native trip count %d, nest enumerates %d" trip
        (Array.length reference);
    let compiled = Jit.Abi.functional () in
    if compiled <> R.native_enabled rc_n then
      QCheck.Test.fail_reportf "native backend %s with compiler %savailable"
        (if R.native_enabled rc_n then "attached" else "missing")
        (if compiled then "" else "un");
    (* walk: same ranks, same indices, same order as the enumeration *)
    check_against ~what:"native walk" reference (walk_all rc_n trip);
    (* per-rank recovery straight through the object *)
    if compiled then
      for pc = 1 to trip do
        match R.native_recover rc_n pc with
        | None -> QCheck.Test.fail_reportf "native_recover lost the backend at rank %d" pc
        | Some idx ->
          if idx <> reference.(pc - 1) then
            QCheck.Test.fail_reportf "native recover: rank %d is %s, nest enumerates %s" pc
              (idx_to_string idx)
              (idx_to_string reference.(pc - 1))
      done;
    (* chunked checksums: native reduction = interpreted fold, for
       chunk sizes that stress intra-run, run-crossing and whole-space
       calls *)
    List.iter
      (fun chunk ->
        let pc = ref 1 in
        while !pc <= trip do
          let len = min chunk (trip - !pc + 1) in
          let hn = R.walk_hash rc_n ~pc:!pc ~len in
          let hi = R.walk_hash rc_i ~pc:!pc ~len in
          if hn <> hi then
            QCheck.Test.fail_reportf "walk_hash(pc=%d, len=%d): native %d, interpreted %d" !pc
              len hn hi;
          pc := !pc + len
        done)
      [ 1; 3; 7; max 1 (trip / 2); trip ];
    (* lane blocks through the object's block filler *)
    List.iter (fun vlength -> run_lanes ~vlength rc_n reference trip) vlengths;
    true

let prop_native_matches_interpreted =
  QCheck.Test.make ~name:"native specialized walk = interpreted walk (100 nests)" ~count:100
    arb_case check_case_native

(* Run-structured chunks: the engine hands each chunk to its payload
   as innermost runs, so a chunk may start or end mid-run, exactly at
   a run end, or span several runs (and the empty rows between them).
   For arbitrary partitions of [1..trip] — all length 1, a seeded mix
   of run-aligned and random lengths, and the whole space — every
   chunk payload combined over the partition equals the serial fold
   over [Nest.iterate], and [recovery.iterations] grows by exactly the
   trip count per payload. [first]/[increment] enumerate the same
   iterations. *)
let partitions st ~trip ~run_ends =
  let mixed =
    let rec go start acc =
      if start > trip then List.rev acc
      else begin
        let stop =
          match Random.State.int st 3 with
          | 0 ->
            (* end exactly at a run end, zero to two runs ahead *)
            let ends = List.filter (fun e -> e >= start) run_ends in
            let skip = Random.State.int st 3 in
            List.nth ends (min skip (List.length ends - 1))
          | 1 -> start
          | _ -> start + Random.State.int st (1 + (trip / 3))
        in
        let stop = min stop trip in
        go (stop + 1) ((start, stop - start + 1) :: acc)
      end
    in
    go 1 []
  in
  [ ("ones", List.init trip (fun r -> (r + 1, 1))); ("mixed", mixed); ("whole", [ (1, trip) ]) ]

let check_case_partitions ((nest, nval), seed) =
  let module R = Trahrhe.Recovery in
  let param _ = nval in
  let iterations () =
    match Obsv.Metrics.find "recovery.iterations" with Some m -> Obsv.Metrics.total m | None -> 0
  in
  let rc = R.make (Trahrhe.Inversion.invert_exn (N.with_default_reduce nest)) ~param in
  let buf = ref [] in
  N.iterate nest ~param (fun idx -> buf := Array.copy idx :: !buf);
  let reference = Array.of_list (List.rev !buf) in
  let trip = Array.length reference in
  if R.trip_count rc <> trip then
    QCheck.Test.fail_reportf "trip count %d, nest enumerates %d" (R.trip_count rc) trip;
  let depth = N.depth nest in
  let same_prefix a b =
    let rec go k = k >= depth - 1 || (a.(k) = b.(k) && go (k + 1)) in
    go 0
  in
  let run_ends =
    List.filter
      (fun r -> r = trip || not (same_prefix reference.(r - 1) reference.(r)))
      (List.init trip (fun r -> r + 1))
  in
  (* the standalone §V step walks the same space *)
  let idx = R.first rc in
  Array.iteri
    (fun r want ->
      if idx <> want then
        QCheck.Test.fail_reportf "first/increment: rank %d at %s, nest enumerates %s" (r + 1)
          (idx_to_string idx) (idx_to_string want);
      if R.increment rc idx <> (r + 1 < trip) then
        QCheck.Test.fail_reportf "increment past rank %d of %d" (r + 1) trip)
    reference;
  let fold f init = Array.fold_left f init reference in
  let value idx = R.reduce_value_int rc idx in
  let hashes = fold (fun a idx -> a + R.iter_hash idx) 0 in
  let payloads =
    [ ("walk_hash", ( + ), hashes, fun ~pc ~len -> R.walk_hash rc ~pc ~len);
      ( "walk",
        ( + ),
        hashes,
        fun ~pc ~len ->
          let acc = ref 0 in
          R.walk rc ~pc ~len (fun idx -> acc := !acc + R.iter_hash idx);
          !acc );
      ( "walk_lanes 3",
        ( + ),
        hashes,
        fun ~pc ~len ->
          let acc = ref 0 in
          R.walk_lanes rc ~pc ~len ~vlength:3 (fun ~base:_ ~count lanes ->
              acc := !acc + R.block_hash lanes ~count);
          !acc );
      ("sum", ( + ), fold (fun a idx -> a + value idx) 0, fun ~pc ~len ->
        R.walk_reduce_int rc N.Sum ~pc ~len);
      ("min", Int.min, fold (fun a idx -> Int.min a (value idx)) max_int, fun ~pc ~len ->
        R.walk_reduce_int rc N.Min ~pc ~len);
      ("max", Int.max, fold (fun a idx -> Int.max a (value idx)) min_int, fun ~pc ~len ->
        R.walk_reduce_int rc N.Max ~pc ~len) ]
  in
  let st = Random.State.make [| seed |] in
  List.iter
    (fun (pname, chunks) ->
      List.iter
        (fun (name, combine, serial, walk) ->
          let before = iterations () in
          let got =
            List.fold_left
              (fun acc (pc, len) ->
                let v = walk ~pc ~len in
                match acc with None -> Some v | Some a -> Some (combine a v))
              None chunks
          in
          if got <> Some serial then
            QCheck.Test.fail_reportf "%s over %s chunks: %s, serial fold %d" name pname
              (match got with Some v -> string_of_int v | None -> "nothing")
              serial;
          if iterations () - before <> trip then
            QCheck.Test.fail_reportf "%s over %s chunks: recovery.iterations +%d, trip %d" name
              pname
              (iterations () - before)
              trip)
        payloads)
    (partitions st ~trip ~run_ends);
  true

let prop_partitions_match_serial =
  QCheck.Test.make ~name:"run-structured chunks = serial fold for any partition (200 nests)"
    ~count:200
    (QCheck.pair arb_case QCheck.small_nat)
    check_case_partitions

(* Empty-row reproducers: under [j = 0..i+1], the row [k = j..i] is
   empty at j = i, and with [l = 0..3] appended that is an empty
   middle row. Every payload (checksum per-iteration and lanes, sum,
   prod, min, max) must equal the serial reference under every
   schedule, interpreted and, with a working compiler, native. *)
let empty_row_nests () =
  let lvl var lower upper = { N.var; lower; upper } in
  let d3 =
    [ lvl "i" (A.const Q.zero) (A.var "N");
      lvl "j" (A.const Q.zero) (A.make [ ("i", Q.one) ] Q.one);
      lvl "k" (A.var "j") (A.var "i") ]
  in
  [ ("depth 3", N.make ~params:[ "N" ] d3);
    ("depth 4", N.make ~params:[ "N" ] (d3 @ [ lvl "l" (A.const Q.zero) (A.const (Q.of_int 3)) ]))
  ]

(* one compiled reproducer: every schedule x tier (x lane width for
   the interpreted checksum) answers the serial reference *)
let check_empty_rows ~where tier plan ~canonical ~param op =
  let rc = Service.Plan.recovery plan ~param in
  let tiers =
    ("interpreted", rc)
    :: (if Jit.Abi.functional () then [ ("native", Service.Native.recovery tier plan ~param rc) ]
        else [])
  in
  let base =
    { Service.Exec.threads = 3;
      schedule = Ompsim.Schedule.Static;
      lanes = 1;
      repeat = 1;
      retries = 0;
      native = false;
      reduce = op }
  in
  let reference = Service.Exec.serial rc ~nest:canonical ~param base in
  List.iter
    (fun (tname, rc) ->
      let native = tname = "native" in
      if native && not (Trahrhe.Recovery.native_enabled rc) then
        Alcotest.failf "%s: native backend did not attach" where;
      List.iter
        (fun schedule ->
          List.iter
            (fun lanes ->
              let where =
                Printf.sprintf "%s / %s / %s / lanes %d" where tname
                  (Ompsim.Schedule.to_string schedule)
                  lanes
              in
              let opts = { base with schedule; lanes; native } in
              match Service.Exec.run ~reference:(fun _ -> reference) rc opts with
              | Ok _ -> ()
              | Error (Service.Exec.Mismatch _) -> Alcotest.failf "%s: mismatch" where
              | Error _ -> Alcotest.failf "%s: run failed" where)
            (if op = None && not native then [ 1; 4 ] else [ 1 ]))
        red_schedules)
    tiers

let test_empty_row_reproducers () =
  let _, tier = Lazy.force native_tier in
  List.iter
    (fun (name, nest) ->
      List.iter
        (fun op ->
          let where =
            Printf.sprintf "%s / %s" name
              (match op with None -> "checksum" | Some op -> N.op_to_string op)
          in
          let nest = if op = None then nest else N.with_default_reduce nest in
          let canonical, renaming = Service.Fingerprint.canonicalize nest in
          let param = Service.Fingerprint.canonical_param renaming (fun _ -> 9) in
          match Service.Plan.compile canonical with
          | Ok plan -> check_empty_rows ~where tier plan ~canonical ~param op
          | Error e -> Alcotest.failf "%s: plan compile failed: %s" where e)
        [ None; Some N.Sum; Some N.Prod; Some N.Min; Some N.Max ])
    (empty_row_nests ())

(* Store-recovery differential (ISSUE 6): corrupting the published
   [.so] must read as a silent miss — a cold tier recompiles and
   serves an exact native walk, mirroring the plan store's
   corrupt-entry behavior — while a bigint-headroom parameter refuses
   the backend; both reconcile against jit.compile / jit.fallback /
   native.served. *)
let test_native_store_recovery () =
  if not (Jit.Abi.functional ()) then Alcotest.skip ();
  let module R = Trahrhe.Recovery in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ompsim-oracle-jit-store-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let nest =
    N.make ~params:[ "N" ]
      [ { N.var = "i"; lower = A.const Q.zero; upper = A.var "N" };
        { N.var = "j"; lower = A.var "i"; upper = A.make [ ("N", Q.one) ] Q.one } ]
  in
  let cache = Service.Cache.create ~capacity:4 ~dir:(Some dir) () in
  let plan, renaming =
    match Service.Cache.find_or_compile cache nest with
    | Ok x -> x
    | Error e -> Alcotest.failf "plan compile failed: %s" e
  in
  let cparam = Service.Fingerprint.canonical_param renaming (fun _ -> 9) in
  Obsv.Control.with_enabled true @@ fun () ->
  let metric name =
    match Obsv.Metrics.find name with Some m -> Obsv.Metrics.total m | None -> 0
  in
  let compiles0 = metric "jit.compile" in
  let fallbacks0 = metric "jit.fallback" in
  let served0 = metric "native.served" in
  (* populate the store *)
  let t1 = Service.Native.create ~dir:(Some dir) () in
  let rc1 =
    Service.Native.recovery t1 plan ~param:cparam (Service.Plan.recovery plan ~param:cparam)
  in
  Alcotest.(check bool) "first attach engages" true (R.native_enabled rc1);
  let t1_served = metric "native.served" in
  (* unmap before clobbering: overwriting a dlopen'd object in place
     scribbles on live text pages *)
  Service.Native.clear t1;
  (* clobber the object; a cold tier must recompile, not fail *)
  let so =
    match Jit.Compile.emit plan.Service.Plan.inversion with
    | Ok src -> Filename.concat dir (Jit.Compile.so_name src.Jit.Emit.digest)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "object published" true (Sys.file_exists so);
  let oc = open_out_bin so in
  output_string oc "this is not a shared object\n";
  close_out oc;
  let t2 = Service.Native.create ~dir:(Some dir) () in
  let rc2 =
    Service.Native.recovery t2 plan ~param:cparam (Service.Plan.recovery plan ~param:cparam)
  in
  Alcotest.(check bool) "recompiled after corruption" true (R.native_enabled rc2);
  let rc_i = Service.Plan.recovery plan ~param:cparam in
  let trip = R.trip_count rc_i in
  Alcotest.(check int) "hash parity after recompile"
    (R.walk_hash rc_i ~pc:1 ~len:trip)
    (R.walk_hash rc2 ~pc:1 ~len:trip);
  (* bigint headroom refuses the backend and counts the fallback *)
  let big _ = 3_000_000_000 in
  let rc_big = Service.Native.recovery t2 plan ~param:big (Service.Plan.recovery plan ~param:big) in
  Alcotest.(check bool) "overflow-guarded stays interpreted" false (R.native_enabled rc_big);
  Alcotest.(check bool) "overflow guard engaged" true (R.overflow_guarded rc_big);
  (* reconciliation: populate + recompile, exactly one fallback, one
     native attach per tier *)
  Alcotest.(check int) "jit.compile counts both compiles" (compiles0 + 2) (metric "jit.compile");
  Alcotest.(check int) "jit.fallback counts the refusal" (fallbacks0 + 1) (metric "jit.fallback");
  Alcotest.(check int) "first tier served" (served0 + 1) t1_served;
  Alcotest.(check int) "tier served" (t1_served + 1) (metric "native.served");
  Service.Native.clear t2

(* Overflow-guarded min/max: on a guarded recovery the clause values
   may pass the native range, so min/max must keep folding in exact
   rationals. [walk_reduce_int] refuses them; [walk_reduce_rat] on the
   store test's big-parameter triangle equals the exact fold over
   binary-searched indices; and a small nest whose clause alone trips
   the guard reduces through [Service.Exec] to extrema past [max_int]. *)
let test_guarded_minmax_rational () =
  let module R = Trahrhe.Recovery in
  let tri =
    N.make ~params:[ "N" ]
      [ { N.var = "i"; lower = A.const Q.zero; upper = A.var "N" };
        { N.var = "j"; lower = A.var "i"; upper = A.make [ ("N", Q.one) ] Q.one } ]
  in
  (* the triangle at N = 3e9: [rc_big] of the store test *)
  let rc_big =
    R.make
      (Trahrhe.Inversion.invert_exn (N.with_default_reduce tri))
      ~param:(fun _ -> 3_000_000_000)
  in
  Alcotest.(check bool) "guard engaged" true (R.overflow_guarded rc_big);
  (* value = 2^60 * i + j: the clause alone reaches the guard *)
  let value =
    Polymath.Polynomial.add
      (Polymath.Polynomial.scale (Q.of_int (1 lsl 60)) (Polymath.Polynomial.var "i"))
      (Polymath.Polynomial.var "j")
  in
  let nest = N.with_reduce tri (Some value) in
  let param _ = 9 in
  let rc = R.make (Trahrhe.Inversion.invert_exn nest) ~param in
  Alcotest.(check bool) "clause trips the guard" true (R.overflow_guarded rc);
  List.iter
    (fun op ->
      let opname = N.op_to_string op in
      (match R.walk_reduce_int rc_big op ~pc:1 ~len:4 with
      | _ -> Alcotest.failf "%s: walk_reduce_int folded a guarded recovery" opname
      | exception Invalid_argument _ -> ());
      let pc = (R.trip_count rc_big / 2) + 17 and len = 40 in
      let expect = ref None in
      for r = pc to pc + len - 1 do
        let v = R.reduce_value_rat rc_big (R.recover rc_big r) in
        expect := Some (match !expect with None -> v | Some a -> N.op_apply op a v)
      done;
      Alcotest.(check string) (opname ^ ": guarded chunk = exact fold")
        (Q.to_string (Option.get !expect))
        (Q.to_string (R.walk_reduce_rat rc_big op ~pc ~len));
      let opts =
        { Service.Exec.threads = 3;
          schedule = Ompsim.Schedule.Dynamic 2;
          lanes = 1;
          repeat = 2;
          retries = 0;
          native = false;
          reduce = Some op }
      in
      let reference = Service.Exec.serial rc ~nest ~param opts in
      (* i in [0, 9), j in [i, 10): max = 2^63 + 9, past the int range; min = 0 *)
      let exact =
        if op = N.Max then Q.add (Q.mul (Q.of_int (1 lsl 60)) (Q.of_int 8)) (Q.of_int 9)
        else Q.zero
      in
      (match reference with
      | Some (Service.Exec.Rat q) ->
        Alcotest.(check string) (opname ^ ": exact serial extremum") (Q.to_string exact)
          (Q.to_string q)
      | _ -> Alcotest.failf "%s: serial reference is not a rational" opname);
      match Service.Exec.run ~reference:(fun _ -> reference) rc opts with
      | Ok _ -> ()
      | Error (Service.Exec.Mismatch _) -> Alcotest.failf "%s: guarded parallel fold wrapped" opname
      | Error _ -> Alcotest.failf "%s: guarded exec failed" opname)
    [ N.Min; N.Max ]

(* -------- Numeric inversion differentials (ISSUE 10) -------- *)

(* Depth 5-7 simplicial nests and the deep registry kernels: the
   outermost level equation has degree >= 5, past the radical cap, so
   the printed recovery of level 0 is a search (Closed_form.Numeric).
   The collapsed walk must still reproduce the exact lexicographic
   enumeration in every placement, schedule and lane width — the same
   bar the closed-form nests clear. *)

let simplex_nest depth =
  let levels =
    List.init depth (fun k ->
        let lower =
          if k = 0 then A.const Q.zero else A.var (Printf.sprintf "x%d" (k - 1))
        in
        { N.var = Printf.sprintf "x%d" k; lower; upper = A.var "N" })
  in
  N.make ~params:[ "N" ] levels

(* degree-5 through products of dependent extents rather than depth *)
let mixed5_nest () =
  let dep v = { N.var = v; lower = A.const Q.zero; upper = A.make [ ("i", Q.one) ] Q.one } in
  N.make ~params:[ "N" ]
    [ { N.var = "i"; lower = A.const Q.zero; upper = A.var "N" };
      dep "j"; dep "k"; dep "l"; dep "m" ]

let registry_nest name =
  match Kernels.Registry.find name with
  | Some k -> k.Kernels.Kernel.nest
  | None -> Alcotest.failf "kernel %s not registered" name

let deep_cases () =
  [ ("simplex depth 5", simplex_nest 5, 5);
    ("simplex depth 6", simplex_nest 6, 4);
    ("simplex depth 7", simplex_nest 7, 4);
    ("mixed dependent depth 5", mixed5_nest (), 4);
    ("simplex5 kernel", registry_nest "simplex5", 4);
    ("simplex5_tiled kernel", registry_nest "simplex5_tiled", 3) ]

let test_deep_numeric_walks () =
  List.iter
    (fun (name, nest, nval) ->
      (match Trahrhe.Closed_form.invert nest with
      | Error e ->
        Alcotest.failf "%s: inversion failed: %s" name (Trahrhe.Closed_form.error_to_string e)
      | Ok forms -> (
        match forms.Trahrhe.Closed_form.levels.(0) with
        | Trahrhe.Closed_form.Numeric _ -> ()
        | _ -> Alcotest.failf "%s: expected numeric recovery at level 0" name));
      ignore (check_case (nest, nval)))
    (deep_cases ())

(* Counter reconciliation: every recovery of a depth-5 plan must bump
   inversion.numeric once per searched (non-last) level and
   inversion.closed_form once for the innermost formula, and the
   per-level isolate_level diagnostic must return a certificate
   enclosing the recovered index at every searched level. *)
let test_numeric_counter_soak () =
  Obsv.Control.with_enabled true @@ fun () ->
  let module R = Trahrhe.Recovery in
  let k = Option.get (Kernels.Registry.find "simplex5") in
  let rc = Kernels.Kernel.recovery k ~n:5 in
  let trip = R.trip_count rc in
  Alcotest.(check int) "simplex5 trip at n=5" 126 trip;
  let levels = R.depth rc in
  let n0 = R.numeric_recoveries () and c0 = R.closed_form_recoveries () in
  for pc = 1 to trip do
    ignore (R.recover rc pc)
  done;
  Alcotest.(check int) "numeric = recoveries x searched levels" ((levels - 1) * trip)
    (R.numeric_recoveries () - n0);
  Alcotest.(check int) "closed_form = recoveries x innermost level" trip
    (R.closed_form_recoveries () - c0);
  (* the runtime certificate: enclosure brackets the recovered index *)
  List.iter
    (fun pc ->
      let idx = R.recover rc pc in
      for level = 0 to levels - 2 do
        match R.isolate_level rc idx ~pc ~level with
        | Some (Ok e) ->
          let lo = Q.to_float e.Rootsolve.Isolate.enc_lo
          and hi = Q.to_float e.Rootsolve.Isolate.enc_hi in
          if lo > float_of_int (idx.(level) + 1) || hi < float_of_int idx.(level) then
            Alcotest.failf "pc=%d: level %d enclosure [%f, %f] misses index %d" pc level lo hi
              idx.(level)
        | Some (Error e) ->
          Alcotest.failf "pc=%d: level %d isolation failed: %s" pc level
            (Rootsolve.Isolate.error_to_string e)
        | None -> Alcotest.failf "pc=%d: searched level %d has no diagnostic" pc level
      done;
      (* the innermost level's exact formula has no root to isolate *)
      Alcotest.(check bool) "innermost level has no isolation diagnostic" true
        (R.isolate_level rc idx ~pc ~level:(levels - 1) = None))
    [ 1; 2; 63; 125; 126 ]

(* A depth-5 nest the seed rejected: compiles to a plan, round-trips
   the disk cache through the codec unchanged, drives the walk to the
   exact enumeration, and engages the native JIT tier (the emitted
   per-level bracketed search is recovery-kind agnostic). *)
let test_deep_plan_roundtrip_native () =
  let module R = Trahrhe.Recovery in
  let nest = registry_nest "simplex5" in
  let param _ = 4 in
  let reference =
    let buf = ref [] in
    N.iterate nest ~param (fun idx -> buf := Array.copy idx :: !buf);
    Array.of_list (List.rev !buf)
  in
  let canonical, _ = Service.Fingerprint.canonicalize nest in
  let fresh =
    match Service.Plan.compile canonical with
    | Ok p -> p
    | Error e -> Alcotest.failf "deep plan compile failed: %s" e
  in
  (* the generated C recovers the outer levels by bracketed search *)
  let c =
    Codegen.C_print.to_string
      (Codegen.Schemes.naive fresh.Service.Plan.inversion ~body:[ Codegen.C_ast.Raw "S();" ])
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "C emits the bracketed search" true (contains c "nlo_");
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ompsim-oracle-deep-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (match Service.Cache.find_or_compile (Service.Cache.create ~dir:(Some dir) ()) nest with
  | Error e -> Alcotest.failf "disk populate failed: %s" e
  | Ok _ -> ());
  let since = Obsv.Metrics.snapshot () in
  match Service.Cache.find_or_compile (Service.Cache.create ~dir:(Some dir) ()) nest with
  | Error e -> Alcotest.failf "disk reload failed: %s" e
  | Ok (plan, rn) ->
    Alcotest.(check int) "served from disk" 1
      (Obsv.Metrics.since since Service.Stats.cache_disk_hits);
    Alcotest.(check bool) "codec round-trip preserved the plan" true
      (Service.Plan.equal fresh plan);
    let cparam = Service.Fingerprint.canonical_param rn param in
    let rc = Service.Plan.recovery plan ~param:cparam in
    let trip = R.trip_count rc in
    Alcotest.(check int) "trip = enumeration" (Array.length reference) trip;
    check_against ~what:"deep disk-served walk" reference (walk_all rc trip);
    (* native tier: numeric plans keep the compiled fast path *)
    let tier = Service.Native.create ~dir:(Some dir) () in
    let rc_n = Service.Native.recovery tier plan ~param:cparam rc in
    Alcotest.(check bool) "native engages iff compiler present" (Jit.Abi.functional ())
      (R.native_enabled rc_n);
    check_against ~what:"deep native walk" reference (walk_all rc_n trip);
    if Jit.Abi.functional () then begin
      Alcotest.(check int) "hash parity native vs interpreted"
        (R.walk_hash rc ~pc:1 ~len:trip)
        (R.walk_hash rc_n ~pc:1 ~len:trip);
      for pc = 1 to trip do
        match R.native_recover rc_n pc with
        | None -> Alcotest.failf "native_recover lost the backend at rank %d" pc
        | Some idx ->
          if idx <> reference.(pc - 1) then
            Alcotest.failf "native recover: rank %d is %s, nest enumerates %s" pc
              (idx_to_string idx)
              (idx_to_string reference.(pc - 1))
      done
    end;
    Service.Native.clear tier

(* 200 random nests; each runs in both placements under all five
   schedules, plus the serial lane-walk at every width. The seed is pinned:
   identical nests every run, no flaking. *)
let prop_walk_matches_enumeration =
  QCheck.Test.make ~name:"collapsed walk = lexicographic enumeration (200 nests)" ~count:200
    arb_case check_case

let prop_resilient_walk_matches =
  QCheck.Test.make
    ~name:"fault-injected resilient walk = lexicographic enumeration (60 nests)" ~count:60
    arb_case check_case_resilient

let rand = Random.State.make [| 0x7ca1e5ce |]

let suites =
  [ ( "oracle",
      [ QCheck_alcotest.to_alcotest ~rand prop_walk_matches_enumeration;
        QCheck_alcotest.to_alcotest ~rand prop_resilient_walk_matches;
        QCheck_alcotest.to_alcotest ~rand prop_reduce_matches_serial;
        Alcotest.test_case "d&c counters reconcile with dnc_leaves ground truth" `Quick
          test_dnc_counter_soak;
        QCheck_alcotest.to_alcotest ~rand prop_cached_plan_matches;
        QCheck_alcotest.to_alcotest ~rand prop_native_matches_interpreted;
        QCheck_alcotest.to_alcotest ~rand prop_partitions_match_serial;
        Alcotest.test_case "empty rows: every payload x schedule x tier = serial" `Quick
          test_empty_row_reproducers;
        Alcotest.test_case "corrupt .so is a silent miss (recompile + fallback counters)" `Quick
          test_native_store_recovery;
        Alcotest.test_case "overflow-guarded min/max fold in exact rationals" `Quick
          test_guarded_minmax_rational;
        Alcotest.test_case "depth 5-7 numeric walks = enumeration (placements x schedules x lanes)"
          `Quick test_deep_numeric_walks;
        Alcotest.test_case "inversion counters reconcile + runtime certificates" `Quick
          test_numeric_counter_soak;
        Alcotest.test_case "deep plan: disk round-trip, exact walk, native JIT" `Quick
          test_deep_plan_roundtrip_native ] ) ]
