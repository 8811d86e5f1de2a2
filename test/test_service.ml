(* The service layer (ISSUE 5): exact codec round-trips over random
   values, fingerprint alpha-invariance, the two-tier plan cache
   (LRU, single-flight, disk store with corrupt/stale recovery), and
   the line-protocol front end. *)

module A = Polymath.Affine
module P = Polymath.Polynomial
module Q = Zmath.Rat
module N = Trahrhe.Nest
module E = Symx.Expr
module Fp = Service.Fingerprint
module Plan = Service.Plan
module Cache = Service.Cache
module Server = Service.Server

let rand = Random.State.make [| 0x5e2f1ce5 |]
let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~rand) tests

(* ---------------------------------------------------------------- *)
(* Codec round trips                                                *)
(* ---------------------------------------------------------------- *)

(* through the text form, not just the sexp tree: the disk tier
   stores rendered strings, so the parser is part of the round trip *)
let reparse sexp =
  match Service.Sexp.of_string (Service.Sexp.to_string sexp) with
  | Ok s -> s
  | Error e -> failwith ("sexp did not reparse: " ^ e)

let gen_rat =
  QCheck.Gen.(
    map2
      (fun n d -> Q.of_ints n (1 + abs d))
      (int_range (-1000000) 1000000)
      (int_range 0 9999))

let arb_rat = QCheck.make ~print:Q.to_string gen_rat

let prop_rat_roundtrip =
  QCheck.Test.make ~name:"codec: rational round-trips exactly" ~count:500 arb_rat (fun q ->
      Q.equal q (Service.Codec.to_rat (reparse (Service.Codec.of_rat q))))

let gen_poly =
  (* rational coefficients force the decimal-text path for both
     numerators and denominators *)
  QCheck.Gen.(
    map
      (fun coeffs ->
        List.fold_left
          (fun acc (c, d, ei, ej) ->
            P.add acc
              (P.scale
                 (Q.of_ints c (1 + d))
                 (P.mul (P.pow (P.var "i") ei) (P.pow (P.var "j") ej))))
          P.zero coeffs)
      (list_size (int_range 0 6)
         (quad (int_range (-50) 50) (int_range 0 6) (int_range 0 4) (int_range 0 4))))

let arb_poly = QCheck.make ~print:P.to_string gen_poly

let prop_poly_roundtrip =
  QCheck.Test.make ~name:"codec: polynomial round-trips exactly" ~count:300 arb_poly (fun p ->
      P.equal p (Service.Codec.to_poly (reparse (Service.Codec.of_poly p))))

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (3, map (fun q -> E.Const q) gen_rat);
        (3, oneofl [ E.Var "pc"; E.Var "p0"; E.Var "x1" ]);
        (1, return E.I) ]
  in
  (* raw constructors on purpose: the codec must carry any tree the
     inversion pipeline might build, normalized or not *)
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (2, map (fun xs -> E.Sum xs) (list_size (int_range 2 3) (self (n / 2))));
            (2, map (fun xs -> E.Prod xs) (list_size (int_range 2 3) (self (n / 2))));
            ( 2,
              map2
                (fun e q -> E.Pow (e, q))
                (self (n / 2))
                (oneofl [ Q.of_ints 1 2; Q.of_ints 1 3; Q.of_int (-1); Q.of_int 2 ]) ) ])
    4

let arb_expr = QCheck.make ~print:E.to_string gen_expr

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"codec: expression tree round-trips exactly" ~count:300 arb_expr
    (fun e -> E.equal e (Service.Codec.to_expr (reparse (Service.Codec.of_expr e))))

(* the oracle's nest family: valid, non-empty, degree within the
   closed-form range — reused here so the plan codec sees real
   inversion output (radicals and all), not toy values *)
let var_names = [| "i"; "j"; "k" |]

let gen_nest : N.t QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 3 >>= fun depth ->
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
  let rec build k acc =
    if k = depth then return (List.rev acc)
    else gen_level k >>= fun l -> build (k + 1) (l :: acc)
  in
  build 0 [] >>= fun levels -> return (N.make ~params:[ "N" ] levels)

let arb_nest = QCheck.make ~print:(Format.asprintf "%a" N.pp) gen_nest

let compile_exn nest =
  let canonical, _ = Fp.canonicalize nest in
  match Plan.compile canonical with
  | Ok p -> p
  | Error e -> QCheck.Test.fail_reportf "plan compile failed on a valid nest: %s" e

let prop_plan_roundtrip =
  QCheck.Test.make ~name:"codec: compiled plan round-trips exactly" ~count:100 arb_nest
    (fun nest ->
      let p = compile_exn nest in
      match Plan.decode (Plan.encode p) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok p' -> Plan.equal p p')

(* ---------------------------------------------------------------- *)
(* Fingerprint                                                       *)
(* ---------------------------------------------------------------- *)

let tri ~iv ~jv ~pv =
  N.make ~params:[ pv ]
    [ { N.var = iv; lower = A.const Q.zero; upper = A.make [ (pv, Q.one) ] Q.zero };
      { N.var = jv;
        lower = A.make [ (iv, Q.one) ] Q.zero;
        upper = A.make [ (pv, Q.one) ] Q.one
      }
    ]

let test_fp_alpha_invariant () =
  Alcotest.(check string)
    "renamed nest has the same fingerprint"
    (Fp.hash (tri ~iv:"i" ~jv:"j" ~pv:"N"))
    (Fp.hash (tri ~iv:"a" ~jv:"b" ~pv:"M"))

let test_fp_term_order_invariant () =
  (* Affine.make canonicalizes term order, so the textual order the
     nest was built with must not leak into the hash *)
  let upper1 = A.make [ ("N", Q.one); ("i", Q.one) ] Q.zero in
  let upper2 = A.make [ ("i", Q.one); ("N", Q.one) ] Q.zero in
  let nest u =
    N.make ~params:[ "N" ]
      [ { N.var = "i"; lower = A.const Q.zero; upper = A.make [ ("N", Q.one) ] Q.zero };
        { N.var = "j"; lower = A.const Q.zero; upper = u }
      ]
  in
  Alcotest.(check string) "term order" (Fp.hash (nest upper1)) (Fp.hash (nest upper2))

let test_fp_distinguishes () =
  let a = tri ~iv:"i" ~jv:"j" ~pv:"N" in
  let b =
    N.make ~params:[ "N" ]
      [ { N.var = "i"; lower = A.const Q.zero; upper = A.make [ ("N", Q.one) ] Q.zero };
        { N.var = "j";
          lower = A.make [ ("i", Q.one) ] Q.zero;
          upper = A.make [ ("N", Q.one) ] (Q.of_int 2)
        }
      ]
  in
  if Fp.hash a = Fp.hash b then Alcotest.fail "different nests collided"

let test_fp_idempotent () =
  let nest = tri ~iv:"row" ~jv:"col" ~pv:"SIZE" in
  let canonical, _ = Fp.canonicalize nest in
  let canonical2, renaming2 = Fp.canonicalize canonical in
  Alcotest.(check string) "digest stable" (Fp.digest canonical) (Fp.digest canonical2);
  List.iter
    (fun (orig, canon) -> Alcotest.(check string) "identity renaming" orig canon)
    (renaming2.Fp.iterators @ renaming2.Fp.params)

let test_fp_canonical_param () =
  let _, renaming = Fp.canonicalize (tri ~iv:"i" ~jv:"j" ~pv:"N") in
  let param = function "N" -> 42 | s -> Alcotest.failf "asked for %s" s in
  let cparam = Fp.canonical_param renaming param in
  Alcotest.(check int) "p0 reads N" 42 (cparam "p0");
  Alcotest.check_raises "unknown canonical name"
    (Invalid_argument "Fingerprint.canonical_param: unknown parameter q9") (fun () ->
      ignore (cparam "q9"))

let rename_nest (nest : N.t) =
  let table =
    [ ("i", "outer"); ("j", "mid"); ("k", "inner"); ("N", "SZ") ]
  in
  let rn s = match List.assoc_opt s table with Some s' -> s' | None -> s in
  let rn_affine a =
    A.make (List.map (fun (v, c) -> (rn v, c)) (A.terms a)) (A.const_part a)
  in
  N.make
    ~params:(List.map rn nest.N.params)
    (List.map
       (fun (l : N.level) ->
         { N.var = rn l.var; lower = rn_affine l.lower; upper = rn_affine l.upper })
       nest.N.levels)

let prop_fp_alpha_invariant =
  QCheck.Test.make ~name:"fingerprint: alpha-renaming never changes the hash" ~count:200
    arb_nest (fun nest -> Fp.hash nest = Fp.hash (rename_nest nest))

(* ---------------------------------------------------------------- *)
(* Cache: in-memory tier                                             *)
(* ---------------------------------------------------------------- *)

(* distinct fingerprints by construction: the extent constant differs *)
let nest_of_seed s =
  N.make ~params:[ "N" ]
    [ { N.var = "i"; lower = A.const Q.zero; upper = A.make [ ("N", Q.one) ] Q.zero };
      { N.var = "j";
        lower = A.make [ ("i", Q.one) ] Q.zero;
        upper = A.make [ ("N", Q.one) ] (Q.of_int (1 + s))
      }
    ]

let counting_compile calls =
  fun nest ->
   incr calls;
   Plan.compile nest

let get_plan = function
  | Ok (plan, _) -> plan
  | Error e -> Alcotest.failf "cache lookup failed: %s" e

(* caches book into the process-wide [cache.*] ledger, so a test reads
   the counters' advance since its own snapshot *)
let counted since = Obsv.Metrics.since since

let check_stats what ~hits ~disk_hits ~misses ~evictions ~waits since =
  let d = counted since in
  Alcotest.(check int) (what ^ ": hits") hits (d Service.Stats.cache_hits);
  Alcotest.(check int) (what ^ ": disk hits") disk_hits (d Service.Stats.cache_disk_hits);
  Alcotest.(check int) (what ^ ": misses") misses (d Service.Stats.cache_misses);
  Alcotest.(check int) (what ^ ": evictions") evictions (d Service.Stats.cache_evictions);
  Alcotest.(check int) (what ^ ": single-flight waits") waits (d Service.Stats.singleflight_waits)

let test_cache_hit_miss () =
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let calls = ref 0 in
  let compile = counting_compile calls in
  let p1 = get_plan (Cache.find_or_compile ~compile cache (nest_of_seed 0)) in
  let p2 = get_plan (Cache.find_or_compile ~compile cache (nest_of_seed 0)) in
  Alcotest.(check int) "compiled once" 1 !calls;
  Alcotest.(check bool) "same plan" true (Plan.equal p1 p2);
  check_stats "after hit" ~hits:1 ~disk_hits:0 ~misses:1 ~evictions:0 ~waits:0
    since;
  Alcotest.(check int) "one entry" 1 (Cache.size cache)

let test_cache_alpha_hit () =
  let since = Obsv.Metrics.snapshot () in
  (* alpha-equivalent nests share the entry: second lookup is a hit *)
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let calls = ref 0 in
  let compile = counting_compile calls in
  ignore (get_plan (Cache.find_or_compile ~compile cache (tri ~iv:"i" ~jv:"j" ~pv:"N")));
  ignore (get_plan (Cache.find_or_compile ~compile cache (tri ~iv:"a" ~jv:"b" ~pv:"M")));
  Alcotest.(check int) "compiled once for both spellings" 1 !calls;
  check_stats "alpha" ~hits:1 ~disk_hits:0 ~misses:1 ~evictions:0 ~waits:0 since

let test_cache_lru_eviction () =
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:2 ~dir:None () in
  let calls = ref 0 in
  let compile = counting_compile calls in
  let req s = ignore (get_plan (Cache.find_or_compile ~compile cache (nest_of_seed s))) in
  req 0;
  (* order: A *)
  req 1;
  (* B A *)
  req 0;
  (* A B   <- the hit refreshes A, so B is now least-recent *)
  req 2;
  (* C A, B evicted *)
  check_stats "after eviction" ~hits:1 ~disk_hits:0 ~misses:3 ~evictions:1 ~waits:0 since;
  Alcotest.(check int) "bounded" 2 (Cache.size cache);
  req 0;
  Alcotest.(check int) "A survived (refreshed by its hit)" 3 !calls;
  req 1;
  Alcotest.(check int) "B was the LRU victim" 4 !calls

let test_cache_failure_not_cached () =
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let attempts = ref 0 in
  let flaky nest =
    incr attempts;
    if !attempts = 1 then Error "boom" else Plan.compile nest
  in
  (match Cache.find_or_compile ~compile:flaky cache (nest_of_seed 0) with
  | Error e -> Alcotest.(check string) "failure surfaces" "boom" e
  | Ok _ -> Alcotest.fail "first compile should fail");
  Alcotest.(check int) "nothing cached after failure" 0 (Cache.size cache);
  ignore (get_plan (Cache.find_or_compile ~compile:flaky cache (nest_of_seed 0)));
  Alcotest.(check int) "retried, not poisoned" 2 !attempts;
  check_stats "flaky" ~hits:0 ~disk_hits:0 ~misses:2 ~evictions:0 ~waits:0 since

(* Deterministic single-flight: the injected compile parks on a gate
   that the test only opens after the cache reports every follower
   arrived, so followers never race past the in-flight window. *)
let singleflight ~nrequests ~compile_of_gate cache nest =
  let gate = Mutex.create () in
  let open_flag = ref false in
  let opened = Condition.create () in
  let gated nest =
    Mutex.lock gate;
    while not !open_flag do
      Condition.wait opened gate
    done;
    Mutex.unlock gate;
    compile_of_gate nest
  in
  let results = Array.make nrequests (Error "unset") in
  let since = Obsv.Metrics.snapshot () in
  let domains =
    Array.init nrequests (fun r ->
        Domain.spawn (fun () ->
            results.(r) <- Cache.find_or_compile ~compile:gated cache nest))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    counted since Service.Stats.singleflight_waits < nrequests - 1
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  Mutex.lock gate;
  open_flag := true;
  Condition.broadcast opened;
  Mutex.unlock gate;
  Array.iter Domain.join domains;
  results

let test_cache_singleflight () =
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let calls = ref 0 in
  let results =
    singleflight ~nrequests:4 ~compile_of_gate:(counting_compile calls) cache
      (nest_of_seed 0)
  in
  Alcotest.(check int) "one compile for four concurrent requests" 1 !calls;
  let fresh = compile_exn (nest_of_seed 0) in
  Array.iter
    (fun r -> Alcotest.(check bool) "every caller got the plan" true (Plan.equal fresh (get_plan r)))
    results;
  check_stats "single-flight" ~hits:0 ~disk_hits:0 ~misses:1 ~evictions:0 ~waits:3 since

let test_cache_singleflight_failure () =
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let results =
    singleflight ~nrequests:3 ~compile_of_gate:(fun _ -> Error "boom") cache (nest_of_seed 0)
  in
  Array.iter
    (fun r ->
      match r with
      | Error e -> Alcotest.(check string) "waiters see the winner's error" "boom" e
      | Ok _ -> Alcotest.fail "compile failure must reach every caller")
    results;
  Alcotest.(check int) "failure cached nothing" 0 (Cache.size cache);
  check_stats "single-flight failure" ~hits:0 ~disk_hits:0 ~misses:1 ~evictions:0 ~waits:2
    since;
  (* the flight is gone: a later request compiles afresh and succeeds *)
  let calls = ref 0 in
  ignore (get_plan (Cache.find_or_compile ~compile:(counting_compile calls) cache (nest_of_seed 0)));
  Alcotest.(check int) "recovered after failed flight" 1 !calls

(* ---------------------------------------------------------------- *)
(* Cache: disk tier                                                  *)
(* ---------------------------------------------------------------- *)

let tmp_counter = ref 0

let with_temp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ompsim-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let plan_file dir nest = Filename.concat dir (Fp.hash nest ^ ".plan")

let test_disk_roundtrip () =
  with_temp_dir @@ fun dir ->
  let nest = nest_of_seed 0 in
  let writer = Cache.create ~capacity:4 ~dir:(Some dir) () in
  let p = get_plan (Cache.find_or_compile writer nest) in
  Alcotest.(check bool) "entry on disk" true (Sys.file_exists (plan_file dir nest));
  (* a fresh cache (cold memory) restores the identical plan from disk *)
  let since = Obsv.Metrics.snapshot () in
  let reader = Cache.create ~capacity:4 ~dir:(Some dir) () in
  let calls = ref 0 in
  let p' = get_plan (Cache.find_or_compile ~compile:(counting_compile calls) reader nest) in
  Alcotest.(check int) "no recompile" 0 !calls;
  Alcotest.(check bool) "identical plan" true (Plan.equal p p');
  check_stats "disk hit" ~hits:1 ~disk_hits:1 ~misses:0 ~evictions:0 ~waits:0 since;
  (* and the disk hit landed in memory: next lookup skips the disk *)
  Sys.remove (plan_file dir nest);
  ignore (get_plan (Cache.find_or_compile ~compile:(counting_compile calls) reader nest));
  Alcotest.(check int) "promoted to memory" 0 !calls

let read_entry path =
  match Service.Envelope.unwrap (In_channel.with_open_bin path In_channel.input_all) with
  | Ok payload -> Plan.decode payload
  | Error `Corrupt -> Error "envelope failed to verify"

let test_disk_corrupt_entry () =
  with_temp_dir @@ fun dir ->
  let nest = nest_of_seed 0 in
  let path = plan_file dir nest in
  let oc = open_out path in
  output_string oc "total garbage, not a plan\n";
  close_out oc;
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:(Some dir) () in
  let calls = ref 0 in
  let p = get_plan (Cache.find_or_compile ~compile:(counting_compile calls) cache nest) in
  Alcotest.(check int) "corrupt entry recompiled" 1 !calls;
  check_stats "corrupt" ~hits:0 ~disk_hits:0 ~misses:1 ~evictions:0 ~waits:0 since;
  (* the corrupt bytes were quarantined, not silently overwritten *)
  Alcotest.(check int) "quarantine counted" 1 (counted since Service.Stats.cache_quarantined);
  let bad = Filename.concat dir (Fp.hash nest ^ ".bad") in
  Alcotest.(check bool) "corrupt bytes preserved in .bad" true (Sys.file_exists bad);
  Alcotest.(check string)
    "quarantined bytes are the planted ones" "total garbage, not a plan\n"
    (In_channel.with_open_bin bad In_channel.input_all);
  (* the recompile overwrote the bad entry with a loadable one *)
  (match read_entry path with
  | Ok p' -> Alcotest.(check bool) "overwritten with a valid plan" true (Plan.equal p p')
  | Error e -> Alcotest.failf "entry still corrupt after recompile: %s" e)

let test_disk_stale_version () =
  with_temp_dir @@ fun dir ->
  let nest = nest_of_seed 0 in
  let p = compile_exn nest in
  let encoded = Plan.encode p in
  let current = Printf.sprintf "(version %d)" Plan.format_version in
  let at =
    (* find the header's version clause; the codec never emits this
       exact atom pair anywhere else *)
    let rec find i =
      if i + String.length current > String.length encoded then
        Alcotest.failf "encoded plan lacks %s" current
      else if String.sub encoded i (String.length current) = current then i
      else find (i + 1)
    in
    find 0
  in
  let stale =
    String.sub encoded 0 at ^ "(version 9999)"
    ^ String.sub encoded
        (at + String.length current)
        (String.length encoded - at - String.length current)
  in
  let oc = open_out (plan_file dir nest) in
  (* a well-formed envelope around a stale payload: this is the
     old-format path (ordinary miss), not the corruption path *)
  output_string oc (Service.Envelope.wrap stale);
  close_out oc;
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:(Some dir) () in
  let calls = ref 0 in
  ignore (get_plan (Cache.find_or_compile ~compile:(counting_compile calls) cache nest));
  Alcotest.(check int) "stale version treated as a miss" 1 !calls;
  Alcotest.(check int) "stale version is not corruption" 0
    (counted since Service.Stats.cache_quarantined)

let test_disk_wrong_fingerprint () =
  with_temp_dir @@ fun dir ->
  (* a valid plan parked under another nest's name must not be served *)
  let nest_a = nest_of_seed 0 and nest_b = nest_of_seed 1 in
  let pa = compile_exn nest_a in
  let oc = open_out (plan_file dir nest_b) in
  output_string oc (Service.Envelope.wrap (Plan.encode pa));
  close_out oc;
  let cache = Cache.create ~capacity:4 ~dir:(Some dir) () in
  let calls = ref 0 in
  let pb = get_plan (Cache.find_or_compile ~compile:(counting_compile calls) cache nest_b) in
  Alcotest.(check int) "mismatched entry recompiled" 1 !calls;
  Alcotest.(check bool) "got b's plan, not a's" false (Plan.equal pa pb)

(* ---------------------------------------------------------------- *)
(* Envelope: CRC-checksummed disk entries                            *)
(* ---------------------------------------------------------------- *)

module Env = Service.Envelope

let prop_envelope_roundtrip =
  QCheck.Test.make ~name:"envelope: wrap/unwrap round-trips any payload" ~count:500
    QCheck.(string_gen QCheck.Gen.char)
    (fun payload -> Env.unwrap (Env.wrap payload) = Ok payload)

let prop_envelope_detects_flip =
  (* flipping any single byte of the wrapped form must be caught:
     header damage fails the parse, payload damage fails the CRC *)
  QCheck.Test.make ~name:"envelope: any single-byte flip is corrupt" ~count:200
    QCheck.(pair (string_gen QCheck.Gen.char) small_nat)
    (fun (payload, at) ->
      let wrapped = Env.wrap payload in
      let at = at mod String.length wrapped in
      let flipped =
        String.mapi
          (fun i c -> if i = at then Char.chr (Char.code c lxor 0x01) else c)
          wrapped
      in
      flipped = wrapped || Env.unwrap flipped = Error `Corrupt)

let test_envelope_truncation () =
  let wrapped = Env.wrap "a plan-sized payload" in
  for keep = 0 to String.length wrapped - 1 do
    match Env.unwrap (String.sub wrapped 0 keep) with
    | Error `Corrupt -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes unwrapped" keep
  done;
  (* trailing garbage (a torn second write) is also not a clean entry *)
  match Env.unwrap (wrapped ^ "x") with
  | Error `Corrupt -> ()
  | Ok _ -> Alcotest.fail "trailing garbage unwrapped"

let test_envelope_foreign_bytes () =
  List.iter
    (fun s ->
      match Env.unwrap s with
      | Error `Corrupt -> ()
      | Ok _ -> Alcotest.failf "foreign bytes unwrapped: %S" s)
    [ ""; "\n"; "total garbage, not a plan\n"; "ompsim-entry\n"; "ompsim-entry 1 zzzzzzzz 0\n" ]

(* ---------------------------------------------------------------- *)
(* Startup janitor                                                  *)
(* ---------------------------------------------------------------- *)

(* a pid guaranteed dead: a reaped child's *)
let dead_pid () =
  let pid = Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; "exit 0" |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (Unix.waitpid [] pid);
  pid

let touch path =
  let oc = open_out path in
  close_out oc

let test_janitor_sweep () =
  with_temp_dir @@ fun dir ->
  let dead = dead_pid () and live = Unix.getpid () in
  let dead_tmp = Filename.concat dir (Printf.sprintf ".aaaa1111.%d.tmp" dead) in
  let dead_src = Filename.concat dir (Printf.sprintf ".bbbb2222.%d.c" dead) in
  let live_tmp = Filename.concat dir (Printf.sprintf ".aaaa1111.%d.tmp" live) in
  let bad = Filename.concat dir "cccc3333.bad" in
  let stale_lock = Filename.concat dir "dddd4444.lock" in
  let published = Filename.concat dir "eeee5555.plan" in
  List.iter touch [ dead_tmp; dead_src; live_tmp; bad; stale_lock ];
  let oc = open_out published in
  output_string oc (Env.wrap "payload");
  close_out oc;
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:(Some dir) () in
  Alcotest.(check int)
    "dead temps + .bad + stale lock swept" 4 (counted since Service.Stats.cache_janitor);
  Alcotest.(check bool) "dead writer's .tmp gone" false (Sys.file_exists dead_tmp);
  Alcotest.(check bool) "dead writer's .c gone" false (Sys.file_exists dead_src);
  Alcotest.(check bool) ".bad reclaimed" false (Sys.file_exists bad);
  Alcotest.(check bool) "stale .lock reclaimed" false (Sys.file_exists stale_lock);
  Alcotest.(check bool) "live writer's temp kept" true (Sys.file_exists live_tmp);
  Alcotest.(check bool) "published entry kept" true (Sys.file_exists published);
  (* a second sweep finds nothing new *)
  Alcotest.(check int) "sweep is idempotent" 0 (Cache.sweep cache)

(* regression: POSIX record locks never conflict within one process,
   so without the in-process reservation the janitor's trylock would
   "win" against our own live lock, unlink it, and — because closing
   any fd onto a locked file drops the process's lock — destroy the
   holder's cross-process exclusion mid-compile *)
let test_lockfile_same_process_live_lock () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "aaaa1111.lock" in
  match Service.Lockfile.acquire ~timeout_ms:500 path with
  | Error _ -> Alcotest.fail "first acquire failed"
  | Ok lock ->
    Alcotest.(check bool) "live lock not cleaned" false (Service.Lockfile.try_clean path);
    Alcotest.(check bool) "lock file survives the sweep" true (Sys.file_exists path);
    (* a sibling acquire in this process queues and times out instead
       of silently sharing (and later destroying) the kernel lock *)
    (match Service.Lockfile.acquire ~timeout_ms:80 ~poll_ms:10 path with
    | Error `Timeout -> ()
    | Error (`Unavailable e) -> Alcotest.failf "unexpected failure: %s" e
    | Ok _ -> Alcotest.fail "second same-process acquire won a held lock");
    Service.Lockfile.release lock;
    Alcotest.(check bool) "release removes the file" false (Sys.file_exists path);
    (* a genuinely orphaned file (no kernel holder anywhere) is still
       reclaimable once the reservation is gone *)
    touch path;
    Alcotest.(check bool) "orphan reclaimed" true (Service.Lockfile.try_clean path);
    Alcotest.(check bool) "orphan removed" false (Sys.file_exists path)

(* ---------------------------------------------------------------- *)
(* Native tier: failure caching policy                               *)
(* ---------------------------------------------------------------- *)

let with_env kvs f =
  let saved = List.map (fun (k, _) -> (k, Option.value ~default:"" (Sys.getenv_opt k))) kvs in
  List.iter (fun (k, v) -> Unix.putenv k v) kvs;
  Fun.protect ~finally:(fun () -> List.iter (fun (k, v) -> Unix.putenv k v) saved) f

(* regression: a specialize failure caused by the toolchain (here a
   missing compiler) must not be pinned to the fingerprint forever —
   once the toolchain recovers, the same plan must re-engage the
   native tier. Only plan-shaped (emit) failures are cached; the
   circuit breaker bounds the retry cost of transient ones. *)
let test_native_transient_failure_not_pinned () =
  if not (Jit.Abi.functional ()) then Alcotest.skip ();
  with_temp_dir @@ fun dir ->
  match Plan.compile (nest_of_seed 0) with
  | Error e -> Alcotest.failf "plan compile failed: %s" e
  | Ok plan ->
    let since = Obsv.Metrics.snapshot () in
    let tier = Service.Native.create ~dir:(Some dir) () in
    let param _ = 8 in
    with_env [ ("OMPSIM_JIT_CC", Filename.concat dir "no-such-cc") ] (fun () ->
      match Service.Native.recovery_explain tier plan ~param with
      | _, None -> Alcotest.fail "missing compiler still served native"
      | _, Some _ -> ());
    (* the toolchain "recovers" (env restored): same tier, same plan *)
    (match Service.Native.recovery_explain tier plan ~param with
    | _, Some e -> Alcotest.failf "recovered toolchain left pinned to fallback: %s" e
    | _, None -> ());
    Alcotest.(check int) "served natively after recovery" 1
      (counted since Service.Stats.native_served);
    Alcotest.(check int) "one fallback during the outage" 1 (counted since Jit.Stats.fallbacks);
    Service.Native.clear tier

(* ---------------------------------------------------------------- *)
(* Multi-process writers over one shared store                      *)
(* ---------------------------------------------------------------- *)

(* Child-process entry point, dispatched from Test_main before
   Alcotest.run when argv.(1) = "--cache-child" (OCaml 5 cannot fork
   once domains exist, so the test execs itself instead). Opens the
   shared store, requests the one nest, prints the digest of the
   encoded plan, exits 0. The compile override leaves a marker file so
   the parent can count compiles across processes, and sleeps to
   widen the race window the file lock must close. *)
let cache_child_main argv =
  let dir = argv.(0) in
  let compile n =
    touch (Filename.concat dir (Printf.sprintf "compiled.%d" (Unix.getpid ())));
    Unix.sleepf 0.2;
    Plan.compile n
  in
  let cache = Cache.create ~capacity:4 ~dir:(Some dir) () in
  match Cache.find_or_compile ~compile cache (nest_of_seed 0) with
  | Ok (plan, _) ->
    (* own line with a marker: linked test modules may print to
       stdout during init (qcheck's seed line) before we get here *)
    Printf.printf "\ndigest=%s\n" (Digest.to_hex (Digest.string (Plan.encode plan)));
    exit 0
  | Error e ->
    prerr_endline e;
    exit 1

let test_multiprocess_single_writer () =
  with_temp_dir @@ fun dir ->
  let exe = Sys.executable_name in
  let spawn () =
    let r, w = Unix.pipe () in
    let pid = Unix.create_process exe [| exe; "--cache-child"; dir |] Unix.stdin w Unix.stderr in
    Unix.close w;
    (pid, r)
  in
  let a = spawn () in
  let b = spawn () in
  let harvest (pid, fd) =
    let buf = Buffer.create 64 in
    let bytes = Bytes.create 256 in
    let rec go () =
      match Unix.read fd bytes 0 256 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf bytes 0 n;
        go ()
    in
    go ();
    Unix.close fd;
    let _, status = Unix.waitpid [] pid in
    let digest =
      List.find_map
        (fun line ->
          if String.length line > 7 && String.sub line 0 7 = "digest=" then
            Some (String.sub line 7 (String.length line - 7))
          else None)
        (String.split_on_char '\n' (Buffer.contents buf))
    in
    (status, Option.value ~default:"" digest)
  in
  let st_a, dig_a = harvest a in
  let st_b, dig_b = harvest b in
  (match (st_a, st_b) with
  | Unix.WEXITED 0, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "a cache child did not exit cleanly");
  Alcotest.(check bool) "children got real digests" true (String.length dig_a = 32);
  Alcotest.(check string) "byte-identical plans across processes" dig_a dig_b;
  let markers, residue =
    Array.fold_left
      (fun (m, r) name ->
        let is_prefix p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
        if is_prefix "compiled." then (m + 1, r)
        else if
          name.[0] = '.'
          || Filename.check_suffix name ".lock"
          || Filename.check_suffix name ".bad"
        then (m, name :: r)
        else (m, r))
      (0, []) (Sys.readdir dir)
  in
  Alcotest.(check int) "exactly one compile across both processes" 1 markers;
  (match residue with
  | [] -> ()
  | files -> Alcotest.failf "store residue left behind: %s" (String.concat ", " files));
  (* and the published entry is a clean envelope *)
  let nest = nest_of_seed 0 in
  match read_entry (plan_file dir nest) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "published entry unreadable: %s" e

(* ---------------------------------------------------------------- *)
(* Server: request parsing and handling                              *)
(* ---------------------------------------------------------------- *)

let parse_ok line =
  match Server.parse_request line with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.failf "parsed %S as blank" line
  | Error e -> Alcotest.failf "parse of %S failed: %s" line e

let parse_err line =
  match Server.parse_request line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "parse of %S should have failed" line

let test_parse_blank () =
  List.iter
    (fun line ->
      match Server.parse_request line with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.failf "%S is not a request" line
      | Error e -> Alcotest.failf "%S should be ignored, got: %s" line e)
    [ ""; "   "; "# a comment"; "  # indented comment" ]

let test_parse_compile_kernel () =
  match parse_ok "compile kernel=utma label=tri" with
  | Server.Compile { label; nest } ->
    Alcotest.(check string) "label" "tri" label;
    Alcotest.(check int) "depth" 2 (N.depth nest)
  | _ -> Alcotest.fail "expected Compile"

let test_parse_inline_affine () =
  (* exercises the affine grammar: INT*IDENT, bare IDENT, leading
     minus, +/- chains *)
  match parse_ok "compile params=N levels=i=0..2*N+1,j=-1+i..N+i" with
  | Server.Compile { nest; _ } ->
    let lv = List.nth nest.N.levels 1 in
    Alcotest.(check bool) "lower j = i - 1" true
      (A.equal lv.N.lower (A.make [ ("i", Q.one) ] (Q.of_int (-1))));
    Alcotest.(check bool) "upper j = N + i" true
      (A.equal lv.N.upper (A.make [ ("N", Q.one); ("i", Q.one) ] Q.zero))
  | _ -> Alcotest.fail "expected Compile"

let test_parse_exec_opts () =
  match parse_ok "exec params=N=25 levels=i=0..N,j=i..N threads=2 schedule=dynamic:2 lanes=8 repeat=3 retries=1" with
  | Server.Exec { param; opts; _ } ->
    Alcotest.(check int) "param value" 25 (param "N");
    Alcotest.(check int) "threads" 2 opts.Service.Exec.threads;
    Alcotest.(check int) "lanes" 8 opts.Service.Exec.lanes;
    Alcotest.(check int) "repeat" 3 opts.Service.Exec.repeat;
    Alcotest.(check int) "retries" 1 opts.Service.Exec.retries;
    Alcotest.(check bool) "schedule" true (opts.Service.Exec.schedule = Ompsim.Schedule.Dynamic 2)
  | _ -> Alcotest.fail "expected Exec"

let test_parse_shutdown () =
  match parse_ok "shutdown" with
  | Server.Shutdown -> ()
  | _ -> Alcotest.fail "expected Shutdown"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_parse_rejects () =
  List.iter
    (fun (line, fragment) ->
      let e = parse_err line in
      if not (contains ~needle:fragment e) then
        Alcotest.failf "error for %S was %S, expected it to mention %S" line e fragment)
    [ ("frobnicate kernel=utma", "unknown operation");
      ("compile kernel=utma kernel=utma", "duplicate field");
      ("compile kernel=utma bogus=1", "unknown field");
      ("compile kernel=no_such_kernel", "unknown kernel");
      ("compile params=N", "levels");
      ("compile params=N levels=i=0..N n=4", "n");
      ("compile params=N levels=i=0*..N", "bad term");
      ("compile params=N levels=i=0..99999999999999999999999", "bad term");
      ("compile params=N levels=i=0..N+", "dangling sign");
      ("compile params=N levels=i=0toN", "LOWER..UPPER");
      ("exec params=N levels=i=0..N", "value for parameter");
      ("exec kernel=utma threads=0", "threads");
      ("compile", "kernel")
    ]

let test_handle_compile () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let nest = tri ~iv:"i" ~jv:"j" ~pv:"N" in
  let response, ok = Server.handle cache (Server.Compile { label = "t"; nest }) in
  Alcotest.(check bool) "ok" true ok;
  if not (contains ~needle:(Printf.sprintf {|"fingerprint":"%s"|} (Fp.hash nest)) response)
  then Alcotest.failf "response lacks the nest fingerprint: %s" response

let default_opts =
  { Service.Exec.threads = 2;
    schedule = Ompsim.Schedule.Static;
    lanes = 1;
    repeat = 2;
    retries = 0;
    native = false;
    reduce = None }

let test_handle_exec () =
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let nest = tri ~iv:"i" ~jv:"j" ~pv:"N" in
  (* exclusive upper bounds: i in [0, 6), j in [i, 7), so the trip
     count is sum_{i=0..5} (7 - i) = 27 *)
  let request =
    Server.Exec { label = "t"; nest; param = (fun _ -> 6); opts = default_opts }
  in
  let response, ok = Server.handle cache request in
  Alcotest.(check bool) "ok" true ok;
  if not (contains ~needle:{|"trip":27|} response) then
    Alcotest.failf "wrong trip count in %s" response;
  (* deterministic responses: a second identical request (now a cache
     hit) must produce the identical line *)
  let response2, _ = Server.handle cache request in
  Alcotest.(check string) "cache hit response identical" response response2;
  check_stats "handle" ~hits:1 ~disk_hits:0 ~misses:1 ~evictions:0 ~waits:0 since;
  (* a trip count beyond the native int range is an error response,
     not an exception out of the handler *)
  let huge, ok = Server.handle cache (parse_ok "exec kernel=utma n=10000000000 threads=1") in
  Alcotest.(check bool) "huge trip refused" false ok;
  if not (contains ~needle:"trip count exceeds the native int range" huge) then
    Alcotest.failf "huge trip response: %s" huge

let test_run_batch () =
  let input =
    String.concat "\n"
      [ "# batch smoke";
        "compile kernel=utma label=one";
        "exec params=N=6 levels=i=0..N,j=i..N+1 label=two threads=2";
        "not-a-request";
        "compile kernel=utma label=three";
        "shutdown";
        "compile kernel=utma label=ignored-after-shutdown"
      ]
  in
  let since = Obsv.Metrics.snapshot () in
  let cache = Cache.create ~capacity:8 ~dir:None () in
  let in_path = Filename.temp_file "ompsim-batch" ".in" in
  let out_path = Filename.temp_file "ompsim-batch" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      Out_channel.with_open_text in_path (fun oc -> output_string oc (input ^ "\n"));
      let rc =
        In_channel.with_open_text in_path (fun ic ->
            Out_channel.with_open_text out_path (fun oc ->
                Server.run_batch ~cache ~workers:3 ic oc))
      in
      Alcotest.(check int) "exit 1: one request failed to parse" 1 rc;
      let lines = In_channel.with_open_text out_path In_channel.input_lines in
      Alcotest.(check int) "one response per request, input order" 5 (List.length lines);
      let expect_label i label ok =
        let line = List.nth lines i in
        if not (contains ~needle:(Printf.sprintf {|"label":"%s"|} label) line) then
          Alcotest.failf "response %d is %s, wanted label %s" i line label;
        if ok <> contains ~needle:{|"status":"ok"|} line then
          Alcotest.failf "response %d has the wrong status: %s" i line
      in
      expect_label 0 "one" true;
      expect_label 1 "two" true;
      expect_label 2 "line:4" false;
      expect_label 3 "three" true;
      if not (contains ~needle:{|"op":"shutdown"|} (List.nth lines 4)) then
        Alcotest.failf "last response should acknowledge shutdown: %s" (List.nth lines 4);
      (* labels one and three are the same kernel: one miss, one hit *)
      let d = counted since in
      Alcotest.(check int) "two distinct plans compiled" 2 (d Service.Stats.cache_misses);
      Alcotest.(check int) "repeat request hit" 1
        (d Service.Stats.cache_hits + d Service.Stats.singleflight_waits))

let suites =
  [ ( "service.codec",
      qsuite
        [ prop_rat_roundtrip; prop_poly_roundtrip; prop_expr_roundtrip; prop_plan_roundtrip ]
    );
    ( "service.envelope",
      [ Alcotest.test_case "every truncation is corrupt" `Quick test_envelope_truncation;
        Alcotest.test_case "foreign bytes are corrupt" `Quick test_envelope_foreign_bytes ]
      @ qsuite [ prop_envelope_roundtrip; prop_envelope_detects_flip ] );
    ( "service.fingerprint",
      [ Alcotest.test_case "alpha-renaming invariance" `Quick test_fp_alpha_invariant;
        Alcotest.test_case "bound term order invariance" `Quick test_fp_term_order_invariant;
        Alcotest.test_case "distinct nests get distinct hashes" `Quick test_fp_distinguishes;
        Alcotest.test_case "canonicalize is idempotent" `Quick test_fp_idempotent;
        Alcotest.test_case "canonical_param lifts valuations" `Quick test_fp_canonical_param
      ]
      @ qsuite [ prop_fp_alpha_invariant ] );
    ( "service.cache",
      [ Alcotest.test_case "hit/miss accounting, compile once" `Quick test_cache_hit_miss;
        Alcotest.test_case "alpha-equivalent nests share an entry" `Quick test_cache_alpha_hit;
        Alcotest.test_case "LRU evicts the least-recent entry" `Quick test_cache_lru_eviction;
        Alcotest.test_case "failed compile is not cached" `Quick test_cache_failure_not_cached;
        Alcotest.test_case "single-flight dedups concurrent misses" `Quick test_cache_singleflight;
        Alcotest.test_case "single-flight failure reaches all waiters" `Quick
          test_cache_singleflight_failure
      ] );
    ( "service.disk",
      [ Alcotest.test_case "store/load round trip across caches" `Quick test_disk_roundtrip;
        Alcotest.test_case "corrupt entry = miss, recompile, overwrite" `Quick
          test_disk_corrupt_entry;
        Alcotest.test_case "stale format version = miss" `Quick test_disk_stale_version;
        Alcotest.test_case "janitor sweeps orphans, keeps live state" `Quick test_janitor_sweep;
        Alcotest.test_case "janitor never breaks a same-process live lock" `Quick
          test_lockfile_same_process_live_lock;
        Alcotest.test_case "transient specialize failure is not pinned" `Quick
          test_native_transient_failure_not_pinned;
        Alcotest.test_case "two processes, one compile, no residue" `Quick
          test_multiprocess_single_writer;
        Alcotest.test_case "foreign plan under our name = miss" `Quick
          test_disk_wrong_fingerprint
      ] );
    ( "service.server",
      [ Alcotest.test_case "blank and comment lines ignored" `Quick test_parse_blank;
        Alcotest.test_case "compile by kernel name" `Quick test_parse_compile_kernel;
        Alcotest.test_case "inline nest affine grammar" `Quick test_parse_inline_affine;
        Alcotest.test_case "exec options" `Quick test_parse_exec_opts;
        Alcotest.test_case "shutdown" `Quick test_parse_shutdown;
        Alcotest.test_case "malformed requests rejected with context" `Quick test_parse_rejects;
        Alcotest.test_case "handle compile response" `Quick test_handle_compile;
        Alcotest.test_case "handle exec: trip, checksum, determinism" `Quick test_handle_exec;
        Alcotest.test_case "run_batch: order, errors, shutdown" `Quick test_run_batch
      ] )
  ]
