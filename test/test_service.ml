(* The service layer (ISSUE 5): exact codec round-trips over random
   values, fingerprint alpha-invariance, the two-tier plan cache
   (LRU, single-flight, disk store with corrupt/stale recovery), and
   the line-protocol front end. *)

module A = Polymath.Affine
module P = Polymath.Polynomial
module Q = Zmath.Rat
module N = Trahrhe.Nest
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

(* the oracle's nest family: valid, non-empty, degree within the
   closed-form range — reused here so the plan codec sees real
   inversion output, not toy values *)
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

(* a clause nest travels as its value alone: the plan decodes to an
   equal nest (its clause value included), under the same fingerprint *)
let prop_clause_plan_roundtrip =
  QCheck.Test.make ~name:"codec: clause plan round-trips exactly" ~count:50 arb_nest
    (fun nest ->
      let p = compile_exn (N.with_default_reduce nest) in
      match Plan.decode (Plan.encode p) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok p' -> p'.Plan.inversion.Trahrhe.Inversion.nest.N.reduce <> None && Plan.equal p p')

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
      match Service.Native.recovery_explain tier plan ~param (Plan.recovery plan ~param) with
      | _, None -> Alcotest.fail "missing compiler still served native"
      | _, Some _ -> ());
    (* the toolchain "recovers" (env restored): same tier, same plan *)
    (match Service.Native.recovery_explain tier plan ~param (Plan.recovery plan ~param) with
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

(* Trip count 166 for 165 points: the rows j = N+1.. of
   i=0..N+3,j=i..N,k=j..N have negative extents and come last, so
   they misrank nothing but add to the summed total. The sampled trip
   check refuses the nest at compile instead of answering ok. *)
let test_exec_trip_check () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  List.iter
    (fun line ->
      let response, ok = Server.handle cache (parse_ok line) in
      Alcotest.(check bool) (line ^ " refused") false ok;
      if not (contains ~needle:"the trip count polynomial gives 11 at sample size 3" response)
      then Alcotest.failf "%s answered %s" line response)
    [ "exec params=N=9 levels=i=0..N+3,j=i..N,k=j..N threads=2";
      "compile params=N levels=i=0..N+3,j=i..N,k=j..N" ]

(* The 128-nest tetrahedron grid at N = 9 — 64 upper
   i=0..N+a,j=i..N+b,k=j..N+c and 64 lower i=0..N+a,j=b..i+b,k=c..j+c,
   a, b, c in 0..3 — plus triangles and a tetrahedron whose outer
   bounds are shifted by 10^9 to 10^18. A service plan selects no
   closed form, so a line either answers ok, with trip = enumeration
   and checksum = the serial sum, or is refused by a sampled check that
   names the cause. *)
let grid_lines () =
  let shifts = [ 0; 1; 2; 3 ] in
  let abc f =
    List.concat_map (fun a -> List.concat_map (fun b -> List.map (f a b) shifts) shifts) shifts
  in
  let large = [ "1000000000"; "1000000000000"; "1000000000000000000" ] in
  List.map (Printf.sprintf "exec params=N=9 levels=%s threads=2")
    (abc (Printf.sprintf "i=0..N+%d,j=i..N+%d,k=j..N+%d")
    @ abc (fun a b c -> Printf.sprintf "i=0..N+%d,j=%d..i+%d,k=%d..j+%d" a b b c c)
    @ List.map (fun l -> Printf.sprintf "i=%s..N+%s,j=i..N+%s" l l l) large
    @ [ "i=1000000000..N+1000000000,j=i..N+1000000000,k=j..N+1000000000" ])

let test_exec_grid () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let answers =
    List.map (fun line -> (line, fst (Server.handle cache (parse_ok line)))) (grid_lines ())
  in
  let ok = ref 0 and misranks = ref 0 and trips = ref 0 in
  List.iter
    (fun (line, response) ->
      if contains ~needle:{|"status":"ok"|} response then begin
        incr ok;
        let nest, param =
          match parse_ok line with
          | Server.Exec { nest; param; _ } -> (nest, param)
          | _ -> Alcotest.failf "%s is not an exec" line
        in
        let points = ref 0 and hash = ref 0 in
        N.iterate nest ~param (fun idx ->
            incr points;
            hash := !hash + Trahrhe.Recovery.iter_hash idx);
        let want = Printf.sprintf {|"trip":%d,"checksum":%d,|} !points !hash in
        if not (contains ~needle:want response) then
          Alcotest.failf "%s: expected %s in %s" line want response
      end
      else if contains ~needle:"the ranking polynomial misranks" response then incr misranks
      else if contains ~needle:"the trip count polynomial gives" response then incr trips
      else Alcotest.failf "%s answered %s" line response)
    answers;
  Alcotest.(check (list int))
    "ok, misranked, trip errors" [ 110; 12; 10 ] [ !ok; !misranks; !trips ]

(* The printers accept what the service runs while a 64-bit counter
   holds the printed polynomials: [collapse] ({!Cfront.Transform},
   default recovery) rewrites each nest of the grid above as C exactly
   when {!Trahrhe.Inversion.invert} accepts it, except the outer shifts
   whose rankings overflow the counter (the 10^12 and 10^18 triangles,
   the 10^9 tetrahedron, whose cubic terms reach 10^27), which it
   refuses with the counter's error. *)
let test_printer_grid () =
  let printed = ref 0 and overflows = ref [] in
  List.iter
    (fun line ->
      let nest =
        match parse_ok line with
        | Server.Exec { nest; _ } -> nest
        | _ -> Alcotest.failf "%s is not an exec" line
      in
      let src =
        Format.asprintf
          "void f(long N, long *a) {\n  long %s;\n#pragma omp parallel for collapse(%d)\n%a  a[0]++;\n}\n"
          (String.concat ", " (N.level_vars nest))
          (N.depth nest) N.pp nest
      in
      let inverts = Result.is_ok (Trahrhe.Inversion.invert nest) in
      match Cfront.Transform.transform_source src with
      | exception Failure e when contains ~needle:"cannot be exact in a 64-bit counter" e ->
        if not inverts then Alcotest.failf "%s does not invert, collapse says: %s" line e;
        overflows := line :: !overflows
      | exception Failure e -> if inverts then Alcotest.failf "%s inverts, collapse says: %s" line e
      | _, count ->
        Alcotest.(check int) (line ^ ": regions") 1 count;
        if not inverts then Alcotest.failf "%s: collapse printed a nest that does not invert" line;
        incr printed)
    (grid_lines ());
  Alcotest.(check int) "printed = the service's ok answers but the overflows" 107 !printed;
  let shift l = Printf.sprintf "exec params=N=9 levels=i=%s..N+%s,j=i..N+%s threads=2" l l l in
  Alcotest.(check (list string))
    "refused: counter overflow"
    [ shift "1000000000000";
      shift "1000000000000000000";
      "exec params=N=9 levels=i=1000000000..N+1000000000,j=i..N+1000000000,k=j..N+1000000000 \
       threads=2" ]
    (List.rev !overflows)

(* an armed fault config reaches every exec region, not only those
   with retries or a deadline: the injected chunk failures are
   recovered by the serial fallback and the response is unchanged *)
let test_exec_faults_armed () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let req = parse_ok "exec kernel=utma n=40 schedule=dynamic:8" in
  let clean, ok = Ompsim.Fault.with_faults None (fun () -> Server.handle cache req) in
  Alcotest.(check bool) "disarmed ok" true ok;
  let since = Obsv.Metrics.snapshot () in
  let faulted, ok =
    Ompsim.Fault.with_faults
      (Some { Ompsim.Fault.default with p = 0.5; seed = 9 })
      (fun () -> Server.handle cache req)
  in
  Alcotest.(check bool) "armed ok" true ok;
  Alcotest.(check string) "armed answers the disarmed line" clean faulted;
  Alcotest.(check bool) "faults injected" true (counted since Ompsim.Stats.faults_injected > 0)

(* the raw JSON value of a top-level scalar field of a response *)
let json_field name resp =
  let needle = Printf.sprintf {|"%s":|} name in
  let nl = String.length needle and rl = String.length resp in
  let rec find i =
    if i + nl > rl then Alcotest.failf "no %s field in %s" name resp
    else if String.sub resp i nl = needle then i + nl
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop j = if j >= rl || resp.[j] = ',' || resp.[j] = '}' then j else stop (j + 1) in
  String.sub resp start (stop start - start)

let check_reference what ~hits ~misses since =
  let d = counted since in
  Alcotest.(check int) (what ^ ": reference hits") hits (d Service.Stats.reference_hits);
  Alcotest.(check int) (what ^ ": reference misses") misses (d Service.Stats.reference_misses)

(* the serial reference is memoized per plan x parameters x payload:
   schedule, lanes, native, threads and repeat variants reuse it, and
   the response stays byte-identical *)
let test_exec_reference_memo () =
  let cache = Cache.create ~capacity:8 ~dir:None () in
  let exec line =
    let resp, ok = Server.handle cache (parse_ok line) in
    if not ok then Alcotest.failf "%s failed: %s" line resp;
    resp
  in
  let base = "exec kernel=covariance_reduce n=12 threads=2 reduce=max" in
  let since = Obsv.Metrics.snapshot () in
  let first = exec base in
  check_reference "first exec" ~hits:0 ~misses:1 since;
  let since = Obsv.Metrics.snapshot () in
  Alcotest.(check string) "repeat is byte-identical" first (exec base);
  check_reference "repeat" ~hits:1 ~misses:0 since;
  let since = Obsv.Metrics.snapshot () in
  List.iter
    (fun variant ->
      Alcotest.(check string) (variant ^ ": same result") (json_field "result" first)
        (json_field "result" (exec (base ^ " " ^ variant))))
    [ "schedule=dnc:4 lanes=8"; "schedule=ws:16"; "native=1"; "repeat=3"; "retries=1" ];
  check_reference "run-option variants" ~hits:5 ~misses:0 since;
  let since = Obsv.Metrics.snapshot () in
  let checksum = exec "exec kernel=covariance_reduce n=12 threads=2" in
  ignore (exec "exec kernel=covariance_reduce n=13 threads=2 reduce=max");
  let minned = exec "exec kernel=covariance_reduce n=12 threads=2 reduce=min" in
  check_reference "checksum, other n, other op" ~hits:0 ~misses:3 since;
  if json_field "result" minned = json_field "result" first then
    Alcotest.failf "min and max share a result: %s" minned;
  ignore (json_field "checksum" checksum);
  (* an empty min/max memoizes its [None]: the repeat still answers
     the empty-extremum error, now from the memo *)
  let since = Obsv.Metrics.snapshot () in
  let empty = parse_ok "exec params=N=0 levels=i=0..N,j=i..N threads=2 reduce=max" in
  let r1, ok1 = Server.handle cache empty in
  let r2, ok2 = Server.handle cache empty in
  Alcotest.(check bool) "empty max fails" false (ok1 || ok2);
  Alcotest.(check string) "empty max repeat identical" r1 r2;
  if not (contains ~needle:"empty iteration space" r2) then
    Alcotest.failf "empty max response: %s" r2;
  check_reference "empty extremum" ~hits:1 ~misses:1 since

(* the memo is an LRU of the cache's capacity: past it, the oldest
   reference is walked again, to the same answer *)
let test_exec_reference_eviction () =
  let cache = Cache.create ~capacity:2 ~dir:None () in
  let exec n =
    let resp, ok = Server.handle cache (parse_ok (Printf.sprintf "exec kernel=utma n=%d threads=2" n)) in
    if not ok then Alcotest.failf "n=%d failed: %s" n resp;
    resp
  in
  let since = Obsv.Metrics.snapshot () in
  let r10 = exec 10 in
  ignore (exec 11);
  ignore (exec 12);
  check_reference "three sizes" ~hits:0 ~misses:3 since;
  let since = Obsv.Metrics.snapshot () in
  Alcotest.(check string) "evicted reference recomputed identically" r10 (exec 10);
  check_reference "evicted n=10" ~hits:0 ~misses:1 since;
  let since = Obsv.Metrics.snapshot () in
  ignore (exec 12);
  check_reference "n=12 still memoized" ~hits:1 ~misses:0 since

(* a memo hit only supplies the value: every run is still checked
   against it, so a wrong reference is a mismatch — handed to the run
   loop directly, and planted in the memo under the server's own key *)
let test_exec_reference_checked_on_hit () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let line = "exec kernel=covariance_reduce n=12 threads=2 reduce=max" in
  match parse_ok line with
  | Server.Exec { nest; param; opts; _ } -> (
    let plan, renaming =
      match Cache.find_or_compile cache nest with
      | Ok x -> x
      | Error e -> Alcotest.failf "compile: %s" e
    in
    let cparam = Fp.canonical_param renaming param in
    let rc, _ =
      Service.Exec.recovery plan ~param:cparam (Plan.recovery plan ~param:cparam) opts
    in
    let right =
      Service.Exec.serial rc ~nest:plan.Plan.inversion.Trahrhe.Inversion.nest ~param:cparam opts
    in
    let wrong =
      match right with
      | Some (Service.Exec.Rat q) -> Some (Service.Exec.Rat (Q.add q Q.one))
      | _ -> Alcotest.fail "max reference is not a rational"
    in
    (match Service.Exec.run ~reference:(fun _ -> right) rc opts with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "the right reference must pass");
    (match Service.Exec.run ~reference:(fun _ -> wrong) rc opts with
    | Error (Service.Exec.Mismatch { run = 1; _ }) -> ()
    | _ -> Alcotest.fail "a wrong reference must be a mismatch on run 1");
    ignore (Cache.reference cache (Service.Exec.reference_key plan ~param:cparam opts) (fun () -> wrong));
    let since = Obsv.Metrics.snapshot () in
    let resp, ok = Server.handle cache (parse_ok line) in
    check_reference "planted reference" ~hits:1 ~misses:0 since;
    Alcotest.(check bool) "planted wrong reference fails" false ok;
    if not (contains ~needle:"reduction mismatch on run 1/1" resp) then
      Alcotest.failf "planted reference response: %s" resp)
  | _ -> Alcotest.fail "expected Exec"

(* concurrent misses on one key walk once; the rest park on that walk
   and count as hits. The walk sleeps so the callers overlap, but one
   that arrives after it finished hits the memo, so the counts hold
   either way. A walk that raises memoizes nothing: its caller sees the
   exception, and a caller parked on it walks for itself. *)
let test_exec_reference_single_flight () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let walks = Atomic.make 0 in
  let slow v () =
    Atomic.incr walks;
    Unix.sleepf 0.2;
    v
  in
  let answer = Some (Service.Exec.Int 42) in
  let since = Obsv.Metrics.snapshot () in
  let callers =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Cache.reference cache "k" (slow answer)))
  in
  List.iter
    (fun d -> if Domain.join d <> answer then Alcotest.fail "a caller got another value")
    callers;
  Alcotest.(check int) "one walk for four callers" 1 (Atomic.get walks);
  check_reference "concurrent misses" ~hits:3 ~misses:1 since;
  let since = Obsv.Metrics.snapshot () in
  let failing =
    Domain.spawn (fun () ->
        Cache.reference cache "bad" (fun () ->
            Unix.sleepf 0.2;
            failwith "walk failed"))
  in
  Unix.sleepf 0.05;
  let parked = Cache.reference cache "bad" (fun () -> answer) in
  (match Domain.join failing with
  | _ -> Alcotest.fail "a raising walk must re-raise in its caller"
  | exception Failure _ -> ());
  Alcotest.(check bool) "the parked caller walked for itself" true (parked = answer);
  check_reference "raising walk" ~hits:0 ~misses:2 since

let check_recovery what ~hits ~misses since =
  let d = counted since in
  Alcotest.(check int) (what ^ ": recovery hits") hits (d Service.Stats.recovery_hits);
  Alcotest.(check int) (what ^ ": recovery misses") misses (d Service.Stats.recovery_misses)

let exec_ok ?native cache line =
  let resp, ok = Server.handle ?native cache (parse_ok line) in
  if not ok then Alcotest.failf "%s failed: %s" line resp;
  resp

(* the interpreted recovery is memoized per plan x canonical parameter
   values: every run option of one plan and size shares the entry, and
   each response equals a fresh cache's. A [reduce=] op is a run
   option too: the checksum and every op of a clause-declaring kernel
   compile one plan and share one recovery. *)
let test_exec_recovery_memo () =
  let cache = Cache.create ~capacity:8 ~dir:None () in
  let base = "exec kernel=covariance_reduce n=12 threads=2" in
  let ops = [ "sum"; "prod"; "min"; "max" ] in
  let since = Obsv.Metrics.snapshot () in
  ignore (exec_ok cache base);
  List.iter (fun op -> ignore (exec_ok cache (base ^ " reduce=" ^ op))) ops;
  check_recovery "checksum and every op" ~hits:4 ~misses:1 since;
  Alcotest.(check int) "checksum and every op: one plan compile" 1
    (counted since Service.Stats.cache_misses);
  let variants =
    [ ""; " schedule=dnc:4 lanes=8"; " schedule=ws:16"; " native=1"; " repeat=3"; " retries=1" ]
    @ List.concat_map
        (fun op ->
          let r = " reduce=" ^ op in
          [ r; r ^ " native=1"; r ^ " schedule=dnc:4 lanes=8" ])
        ops
  in
  let since = Obsv.Metrics.snapshot () in
  let memoized = List.map (fun v -> exec_ok cache (base ^ v)) variants in
  check_recovery "run options" ~hits:(List.length variants) ~misses:0 since;
  List.iter2
    (fun v resp ->
      let fresh = exec_ok (Cache.create ~capacity:8 ~dir:None ()) (base ^ v) in
      Alcotest.(check string) (v ^ ": memoized = fresh") fresh resp)
    variants memoized;
  let since = Obsv.Metrics.snapshot () in
  ignore (exec_ok cache "exec kernel=covariance_reduce n=13 threads=2");
  check_recovery "other n" ~hits:0 ~misses:1 since

(* the operator is no part of the plan: every op of a clause-declaring
   kernel answers its checksum request's fingerprint *)
let test_reduce_ops_share_fingerprint () =
  let cache = Cache.create ~capacity:8 ~dir:None () in
  let base = "exec kernel=correlation_reduce n=12 threads=2" in
  let fingerprint line = json_field "fingerprint" (exec_ok cache line) in
  let checksum = fingerprint base in
  List.iter
    (fun op ->
      Alcotest.(check string) (op ^ ": the checksum's fingerprint") checksum
        (fingerprint (base ^ " reduce=" ^ op)))
    [ "sum"; "prod"; "min"; "max" ]

(* the deadline covers the serial reference: with the plan and the
   recovery warm, a 1 ms budget expires in the walk's 4096-point polls
   (utma n=3000 has 4.5M points), which answers the deadline error and
   memoizes nothing under the reference's key *)
let test_exec_deadline_charges_reference () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let req = parse_ok "exec kernel=utma n=3000 threads=2" in
  match req with
  | Server.Exec { nest; param; opts; _ } ->
    let plan, renaming =
      match Cache.find_or_compile cache nest with
      | Ok x -> x
      | Error e -> Alcotest.failf "compile: %s" e
    in
    let cparam = Fp.canonical_param renaming param in
    ignore (Cache.recovery cache plan ~param:cparam);
    let since = Obsv.Metrics.snapshot () in
    let resp, ok = Server.handle ~deadline_ms:1 cache req in
    Alcotest.(check bool) "the request fails" false ok;
    if not (contains ~needle:"request deadline expired (timeout 1ms)" resp) then
      Alcotest.failf "deadline response: %s" resp;
    check_reference "cut-short reference" ~hits:0 ~misses:1 since;
    let walked = ref false in
    ignore
      (Cache.reference cache (Service.Exec.reference_key plan ~param:cparam opts) (fun () ->
           walked := true;
           None));
    Alcotest.(check bool) "no reference stored" true !walked
  | _ -> Alcotest.fail "expected Exec"

(* the key is canonical: an alpha-renamed nest (other iterator and
   parameter names, same shape) shares the plan and the recovery *)
let test_exec_recovery_alpha () =
  let cache = Cache.create ~capacity:8 ~dir:None () in
  let since = Obsv.Metrics.snapshot () in
  let r1 = exec_ok cache "exec params=N=9 levels=i=0..N,j=i..N+1 threads=2 label=t" in
  let r2 = exec_ok cache "exec params=M=9 levels=a=0..M,b=a..M+1 threads=2 label=t" in
  check_recovery "renamed nest" ~hits:1 ~misses:1 since;
  Alcotest.(check string) "renamed nest answers the same" r1 r2

(* the memo is an LRU of the cache's capacity *)
let test_exec_recovery_eviction () =
  let cache = Cache.create ~capacity:2 ~dir:None () in
  let exec n = exec_ok cache (Printf.sprintf "exec kernel=utma n=%d threads=2" n) in
  let since = Obsv.Metrics.snapshot () in
  let r10 = exec 10 in
  ignore (exec 11);
  ignore (exec 12);
  check_recovery "three sizes" ~hits:0 ~misses:3 since;
  let since = Obsv.Metrics.snapshot () in
  Alcotest.(check string) "evicted recovery rebuilt identically" r10 (exec 10);
  check_recovery "evicted n=10" ~hits:0 ~misses:1 since;
  let since = Obsv.Metrics.snapshot () in
  ignore (exec 12);
  check_recovery "n=12 still memoized" ~hits:1 ~misses:0 since

(* a specialization that raises (trip count past the native range)
   memoizes nothing: the repeat raises again, to the same error *)
let test_exec_recovery_raise () =
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let line = "exec kernel=utma n=10000000000" in
  let since = Obsv.Metrics.snapshot () in
  let r1, ok1 = Server.handle cache (parse_ok line) in
  let r2, ok2 = Server.handle cache (parse_ok line) in
  Alcotest.(check bool) "both fail" false (ok1 || ok2);
  Alcotest.(check string) "same error twice" r1 r2;
  if not (contains ~needle:"native int range" r2) then Alcotest.failf "response: %s" r2;
  check_recovery "raising specialization" ~hits:0 ~misses:2 since;
  check_reference "no walk" ~hits:0 ~misses:0 since

(* the native backend is attached per request on top of the memoized
   recovery: after the tier closes its handles, a repeat that hits the
   recovery memo still engages a freshly loaded object *)
let test_exec_recovery_native_not_cached () =
  if not (Jit.Abi.functional ()) then Alcotest.skip ();
  with_temp_dir @@ fun dir ->
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let tier = Service.Native.create ~dir:(Some dir) () in
  let line = "exec kernel=utma n=40 threads=2 native=1" in
  let first = exec_ok ~native:tier cache line in
  Alcotest.(check string) "engaged" "true" (json_field "native" first);
  Service.Native.clear tier;
  let since = Obsv.Metrics.snapshot () in
  let again = exec_ok ~native:tier cache line in
  check_recovery "repeat after clear" ~hits:1 ~misses:0 since;
  Alcotest.(check int) "native served again" 1 (counted since Service.Stats.native_served);
  Alcotest.(check string) "same response" first again;
  Service.Native.clear tier

(* the reduce= ops of one kernel run one plan, so they share one
   shared object: sum compiles it, max finds its handle. Both answer
   like the interpreted walk. *)
let test_native_ops_share_object () =
  if not (Jit.Abi.functional ()) then Alcotest.skip ();
  with_temp_dir @@ fun dir ->
  let cache = Cache.create ~capacity:4 ~dir:None () in
  let tier = Service.Native.create ~dir:(Some dir) () in
  let base = "exec kernel=covariance_reduce n=12 threads=2" in
  let since = Obsv.Metrics.snapshot () in
  let native =
    List.map (fun op -> exec_ok ~native:tier cache (Printf.sprintf "%s native=1 reduce=%s" base op))
      [ "sum"; "max" ]
  in
  Alcotest.(check int) "one compile for both ops" 1 (counted since Jit.Stats.compiles);
  Alcotest.(check int) "both served natively" 2 (counted since Service.Stats.native_served);
  Alcotest.(check int) "one object on disk" 1
    (List.length (List.filter (fun f -> Filename.check_suffix f ".so") (Array.to_list (Sys.readdir dir))));
  List.iter2
    (fun op resp ->
      let interp =
        exec_ok (Cache.create ~capacity:4 ~dir:None ()) (Printf.sprintf "%s reduce=%s" base op)
      in
      Alcotest.(check string) (op ^ ": engaged") "true" (json_field "native" resp);
      Alcotest.(check string) (op ^ ": status") {|"ok"|} (json_field "status" resp);
      Alcotest.(check string) (op ^ ": native = interpreted") (json_field "result" interp)
        (json_field "result" resp))
    [ "sum"; "max" ] native;
  Service.Native.clear tier

(* a chunk longer than 2^16 iterations is walked in slices, folded by
   the payload's own combine: every fold still equals the serial
   reference. correlation_reduce at n = 520 has 134,940 iterations, so
   one thread's static chunk spans three slices and its first guided
   chunk two; slot 0 polls after each slice. Two threads combine
   sliced chunks. *)
let test_exec_slices_exact () =
  let k = Option.get (Kernels.Registry.find "correlation_reduce") in
  let base = k.Kernels.Kernel.nest in
  let param = Kernels.Kernel.param_of k ~n:520 in
  (* the clause 2^60 i + j trips the overflow guard: min/max then fold
     in exact rationals *)
  let guarded =
    N.with_reduce base (Some (P.add (P.scale (Q.of_int (1 lsl 60)) (P.var "i")) (P.var "j")))
  in
  let payloads =
    [ ("checksum", base, None, 1);
      ("lanes=8", base, None, 8);
      ("sum", base, Some N.Sum, 1);
      ("min", base, Some N.Min, 1);
      ("max", base, Some N.Max, 1);
      ("guarded max", guarded, Some N.Max, 1) ]
  in
  List.iter
    (fun (what, nest, reduce, lanes) ->
      let rc = Trahrhe.Recovery.make (Trahrhe.Inversion.invert_exn nest) ~param in
      let trip = Trahrhe.Recovery.trip_count rc in
      Alcotest.(check int) (what ^ ": trip") 134_940 trip;
      Alcotest.(check bool) (what ^ ": exact-rational fold")
        (what = "guarded max") (Trahrhe.Recovery.overflow_guarded rc);
      let opts =
        { Service.Exec.threads = 1; schedule = Ompsim.Schedule.Static; lanes; repeat = 1;
          retries = 0; native = false; reduce }
      in
      let serial_polls = ref 0 in
      let reference =
        Service.Exec.serial ~poll:(fun () -> incr serial_polls) rc ~nest ~param opts
      in
      Alcotest.(check int) (what ^ ": serial polls every 4096") (trip / 4096) !serial_polls;
      List.iter
        (fun (threads, schedule) ->
          let opts = { opts with threads; schedule } in
          let what =
            Printf.sprintf "%s %s threads=%d" what (Ompsim.Schedule.to_string schedule) threads
          in
          let polls = ref 0 in
          (* no injected faults: a failed chunk's serial fallback would
             re-partition the range and change the poll count *)
          (match
             Service.Exec.run ~faults:None ~poll:(fun () -> incr polls) ~reference:(fun _ -> reference) rc
               opts
           with
          | Ok _ -> ()
          | Error (Service.Exec.Mismatch _) -> Alcotest.failf "%s: sliced run differs" what
          | Error _ -> Alcotest.failf "%s: run failed" what);
          (* one thread claims every chunk: a poll per slice of each *)
          let rec slices remaining =
            if remaining = 0 then 0
            else
              let len =
                match schedule with
                | Ompsim.Schedule.Guided c -> Ompsim.Schedule.next_guided ~chunk:c ~nthreads:1 ~remaining
                | _ -> remaining
              in
              ((len + 0xffff) / 0x10000) + slices (remaining - len)
          in
          if threads = 1 then Alcotest.(check int) (what ^ ": a poll per slice") (slices trip) !polls)
        [ (1, Ompsim.Schedule.Static); (1, Ompsim.Schedule.Guided 1024);
          (2, Ompsim.Schedule.Static); (2, Ompsim.Schedule.Guided 1024) ])
    payloads

(* an empty OMPSIM_PLAN_CACHE is no store: plans stay in memory, shared
   objects go to a temp directory, and the working directory is left
   alone *)
let test_empty_plan_cache_env () =
  if not (Jit.Abi.functional ()) then Alcotest.skip ();
  with_temp_dir @@ fun dir ->
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  with_env [ ("OMPSIM_PLAN_CACHE", "") ] @@ fun () ->
  let cache = Cache.create ~capacity:4 () in
  let tier = Service.Native.create () in
  Alcotest.(check (option string)) "no plan store" None (Cache.dir cache);
  Alcotest.(check (option string)) "no native store" None (Service.Native.dir tier);
  let resp = exec_ok ~native:tier cache "exec kernel=utma n=40 threads=2 native=1" in
  Alcotest.(check string) "served natively" "true" (json_field "native" resp);
  Alcotest.(check (array string)) "nothing written to the working directory" [||]
    (Sys.readdir dir);
  Service.Native.clear tier

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
        [ prop_rat_roundtrip; prop_poly_roundtrip; prop_plan_roundtrip; prop_clause_plan_roundtrip ]
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
        Alcotest.test_case "armed faults reach a plain exec" `Quick test_exec_faults_armed;
        Alcotest.test_case "exec reference memo: hits, misses, identical" `Quick
          test_exec_reference_memo;
        Alcotest.test_case "exec reference memo: bounded LRU" `Quick
          test_exec_reference_eviction;
        Alcotest.test_case "exec reference memo: hits still checked" `Quick
          test_exec_reference_checked_on_hit;
        Alcotest.test_case "exec reference memo: one walk per key" `Quick
          test_exec_reference_single_flight;
        Alcotest.test_case "exec recovery memo: run options hit, other n misses" `Quick
          test_exec_recovery_memo;
        Alcotest.test_case "reduce ops answer the checksum's fingerprint" `Quick
          test_reduce_ops_share_fingerprint;
        Alcotest.test_case "deadline charges the reference walk" `Quick
          test_exec_deadline_charges_reference;
        Alcotest.test_case "exec recovery memo: alpha-renamed nest hits" `Quick
          test_exec_recovery_alpha;
        Alcotest.test_case "exec recovery memo: bounded LRU" `Quick test_exec_recovery_eviction;
        Alcotest.test_case "exec recovery memo: a raise memoizes nothing" `Quick
          test_exec_recovery_raise;
        Alcotest.test_case "exec recovery memo: native attach per request" `Quick
          test_exec_recovery_native_not_cached;
        Alcotest.test_case "reduce ops share one native object" `Quick
          test_native_ops_share_object;
        Alcotest.test_case "exec slices keep every fold exact" `Quick test_exec_slices_exact;
        Alcotest.test_case "empty OMPSIM_PLAN_CACHE is no store" `Quick test_empty_plan_cache_env;
        Alcotest.test_case "run_batch: order, errors, shutdown" `Quick test_run_batch;
        Alcotest.test_case "exec trip check refuses a wrong total" `Quick test_exec_trip_check;
        Alcotest.test_case "exec grid at N=9: exact or refused" `Quick test_exec_grid;
        Alcotest.test_case "collapse prints the grid where exec runs it" `Quick test_printer_grid
      ] )
  ]
