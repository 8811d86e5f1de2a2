open Common

(* micro-cache: the compilation service's plan cache. Phases:
   (1) cold — compile BENCH_CACHE_NESTS distinct nests through an
   ample cache, timing the misses; (2) warm — re-request every nest,
   timing pure in-memory hits (gate: warm >= 20x cold); (3) a
   Zipf-ish skewed workload against a deliberately undersized cache.
   The cache.* ledger against a request log, and single-flight
   dedup, are test_service's. *)
let run () =
  let nnests = env_int "BENCH_CACHE_NESTS" 32 in
  let reqs = env_int "BENCH_CACHE_REQS" 512 in
  header
    (Printf.sprintf "micro-cache: plan cache cold/warm latency, %d nests, %d skewed requests"
       nnests reqs);
  Emit.ensure_writable "BENCH_cache.json";
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  (* distinct triangular nests: the inner upper bound's constant offset
     varies, so every nest gets its own fingerprint but inversion always
     succeeds (depth 2) *)
  let nest_of_seed s =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = A.const Q.zero; upper = A.var "N" };
        { var = "j"; lower = A.var "i"; upper = A.make [ ("N", Q.one) ] (Q.of_int (1 + s)) } ]
  in
  let nests = Array.init nnests nest_of_seed in
  let time_ns f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let request cache nest =
    match Service.Cache.find_or_compile cache nest with
    | Ok _ -> ()
    | Error e -> failwith ("plan compile failed: " ^ e)
  in
  (* each phase reads its own slice of the process-wide cache ledger *)
  let phase_counts since =
    let d = Obsv.Metrics.since since in
    Service.Stats.(d cache_hits, d cache_misses, d cache_evictions)
  in
  (* (1)+(2) cold misses then warm hits on an ample cache *)
  let ample = Service.Cache.create ~capacity:(2 * nnests) ~dir:None () in
  let cold_total = time_ns (fun () -> Array.iter (request ample) nests) in
  let warm_rounds = 5 in
  let warm_total =
    time_ns (fun () ->
        for _ = 1 to warm_rounds do
          Array.iter (request ample) nests
        done)
  in
  let cold_ns = cold_total /. float_of_int nnests in
  let warm_ns = warm_total /. float_of_int (warm_rounds * nnests) in
  let warm_speedup = cold_ns /. warm_ns in
  Printf.printf "%-38s %12.0f ns\n" "cold compile (miss)" cold_ns;
  Printf.printf "%-38s %12.0f ns\n" "warm lookup (memory hit)" warm_ns;
  Printf.printf "%-38s %11.1fx\n" "warm speedup" warm_speedup;
  (* (3) Zipf-ish workload against an undersized cache: quadratically
     skewed toward nest 0, so popular plans stay resident and the tail
     churns through evictions *)
  let small = Service.Cache.create ~capacity:(max 2 (nnests / 4)) ~dir:None () in
  let since = Obsv.Metrics.snapshot () in
  let state = ref 12345 in
  let zipf_time =
    time_ns (fun () ->
        for _ = 1 to reqs do
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          let u = float_of_int !state /. 1073741824.0 in
          let idx = min (nnests - 1) (int_of_float (float_of_int nnests *. u *. u)) in
          request small nests.(idx)
        done)
  in
  let zipf_hits, zipf_misses, zipf_evictions = phase_counts since in
  let hit_ratio = float_of_int zipf_hits /. float_of_int reqs in
  Printf.printf
    "zipf workload: %d requests, %d hits (%.1f%%), %d misses, %d evictions, %.0f ns/request\n" reqs
    zipf_hits (100.0 *. hit_ratio) zipf_misses zipf_evictions
    (zipf_time /. float_of_int reqs);
  Emit.write ~path:"BENCH_cache.json" ~artifact:"micro-cache"
    [ ("nests", Emit.Int nnests);
      ("requests", Emit.Int reqs);
      ( "latency_ns",
        Emit.Obj
          [ ("cold_compile", Emit.F (cold_ns, 0));
            ("warm_hit", Emit.F (warm_ns, 0));
            ("zipf_per_request", Emit.F (zipf_time /. float_of_int reqs, 0))
          ] );
      ("warm_speedup", Emit.F (warm_speedup, 1));
      ("warm_speedup_ok", Emit.Bool (warm_speedup >= 20.0));
      ( "zipf",
        Emit.Obj
          [ ("capacity", Emit.Int (Service.Cache.capacity small));
            ("requests", Emit.Int reqs);
            ("hits", Emit.Int zipf_hits);
            ("misses", Emit.Int zipf_misses);
            ("evictions", Emit.Int zipf_evictions);
            ("hit_ratio", Emit.F (hit_ratio, 4))
          ] )
    ]
