(* Native plan specialization: emitted-C shape, the gcc driver, the
   dlopen shim, and bit-exactness of the native entry points against
   the interpreted recovery on hand-written nests. (The random-nest
   differential corpus lives in Test_oracle; the service-level cache
   behaviour in Test_service.) *)

module A = Polymath.Affine
module Q = Zmath.Rat
module R = Trahrhe.Recovery

let aff terms c = A.make (List.map (fun (x, k) -> (x, Q.of_int k)) terms) (Q.of_int c)

let triangular_nest =
  lazy
    (Trahrhe.Nest.make ~params:[ "N" ]
       [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
         { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ])

let tmp_dir =
  lazy
    (let d =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "ompsim-test-jit-%d" (Unix.getpid ()))
     in
     d)

(* the functional probe, not just --version: a wedged wrapper (see the
   CI wedged-cc job) answers the version probe and then hangs, and
   these tests assert successful specialization *)
let gcc_available = lazy (Jit.Abi.functional ())

let require_gcc () =
  if not (Lazy.force gcc_available) then
    Alcotest.skip ()

let specialize_exn nest =
  let inv = Trahrhe.Inversion.invert_exn nest in
  match Jit.Compile.specialize ~dir:(Lazy.force tmp_dir) inv with
  | Ok h -> (inv, h)
  | Error e -> Alcotest.failf "specialize failed: %s" e

let contains_in src needle =
  let nl = String.length needle and hl = String.length src in
  let rec go i = i + nl <= hl && (String.sub src i nl = needle || go (i + 1)) in
  go 0

let emit_exn nest =
  match Jit.Emit.source (Trahrhe.Inversion.invert_exn nest) with
  | Ok src -> src
  | Error e -> Alcotest.failf "emit failed: %s" e

let test_emit_source () =
  let src = emit_exn (Lazy.force triangular_nest) in
  let text = src.Jit.Emit.text in
  List.iter
    (fun needle ->
      if not (contains_in text needle) then Alcotest.failf "emitted C lacks %S:\n%s" needle text)
    [ "ompsim_abi"; "ompsim_fingerprint"; "ompsim_depth"; "ompsim_params"; "ompsim_trip";
      "__attribute__((noinline)) void ompsim_recover"; "ompsim_walk_hash"; "ompsim_reduce_sum";
      "return \"" ^ src.Jit.Emit.digest ^ "\";" ];
  (* the unit preprocesses nothing *)
  Alcotest.(check bool) "no #include" false (contains_in text "#include");
  (* a 10^12 outer shift overflows int64 in the ranking: an emit
     error, not an exception *)
  let s = 1_000_000_000_000 in
  let shifted =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] s; upper = aff [ ("N", 1) ] s };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] s } ]
  in
  match Jit.Emit.source (Trahrhe.Inversion.invert_exn shifted) with
  | Ok _ -> Alcotest.fail "emitted C for a nest whose ranking overflows int64"
  | Error e -> Alcotest.(check bool) ("counter error: " ^ e) true (contains_in e "64-bit counter")

(* a nest without a clause exports a stub reduce, not a dead walker.
   The operator is a run option that never reaches the emitter, so
   every op of a clause runs the clause nest's one source *)
let test_emit_shares_sources () =
  let nest = Lazy.force triangular_nest in
  let count_in text needle =
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length text then acc
      else go (i + 1) (if String.sub text i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let plain = emit_exn nest in
  Alcotest.(check int) "one run loop: the hash walker's" 1
    (count_in plain.Jit.Emit.text "omp_rem -= ");
  Alcotest.(check bool) "reduce stub" true
    (contains_in plain.Jit.Emit.text "ompsim_reduce_sum(const omp_i64 *omp_P, omp_i64 omp_pc, omp_i64 omp_len) {\n  return 0;\n}");
  let clause = emit_exn (Trahrhe.Nest.with_default_reduce nest) in
  Alcotest.(check int) "a clause walks in both walkers" 2
    (count_in clause.Jit.Emit.text "omp_rem -= ");
  Alcotest.(check bool) "the clause is another source" true
    (plain.Jit.Emit.digest <> clause.Jit.Emit.digest)

let test_specialize_and_identity () =
  require_gcc ();
  let _inv, h = specialize_exn (Lazy.force triangular_nest) in
  Alcotest.(check int) "depth" 2 (Jit.Native.depth h);
  Alcotest.(check int) "params" 1 (Jit.Native.params h)

let test_native_matches_interpreted () =
  require_gcc ();
  let nest = Lazy.force triangular_nest in
  let inv, h = specialize_exn nest in
  let n = 13 in
  let param x = if x = "N" then n else Alcotest.failf "unknown param %s" x in
  let rc = R.make inv ~param in
  let ps = [| n |] in
  let trip = R.trip_count rc in
  Alcotest.(check int) "trip" trip (Jit.Native.trip h ps);
  let idx = Array.make 2 0 in
  for pc = 1 to trip do
    Jit.Native.recover h ps ~pc idx;
    let expect = R.recover rc pc in
    if idx <> expect then
      Alcotest.failf "recover mismatch at pc=%d: native [%d;%d] vs [%d;%d]" pc idx.(0) idx.(1)
        expect.(0) expect.(1)
  done;
  (* chunked checksum walk, several chunk sizes, including overruns *)
  List.iter
    (fun chunk ->
      let pc = ref 1 in
      while !pc <= trip do
        let len = min chunk (trip - !pc + 1) in
        let interp = ref 0 in
        R.walk rc ~pc:!pc ~len (fun i -> interp := !interp + R.iter_hash i);
        let native = Jit.Native.walk_hash h ps ~pc:!pc ~len in
        Alcotest.(check int) (Printf.sprintf "walk_hash pc=%d len=%d" !pc len) !interp native;
        pc := !pc + len
      done;
      (* an overrunning len must clamp to the end of the space *)
      let interp = ref 0 in
      R.walk rc ~pc:1 ~len:(trip + 100) (fun i -> interp := !interp + R.iter_hash i);
      Alcotest.(check int) "walk_hash overrun" !interp
        (Jit.Native.walk_hash h ps ~pc:1 ~len:(trip + 100)))
    [ 1; 3; 7; 64; trip ];
  (* out-of-range pcs contribute nothing *)
  Alcotest.(check int) "pc=0" 0 (Jit.Native.walk_hash h ps ~pc:0 ~len:5);
  Alcotest.(check int) "pc>trip" 0 (Jit.Native.walk_hash h ps ~pc:(trip + 1) ~len:5)

let test_attach_native () =
  require_gcc ();
  let nest = Lazy.force triangular_nest in
  let inv, h = specialize_exn nest in
  let n = 11 in
  let rc = R.make inv ~param:(fun _ -> n) in
  let ps = [| n |] in
  let nat =
    { R.n_walk_hash = (fun ~pc ~len -> Jit.Native.walk_hash h ps ~pc ~len);
      n_recover = (fun ~pc idx -> Jit.Native.recover h ps ~pc idx);
      n_reduce_sum = (fun ~pc ~len -> Jit.Native.reduce_sum h ps ~pc ~len) }
  in
  let rcn = R.attach_native rc nat in
  Alcotest.(check bool) "enabled" true (R.native_enabled rcn);
  Alcotest.(check bool) "baseline not enabled" false (R.native_enabled rc);
  let trip = R.trip_count rc in
  for pc = 1 to trip do
    Alcotest.(check int)
      (Printf.sprintf "walk_hash via t pc=%d" pc)
      (R.walk_hash rc ~pc ~len:5) (R.walk_hash rcn ~pc ~len:5)
  done;
  (* native_recover probe *)
  (match R.native_recover rcn 7 with
  | None -> Alcotest.fail "native_recover returned None with a backend attached"
  | Some idx -> Alcotest.(check bool) "native_recover" true (idx = R.recover rc 7));
  Alcotest.(check bool) "no backend -> None" true (R.native_recover rc 1 = None);
  (* lane-walk equivalence through the attached backend *)
  let collect r =
    let acc = ref [] in
    R.walk_lanes r ~pc:1 ~len:trip ~vlength:4 (fun ~base ~count lanes ->
        for l = 0 to count - 1 do
          acc := (base + l, lanes.(0).(l), lanes.(1).(l)) :: !acc
        done);
    List.rev !acc
  in
  Alcotest.(check bool) "walk_lanes equal" true (collect rc = collect rcn)

let test_stale_so_recompiles () =
  require_gcc ();
  (* a directory of its own: dlopen hands back an object still open
     under the same path, so every handle on these paths is closed *)
  let dir = Filename.concat (Lazy.force tmp_dir) "stale" in
  let inv = Trahrhe.Inversion.invert_exn (Lazy.force triangular_nest) in
  let digest =
    match Jit.Compile.emit inv with Ok src -> src.Jit.Emit.digest | Error e -> Alcotest.fail e
  in
  (match Jit.Compile.specialize ~dir inv with
  | Error e -> Alcotest.failf "first specialize: %s" e
  | Ok h -> Jit.Native.close h);
  let path = Filename.concat dir (Jit.Compile.so_name digest) in
  Alcotest.(check bool) "so published under its digest" true (Sys.file_exists path);
  let replace content =
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc content;
    close_out oc;
    Sys.rename tmp path
  in
  (* corrupt it: the next specialize must silently miss and recompile *)
  replace "not an ELF object";
  (match Jit.Compile.specialize ~dir inv with
  | Error e -> Alcotest.failf "recompile after corruption: %s" e
  | Ok h ->
    Alcotest.(check int) "recompiled object works" 2 (Jit.Native.depth h);
    Jit.Native.close h);
  (* another source's object under our name is a stale miss, not a
     hit: the loader checks the digest the object reports *)
  let other =
    Trahrhe.Inversion.invert_exn
      (Trahrhe.Nest.make ~params:[ "N" ]
         [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
           { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 } ])
  in
  let other_digest =
    match Jit.Compile.emit other with Ok src -> src.Jit.Emit.digest | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "another nest, another digest" true (other_digest <> digest);
  (match Jit.Compile.specialize ~dir other with
  | Error e -> Alcotest.failf "other specialize: %s" e
  | Ok h -> Jit.Native.close h);
  let content =
    let ic = open_in_bin (Filename.concat dir (Jit.Compile.so_name other_digest)) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  replace content;
  (match Jit.Native.load ~path ~digest with
  | Ok _ -> Alcotest.fail "a foreign object loaded under our digest"
  | Error _ -> ());
  let since = Obsv.Metrics.snapshot () in
  match Jit.Compile.specialize ~dir inv with
  | Error e -> Alcotest.failf "recompile after stale overwrite: %s" e
  | Ok h ->
    Alcotest.(check int) "the foreign object was recompiled" 1
      (Obsv.Metrics.since since Jit.Stats.compiles);
    Alcotest.(check int) "ours again: trip at N=5" 15 (Jit.Native.trip h [| 5 |]);
    Jit.Native.close h

(* The jit.* / native.served ledger against a known sequence: a
   tier's first attach compiles and every successful attach is served;
   specializing into a fresh directory compiles, doing it again there
   only loads the published object; a parameter past the native
   headroom falls back. *)
let test_ledger_reconciles () =
  require_gcc ();
  let root =
    Printf.sprintf "%s-ledger-%.0f" (Lazy.force tmp_dir) (Unix.gettimeofday () *. 1e6)
  in
  let tier_dir = Filename.concat root "tier" and cold_dir = Filename.concat root "cold" in
  let cache = Service.Cache.create ~capacity:4 ~dir:(Some tier_dir) () in
  let plan, renaming =
    match Service.Cache.find_or_compile cache (Lazy.force triangular_nest) with
    | Ok x -> x
    | Error e -> Alcotest.failf "plan compile failed: %s" e
  in
  let cparam = Service.Fingerprint.canonical_param renaming (fun _ -> 40) in
  let since = Obsv.Metrics.snapshot () in
  let counted = Obsv.Metrics.since since in
  let tier = Service.Native.create ~dir:(Some tier_dir) () in
  let attaches = 5 in
  let rc = Service.Plan.recovery plan ~param:cparam in
  for _ = 1 to attaches do
    Alcotest.(check bool) "attach engages" true
      (R.native_enabled (Service.Native.recovery tier plan ~param:cparam rc))
  done;
  Alcotest.(check int) "tier compiled once" 1 (counted Jit.Stats.compiles);
  Alcotest.(check int) "every attach served" attaches (counted Service.Stats.native_served);
  let specialize what =
    match Jit.Compile.specialize ~dir:cold_dir plan.Service.Plan.inversion with
    | Ok h -> Jit.Native.close h
    | Error e -> Alcotest.failf "%s specialize failed: %s" what e
  in
  specialize "cold";
  specialize "warm";
  Alcotest.(check int) "cold specialize compiles" 2 (counted Jit.Stats.compiles);
  (* loads count only the warm dlopen: a compile's own load rides it *)
  Alcotest.(check int) "warm specialize only loads" 1 (counted Jit.Stats.loads);
  let huge _ = 3_000_000_000 in
  let big = Service.Native.recovery tier plan ~param:huge (Service.Plan.recovery plan ~param:huge) in
  Alcotest.(check bool) "past the headroom stays interpreted" false (R.native_enabled big);
  Alcotest.(check bool) "overflow guard engaged" true (R.overflow_guarded big);
  Alcotest.(check int) "the refusal is one fallback" 1 (counted Jit.Stats.fallbacks);
  Alcotest.(check int) "a refusal is not served" attaches (counted Service.Stats.native_served);
  Service.Native.clear tier

let test_load_missing () =
  match Jit.Native.load ~path:"/nonexistent/ompsim.so" ~digest:"x" with
  | Ok _ -> Alcotest.fail "loading a missing path succeeded"
  | Error _ -> ()

(* ---------------------------------------------------------------- *)
(* Supervised subprocess runner                                      *)
(* ---------------------------------------------------------------- *)

let sh script = Jit.Subproc.run "/bin/sh" [ "-c"; script ]

let test_subproc_exit_and_capture () =
  let c = sh "echo out-line; echo err-line >&2; exit 3" in
  (match c.Jit.Subproc.outcome with
  | Jit.Subproc.Exited 3 -> ()
  | _ -> Alcotest.failf "expected exit 3, got %s" (Jit.Subproc.describe c));
  Alcotest.(check string) "stdout captured" "out-line\n" c.Jit.Subproc.stdout;
  Alcotest.(check string) "stderr captured" "err-line\n" c.Jit.Subproc.stderr

let test_subproc_timeout () =
  let t0 = Unix.gettimeofday () in
  let c = Jit.Subproc.run ~timeout_ms:200 "/bin/sh" [ "-c"; "sleep 600" ] in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match c.Jit.Subproc.outcome with
  | Jit.Subproc.Timed_out -> ()
  | _ -> Alcotest.failf "expected a timeout, got %s" (Jit.Subproc.describe c));
  (* the wedged child must cost one bounded wait, not its sleep *)
  Alcotest.(check bool)
    (Printf.sprintf "killed promptly (%.0fms)" wall_ms)
    true (wall_ms < 5000.);
  Alcotest.(check bool)
    "describe names the deadline" true
    (String.length (Jit.Subproc.describe c) > 0
    && String.sub (Jit.Subproc.describe c) 0 9 = "timed out")

(* a child that exits at once is reaped within milliseconds: the
   supervisor does not sleep out a poll tick after the pipes close *)
let test_subproc_prompt_reap () =
  let runs =
    List.init 9 (fun _ ->
        let c = Jit.Subproc.run "/bin/true" [] in
        (match c.Jit.Subproc.outcome with
        | Jit.Subproc.Exited 0 -> ()
        | _ -> Alcotest.failf "/bin/true: %s" (Jit.Subproc.describe c));
        c.Jit.Subproc.elapsed_ms)
  in
  let median = List.nth (List.sort compare runs) 4 in
  Alcotest.(check bool) (Printf.sprintf "median /bin/true %.1fms < 20ms" median) true (median < 20.)

(* a child that closes both pipes and then hangs still meets the
   deadline, and its whole process group is killed *)
let test_subproc_closed_pipes_timeout () =
  (* a sleep length no other process carries in its argv *)
  let tag = Printf.sprintf "600.%d%d" (Unix.getpid ()) (int_of_float (Unix.gettimeofday () *. 1e3) mod 100000) in
  let t0 = Unix.gettimeofday () in
  let c =
    Jit.Subproc.run ~timeout_ms:200 "/bin/sh"
      [ "-c"; Printf.sprintf "exec >/dev/null 2>&1; sleep %s" tag ]
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match c.Jit.Subproc.outcome with
  | Jit.Subproc.Timed_out -> ()
  | _ -> Alcotest.failf "expected a timeout, got %s" (Jit.Subproc.describe c));
  Alcotest.(check bool) (Printf.sprintf "timed out within 1s (%.0fms)" wall_ms) true (wall_ms < 1000.);
  let survivors () =
    Array.to_list (Sys.readdir "/proc")
    |> List.filter (fun d ->
           int_of_string_opt d <> None
           &&
           match open_in_bin (Printf.sprintf "/proc/%s/cmdline" d) with
           | exception Sys_error _ -> false
           | ic ->
             let argv = try input_line ic with End_of_file -> "" in
             close_in_noerr ic;
             contains_in argv tag)
  in
  (* SIGKILL lands asynchronously: allow the group a moment to go *)
  let rec settle tries =
    match survivors () with
    | [] -> []
    | left when tries = 0 -> left
    | _ ->
      Unix.sleepf 0.05;
      settle (tries - 1)
  in
  Alcotest.(check (list string)) "no process left behind" [] (settle 20)

let test_subproc_spawn_failure () =
  let c = Jit.Subproc.run "/nonexistent-ompsim-prog" [] in
  (match c.Jit.Subproc.outcome with
  | Jit.Subproc.Exited 127 -> ()
  | _ -> Alcotest.failf "expected exit 127, got %s" (Jit.Subproc.describe c));
  Alcotest.(check bool) "stderr explains" true (c.Jit.Subproc.stderr <> "")

let test_subproc_caps_never_block () =
  (* a child far chattier than the cap must still run to completion:
     the pipes keep draining past the kept excerpt *)
  let c =
    Jit.Subproc.run ~stdout_cap:64 "/bin/sh"
      [ "-c"; "i=0; while [ $i -lt 20000 ]; do echo 0123456789abcdef; i=$((i+1)); done" ]
  in
  (match c.Jit.Subproc.outcome with
  | Jit.Subproc.Exited 0 -> ()
  | _ -> Alcotest.failf "chatty child should exit 0, got %s" (Jit.Subproc.describe c));
  Alcotest.(check bool) "excerpt bounded" true (String.length c.Jit.Subproc.stdout <= 64);
  Alcotest.(check bool) "excerpt non-empty" true (String.length c.Jit.Subproc.stdout > 0)

let test_subproc_signaled () =
  let c = sh "kill -TERM $$" in
  match c.Jit.Subproc.outcome with
  | Jit.Subproc.Signaled s -> Alcotest.(check int) "SIGTERM" Sys.sigterm s
  | _ -> Alcotest.failf "expected a signal death, got %s" (Jit.Subproc.describe c)

(* ---------------------------------------------------------------- *)
(* Compile circuit breaker (fake clock)                              *)
(* ---------------------------------------------------------------- *)

let fake_clock start =
  let now = ref start in
  ((fun () -> !now), fun ms -> now := !now +. ms)

let must_acquire b msg =
  if not (Jit.Breaker.acquire b) then Alcotest.failf "%s: acquire refused" msg

let must_reject b msg =
  if Jit.Breaker.acquire b then Alcotest.failf "%s: acquire allowed" msg

let test_breaker_opens_at_threshold () =
  let since = Obsv.Metrics.snapshot () in
  let now, _advance = fake_clock 0. in
  let b = Jit.Breaker.create ~threshold:3 ~cooldown_ms:1000 ~now_ms:now () in
  Alcotest.(check bool) "starts closed" true (Jit.Breaker.state b = Jit.Breaker.Closed);
  for _ = 1 to 2 do
    must_acquire b "under threshold";
    Jit.Breaker.failure b
  done;
  Alcotest.(check bool) "still closed at 2/3" true (Jit.Breaker.state b = Jit.Breaker.Closed);
  must_acquire b "third attempt";
  Jit.Breaker.failure b;
  Alcotest.(check bool) "open at threshold" true (Jit.Breaker.state b = Jit.Breaker.Open);
  Alcotest.(check int) "one open transition" 1 (Obsv.Metrics.since since Jit.Stats.breaker_opens);
  must_reject b "open rejects";
  must_reject b "open keeps rejecting";
  Alcotest.(check int) "rejections counted" 2 (Obsv.Metrics.since since Jit.Stats.breaker_rejects)

let test_breaker_success_resets_streak () =
  let now, _advance = fake_clock 0. in
  let b = Jit.Breaker.create ~threshold:3 ~cooldown_ms:1000 ~now_ms:now () in
  must_acquire b "a";
  Jit.Breaker.failure b;
  must_acquire b "b";
  Jit.Breaker.failure b;
  must_acquire b "c";
  Jit.Breaker.success b;
  Alcotest.(check int) "streak reset" 0 (Jit.Breaker.failures b);
  must_acquire b "d";
  Jit.Breaker.failure b;
  Alcotest.(check bool) "still closed: failures not consecutive" true
    (Jit.Breaker.state b = Jit.Breaker.Closed)

let test_breaker_half_open_probe () =
  let since = Obsv.Metrics.snapshot () in
  let now, advance = fake_clock 0. in
  let b = Jit.Breaker.create ~threshold:1 ~cooldown_ms:1000 ~now_ms:now () in
  must_acquire b "first";
  Jit.Breaker.failure b;
  must_reject b "open before cooldown";
  advance 999.;
  must_reject b "still cooling down";
  advance 2.;
  must_acquire b "cooldown elapsed: probe slot";
  Alcotest.(check bool) "half-open" true (Jit.Breaker.state b = Jit.Breaker.Half_open);
  must_reject b "probe slot is exclusive";
  Alcotest.(check int) "one probe granted" 1 (Obsv.Metrics.since since Jit.Stats.breaker_probes);
  Jit.Breaker.success b;
  Alcotest.(check bool) "probe success closes" true (Jit.Breaker.state b = Jit.Breaker.Closed);
  must_acquire b "closed again"

let test_breaker_probe_failure_reopens () =
  let since = Obsv.Metrics.snapshot () in
  let now, advance = fake_clock 0. in
  let b = Jit.Breaker.create ~threshold:1 ~cooldown_ms:1000 ~now_ms:now () in
  must_acquire b "first";
  Jit.Breaker.failure b;
  advance 1001.;
  must_acquire b "probe";
  Jit.Breaker.failure b;
  Alcotest.(check bool) "probe failure reopens" true (Jit.Breaker.state b = Jit.Breaker.Open);
  Alcotest.(check int) "two open transitions" 2 (Obsv.Metrics.since since Jit.Stats.breaker_opens);
  must_reject b "cooling down again";
  advance 1001.;
  must_acquire b "second probe";
  Jit.Breaker.success b;
  Alcotest.(check bool) "recovers eventually" true (Jit.Breaker.state b = Jit.Breaker.Closed)

(* regression: an unemittable plan arriving while the breaker is
   cooling down must not consume the half-open probe slot. Emission is
   plan work and runs before the breaker acquire; if it instead took
   the probe and returned without settling it, [probing] would stay
   set forever and every later acquire would be rejected — the native
   tier silently wedged off for the rest of the process. *)
let test_breaker_emit_error_keeps_probe_slot () =
  let now = ref 0. in
  let b = Jit.Breaker.create ~threshold:1 ~cooldown_ms:1000 ~now_ms:(fun () -> !now) () in
  Jit.Breaker.failure b;
  Alcotest.(check bool) "open after failure" true (Jit.Breaker.state b = Jit.Breaker.Open);
  now := !now +. 1001.;
  (* "int" is a fine symbolic parameter but not an emittable C
     identifier, so Emit.source rejects the plan before any compile *)
  let nest =
    Trahrhe.Nest.make ~params:[ "int" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("int", 1) ] 0 } ]
  in
  let inv = Trahrhe.Inversion.invert_exn nest in
  (match Jit.Compile.specialize ~dir:(Lazy.force tmp_dir) ~breaker:b inv with
  | Ok _ -> Alcotest.fail "unemittable plan specialized"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "plan-shaped error: %s" e)
      true (Jit.Compile.is_plan_error e);
    Alcotest.(check bool) "not a breaker rejection" false (Jit.Compile.is_breaker_rejection e));
  Alcotest.(check bool)
    "probe slot still available to a real compile" true (Jit.Breaker.acquire b)

(* the supervised path end to end: a cc that answers --version but
   wedges on compile must fail within the deadline, not hang.
   OMPSIM_JIT_CC and OMPSIM_JIT_TIMEOUT_MS are re-read per call by
   design, so the test drives the real env knobs and restores them. *)
let with_env kvs f =
  let saved = List.map (fun (k, _) -> (k, Option.value ~default:"" (Sys.getenv_opt k))) kvs in
  List.iter (fun (k, v) -> Unix.putenv k v) kvs;
  Fun.protect ~finally:(fun () -> List.iter (fun (k, v) -> Unix.putenv k v) saved) f

let test_compile_wedged_cc () =
  let dir = Filename.temp_file "ompsim-wedge" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let cc = Filename.concat dir "wedged-cc" in
      let oc = open_out cc in
      output_string oc
        "#!/bin/sh\ncase \"$1\" in --version) echo wedged-cc 1.0; exit 0;; esac\nsleep 600\n";
      close_out oc;
      Unix.chmod cc 0o755;
      with_env [ ("OMPSIM_JIT_CC", cc); ("OMPSIM_JIT_TIMEOUT_MS", "300") ] @@ fun () ->
      let inv = Trahrhe.Inversion.invert_exn (Lazy.force triangular_nest) in
      let t0 = Unix.gettimeofday () in
      let r = Jit.Compile.specialize ~dir inv in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      (match r with
      | Ok _ -> Alcotest.fail "wedged cc reported success"
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the deadline knob: %s" e)
          true
          (contains_in e "OMPSIM_JIT_TIMEOUT_MS"));
      (* deadline 300ms + --version probe + spawn overhead, with slack
         for loaded CI — nowhere near the 600s the script would hang *)
      Alcotest.(check bool)
        (Printf.sprintf "bounded by the deadline, not the hang (%.0fms)" wall_ms)
        true (wall_ms < 5000.))

let suites =
  [ ( "jit",
      [ Alcotest.test_case "emit source" `Quick test_emit_source;
        Alcotest.test_case "emit: stub reduce, one source per op" `Quick test_emit_shares_sources;
        Alcotest.test_case "specialize + identity" `Quick test_specialize_and_identity;
        Alcotest.test_case "native = interpreted" `Quick test_native_matches_interpreted;
        Alcotest.test_case "attach_native routing" `Quick test_attach_native;
        Alcotest.test_case "corrupt/stale .so recompiles" `Quick test_stale_so_recompiles;
        Alcotest.test_case "jit ledger reconciles" `Quick test_ledger_reconciles;
        Alcotest.test_case "load missing path" `Quick test_load_missing ] );
    ( "jit.subproc",
      [ Alcotest.test_case "exit code + stream capture" `Quick test_subproc_exit_and_capture;
        Alcotest.test_case "deadline kills a wedged child" `Quick test_subproc_timeout;
        Alcotest.test_case "prompt exit reaped promptly" `Quick test_subproc_prompt_reap;
        Alcotest.test_case "closed pipes still meet the deadline" `Quick
          test_subproc_closed_pipes_timeout;
        Alcotest.test_case "spawn failure = exit 127" `Quick test_subproc_spawn_failure;
        Alcotest.test_case "capture caps never block the child" `Quick
          test_subproc_caps_never_block;
        Alcotest.test_case "signal death reported" `Quick test_subproc_signaled;
        Alcotest.test_case "wedged cc fails within the deadline" `Quick test_compile_wedged_cc ]
    );
    ( "jit.breaker",
      [ Alcotest.test_case "opens at threshold, rejects while open" `Quick
          test_breaker_opens_at_threshold;
        Alcotest.test_case "success resets the streak" `Quick test_breaker_success_resets_streak;
        Alcotest.test_case "half-open grants one probe" `Quick test_breaker_half_open_probe;
        Alcotest.test_case "probe failure re-opens" `Quick test_breaker_probe_failure_reopens;
        Alcotest.test_case "emit error cannot leak the probe slot" `Quick
          test_breaker_emit_error_keeps_probe_slot ]
    ) ]
