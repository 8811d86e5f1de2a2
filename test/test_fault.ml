(* Fault-tolerance tests: spec parsing, deterministic injection
   decisions, supervised regions (retry / cancellation / serial
   fallback), exception propagation with preserved backtraces, and the
   analytic fault model of Sim. *)

module F = Ompsim.Fault
module Par = Ompsim.Par
module Sched = Ompsim.Schedule
module Sim = Ompsim.Sim

let unit_region = Test_ompsim.unit_region

(* -------- spec parsing -------- *)

let spec_testable =
  Alcotest.testable
    (fun fmt t -> Format.pp_print_string fmt (F.to_spec t))
    (fun a b -> a = b)

let test_spec_valid () =
  List.iter
    (fun s ->
      Alcotest.(check (result spec_testable string)) (s ^ " arms default") (Ok F.default)
        (F.of_spec s))
    [ "1"; "on"; "true"; "yes"; "ON"; "True" ];
  List.iter
    (fun (s, want) ->
      Alcotest.(check (result spec_testable string)) s (Ok want) (F.of_spec s))
    [ ("p=0.3", { F.default with p = 0.3 });
      ("p=0.3,seed=7", { F.default with p = 0.3; seed = 7 });
      ( "p=0,seed=1,stall=0.25,stall_us=200,max=50",
        { F.p = 0.0; seed = 1; stall_p = 0.25; stall_us = 200; max_injections = 50 } );
      (" p = 0.5 , max = -1 ", { F.default with p = 0.5; max_injections = -1 }) ];
  (* to_spec prints something of_spec parses back *)
  List.iter
    (fun t ->
      Alcotest.(check (result spec_testable string)) (F.to_spec t ^ " round-trips") (Ok t)
        (F.of_spec (F.to_spec t)))
    [ F.default; { F.p = 1.0; seed = 0; stall_p = 0.5; stall_us = 10; max_injections = 3 } ]

let test_spec_reject () =
  List.iter
    (fun s ->
      match F.of_spec s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "0"; "off"; "bogus"; "p"; "p="; "=0.3"; "p=1.5"; "p=-0.1"; "p=x"; "seed=1.5";
      "seed="; "stall=2"; "stall_us=-5"; "max=x"; "frequency=0.5"; "p=0.1,,"; "p=0.1,q=2";
      "p=0.1;seed=2" ]

(* -------- decision determinism -------- *)

let test_decide_deterministic () =
  let cfg = { F.default with p = 0.5; seed = 9 } in
  for start = 0 to 199 do
    let first = F.decide cfg ~start ~attempt:0 in
    for _ = 1 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "start=%d stable" start)
        first
        (F.decide cfg ~start ~attempt:0)
    done
  done;
  (* extremes *)
  for start = 0 to 99 do
    Alcotest.(check bool) "p=0 never" false
      (F.decide { cfg with p = 0.0 } ~start ~attempt:0);
    Alcotest.(check bool) "p=1 always" true (F.decide { cfg with p = 1.0 } ~start ~attempt:0)
  done;
  (* the hash actually uses seed, start and attempt *)
  let count cfg =
    let c = ref 0 in
    for start = 0 to 999 do
      if F.decide cfg ~start ~attempt:0 then incr c
    done;
    !c
  in
  let c1 = count cfg and c2 = count { cfg with seed = 10 } in
  Alcotest.(check bool) "p=0.5 hits are roughly half" true (c1 > 300 && c1 < 700);
  let differs = ref false in
  for start = 0 to 99 do
    if F.decide cfg ~start ~attempt:0 <> F.decide { cfg with seed = 10 } ~start ~attempt:0 then
      differs := true
  done;
  Alcotest.(check bool) "seed changes the failure set" true (!differs && c1 <> c2 || !differs);
  let attempt_differs = ref false in
  for start = 0 to 99 do
    if F.decide cfg ~start ~attempt:0 <> F.decide cfg ~start ~attempt:1 then
      attempt_differs := true
  done;
  Alcotest.(check bool) "retried attempts hash differently" true !attempt_differs

let test_global_config () =
  let saved = F.get () in
  F.set None;
  Alcotest.(check bool) "disarmed" false (F.armed ());
  let inside = F.with_faults (Some F.default) (fun () -> F.armed ()) in
  Alcotest.(check bool) "armed inside with_faults" true inside;
  Alcotest.(check bool) "restored after" false (F.armed ());
  (try F.with_faults (Some F.default) (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after exception" false (F.armed ());
  F.set saved

(* -------- supervised regions -------- *)

let all_schedules =
  [ Sched.Static; Sched.Static_chunk 7; Sched.Dynamic 16; Sched.Guided 8;
    Sched.Work_stealing 8 ]

(* Each index must execute exactly once whatever faults are injected:
   injected faults fire before the body (failed attempts do no work),
   and chunks skipped by cancellation surface as coverage gaps the
   serial fallback re-runs. *)
let check_exactly_once ~label ~schedule ~nthreads ~n ~faults ~retries () =
  let hits = Array.make (max n 1) 0 in
  let result =
    unit_region ~retries ~faults ~nthreads ~schedule ~n (fun ~thread:_ ~start ~len ->
        for q = start to start + len - 1 do
          hits.(q) <- hits.(q) + 1
        done)
  in
  (match result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label (Par.describe_error e));
  for q = 0 to n - 1 do
    if hits.(q) <> 1 then Alcotest.failf "%s: index %d ran %d times" label q hits.(q)
  done

let test_resilient_all_schedules () =
  let faults = Some { F.default with p = 0.3; seed = 5 } in
  List.iter
    (fun schedule ->
      check_exactly_once
        ~label:(Sched.to_string schedule)
        ~schedule ~nthreads:4 ~n:997 ~faults ~retries:3 ())
    all_schedules;
  (* n = 0 and n = 1 corners, and a nested region, whose chunks run
     on spawned domains *)
  check_exactly_once ~label:"empty" ~schedule:(Sched.Dynamic 4) ~nthreads:2 ~n:0 ~faults
    ~retries:1 ();
  check_exactly_once ~label:"single" ~schedule:Sched.Static ~nthreads:3 ~n:1 ~faults ~retries:3
    ();
  Test_ompsim.in_nested_region
    (check_exactly_once ~label:"nested, spawned" ~schedule:(Sched.Dynamic 16) ~nthreads:3 ~n:500
       ~faults ~retries:3)

exception Poison of int

(* a kernel that is genuinely broken for one chunk: retries cannot save
   it, the serial fallback fails on it too, and the region must report
   a structured error naming the range — everything else still runs. *)
let test_poisoned_chunk schedule () =
  let n = 400 and nthreads = 4 and poisoned = 137 in
  let visited = Array.make n false in
  let lost = ref [] in
  let kernel ~thread:_ ~start ~len =
    for q = start to start + len - 1 do
      if q = poisoned then begin
        Printexc.record_backtrace true;
        raise (Poison q)
      end;
      visited.(q) <- true
    done
  in
  Obsv.Control.with_enabled true (fun () ->
      Ompsim.Stats.reset ();
      match unit_region ~retries:2 ~faults:None ~nthreads ~schedule ~n kernel with
      | Ok () -> Alcotest.fail "poisoned region reported success"
      | Error { reason; failures; unrecovered } ->
        Alcotest.(check bool) "reason" true (reason = Par.Chunk_failed);
        Alcotest.(check bool) "some failure recorded" true (failures <> []);
        let covers (s, l) = poisoned >= s && poisoned < s + l in
        Alcotest.(check bool) "a failure names the poisoned range" true
          (List.exists (fun (cf : Par.chunk_failure) -> covers (cf.start, cf.len)) failures);
        Alcotest.(check bool) "poison exception surfaced" true
          (List.exists
             (fun (cf : Par.chunk_failure) ->
               match cf.error with Poison q -> q = poisoned | _ -> false)
             failures);
        let parallel_failure =
          List.find (fun (cf : Par.chunk_failure) -> covers (cf.start, cf.len)) failures
        in
        Alcotest.(check int) "retries exhausted" 3 parallel_failure.attempts;
        Alcotest.(check bool) "backtrace captured" true
          (Printexc.raw_backtrace_length parallel_failure.backtrace > 0);
        Alcotest.(check bool) "unrecovered range reported" true (List.exists covers unrecovered);
        lost := unrecovered;
        (* counters: the poisoned chunk retried twice in the region and
           the region cancelled exactly once *)
        Alcotest.(check bool) "chunk.retries >= 2" true
          (Obsv.Metrics.total Ompsim.Stats.chunk_retries >= 2);
        Alcotest.(check int) "region.cancelled" 1
          (Obsv.Metrics.total Ompsim.Stats.regions_cancelled));
  (* every index outside the unrecovered ranges ran (parallel or via
     serial fallback — the poisoned chunk's tail stays lost because the
     kernel aborts it on every attempt), and the pool survives *)
  let in_lost q = List.exists (fun (s, l) -> q >= s && q < s + l) !lost in
  Alcotest.(check bool) "all indices outside the unrecovered ranges executed" true
    (let ok = ref true in
     for q = 0 to n - 1 do
       if (not (in_lost q)) && not visited.(q) then ok := false
     done;
     !ok);
  let stride = 16 in
  let partial = Array.make (nthreads * stride) 0 in
  Par.parallel_for_chunks ~nthreads ~schedule:(Sched.Dynamic 8) ~n:100
    (fun ~thread ~start ~len ->
      let acc = ref 0 in
      for q = start to start + len - 1 do
        acc := !acc + q
      done;
      partial.(thread * stride) <- partial.(thread * stride) + !acc);
  let sum = ref 0 in
  for t = 0 to nthreads - 1 do
    sum := !sum + partial.(t * stride)
  done;
  Alcotest.(check int) "pool still works after the failed region" 4950 !sum

let test_hard_poison_serial_recovery () =
  (* p = 1 with no retries: every parallel attempt dies, the region
     cancels, and the injection-free serial fallback recovers the whole
     range — Ok, with the fallback observable in the counters *)
  let n = 300 and nthreads = 3 in
  let hits = Array.make n 0 in
  Obsv.Control.with_enabled true (fun () ->
      Ompsim.Stats.reset ();
      (match
         unit_region ~retries:0
           ~faults:(Some { F.default with p = 1.0; seed = 3 })
           ~nthreads ~schedule:(Sched.Dynamic 16) ~n
           (fun ~thread:_ ~start ~len ->
             for q = start to start + len - 1 do
               hits.(q) <- hits.(q) + 1
             done)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "hard poison not recovered: %s" (Par.describe_error e));
      Alcotest.(check bool) "faults.injected > 0" true
        (Obsv.Metrics.total Ompsim.Stats.faults_injected > 0);
      Alcotest.(check bool) "fallback.serial > 0" true
        (Obsv.Metrics.total Ompsim.Stats.serial_fallbacks > 0);
      Alcotest.(check int) "region.cancelled" 1
        (Obsv.Metrics.total Ompsim.Stats.regions_cancelled);
      Alcotest.(check int) "par.iterations reconciles to n" n
        (Obsv.Metrics.total Ompsim.Stats.par_iterations));
  Array.iteri
    (fun q c -> if c <> 1 then Alcotest.failf "index %d ran %d times" q c)
    hits

let test_injection_budget () =
  (* max=3 bounds the injections: a p=1 chunk is injected on attempts
     1..3, then the budget is spent and attempt 4 succeeds in place *)
  F.reset_budget ();
  Obsv.Control.with_enabled true (fun () ->
      Ompsim.Stats.reset ();
      let ran = ref 0 in
      (match
         unit_region ~retries:5
           ~faults:(Some { F.default with p = 1.0; max_injections = 3 })
           ~nthreads:1 ~schedule:Sched.Static ~n:10
           (fun ~thread:_ ~start:_ ~len -> ran := !ran + len)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "budgeted region failed: %s" (Par.describe_error e));
      Alcotest.(check int) "iterations ran" 10 !ran;
      Alcotest.(check int) "exactly 3 injections" 3
        (Obsv.Metrics.total Ompsim.Stats.faults_injected);
      Alcotest.(check int) "3 retries consumed" 3
        (Obsv.Metrics.total Ompsim.Stats.chunk_retries));
  F.reset_budget ()

let test_deadline_expiry () =
  (* a deadline of 0 ms expires before any chunk runs: structured
     Deadline_expired, nothing executed, no serial fallback *)
  let n = 1000 in
  Obsv.Control.with_enabled true (fun () ->
      Ompsim.Stats.reset ();
      match
        unit_region ~deadline_ms:0 ~faults:None ~nthreads:2
          ~schedule:(Sched.Dynamic 32) ~n (fun ~thread:_ ~start:_ ~len:_ -> ())
      with
      | Ok () -> Alcotest.fail "expired deadline reported success"
      | Error { reason; unrecovered; _ } ->
        Alcotest.(check bool) "reason" true (reason = Par.Deadline_expired);
        Alcotest.(check bool) "uncovered work reported" true (unrecovered <> []);
        Alcotest.(check int) "region.cancelled" 1
          (Obsv.Metrics.total Ompsim.Stats.regions_cancelled);
        Alcotest.(check int) "no serial fallback after deadline" 0
          (Obsv.Metrics.total Ompsim.Stats.serial_fallbacks))

let test_invalid_args () =
  let f ~thread:_ ~start:_ ~len:_ = () in
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Par.reduce: negative retries") (fun () ->
      ignore (unit_region ~retries:(-1) ~nthreads:1 ~schedule:Sched.Static ~n:4 f));
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Par.reduce: negative deadline") (fun () ->
      ignore (unit_region ~deadline_ms:(-1) ~nthreads:1 ~schedule:Sched.Static ~n:4 f))

(* -------- backtrace preservation (satellite: Pool/Par re-raise) -------- *)

exception Kernel_bug

let test_backtrace_preserved ~nested () =
  (* a kernel exception crossing the pool join — or, in a nested
     region, the spawned domains' join — must keep its original
     backtrace (Printexc.raise_with_backtrace in Pool) *)
  (if nested then Test_ompsim.in_nested_region else fun f -> f ()) (fun () ->
      match
        Par.parallel_for_chunks ~nthreads:4 ~schedule:(Sched.Dynamic 8) ~n:200
          (fun ~thread:_ ~start ~len:_ ->
            if start >= 100 then begin
              (* enable recording on the raising domain itself *)
              Printexc.record_backtrace true;
              raise Kernel_bug
            end)
      with
      | () -> Alcotest.fail "kernel exception swallowed"
      | exception Kernel_bug ->
        Alcotest.(check bool) "backtrace survived the join" true
          (Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()) > 0)
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e))

(* -------- analytic fault model -------- *)

let test_sim_fault_model () =
  let feq msg want got = Alcotest.(check (float 1e-9)) msg want got in
  feq "no faults: one attempt" 1.0 (Sim.expected_attempts ~p:0.0 ~retries:5);
  feq "certain faults: retries+1 attempts" 3.0 (Sim.expected_attempts ~p:1.0 ~retries:2);
  feq "geometric sum" 1.75 (Sim.expected_attempts ~p:0.5 ~retries:2);
  feq "certain completion at p=0" 1.0 (Sim.completion_probability ~p:0.0 ~retries:0);
  feq "p=0.5 one retry" 0.75 (Sim.completion_probability ~p:0.5 ~retries:1);
  feq "p=1 never completes" 0.0 (Sim.completion_probability ~p:1.0 ~retries:7);
  let ov = { Sim.fork_join = 4.0; dispatch = 2.0; chunk_start = 1.0; per_iter = 0.5 } in
  let r = Sim.resilient_overheads ov ~p:0.5 ~retries:2 in
  feq "dispatch inflated" 3.5 r.Sim.dispatch;
  feq "chunk_start inflated" 1.75 r.Sim.chunk_start;
  feq "fork_join paid once" 4.0 r.Sim.fork_join;
  feq "per_iter paid once" 0.5 r.Sim.per_iter;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Sim.expected_attempts: p outside [0,1]") (fun () ->
      ignore (Sim.expected_attempts ~p:1.5 ~retries:0));
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Sim.completion_probability: negative retries") (fun () ->
      ignore (Sim.completion_probability ~p:0.5 ~retries:(-1)))

let suites =
  [ ( "fault",
      [ Alcotest.test_case "spec parses" `Quick test_spec_valid;
        Alcotest.test_case "spec rejects" `Quick test_spec_reject;
        Alcotest.test_case "decisions deterministic" `Quick test_decide_deterministic;
        Alcotest.test_case "global config" `Quick test_global_config;
        Alcotest.test_case "sim fault model" `Quick test_sim_fault_model ] );
    ( "resilient",
      [ Alcotest.test_case "exactly-once across schedules" `Quick test_resilient_all_schedules;
        Alcotest.test_case "poisoned chunk, dynamic" `Quick
          (test_poisoned_chunk (Sched.Dynamic 16));
        Alcotest.test_case "poisoned chunk, work-stealing" `Quick
          (test_poisoned_chunk (Sched.Work_stealing 8));
        Alcotest.test_case "hard poison recovered serially" `Quick
          test_hard_poison_serial_recovery;
        Alcotest.test_case "injection budget" `Quick test_injection_budget;
        Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
        Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        Alcotest.test_case "backtrace preserved (pool)" `Quick
          (test_backtrace_preserved ~nested:false);
        Alcotest.test_case "backtrace preserved (nested, spawned)" `Quick
          (test_backtrace_preserved ~nested:true) ] ) ]
