(* Observability layer tests: per-slot metrics, trace recording with
   Chrome trace_event export (golden + adversarial format checks),
   runtime toggling, and a pool soak that reconciles the obsv counters
   against ground truth across hundreds of randomized regions. *)

module M = Obsv.Metrics
module T = Obsv.Trace
module TC = Obsv.Trace_check

(* Run [f] with the layer on and clean counter/trace state, restoring
   a clean disabled state afterwards so obsv tests cannot leak into
   the rest of the suite. *)
let with_obsv f =
  Obsv.Control.with_enabled true (fun () ->
      T.clear ();
      Ompsim.Stats.reset ();
      Fun.protect
        ~finally:(fun () ->
          T.clear ();
          Ompsim.Stats.reset ())
        f)

let aff terms c =
  Polymath.Affine.make
    (List.map (fun (x, k) -> (x, Zmath.Rat.of_int k)) terms)
    (Zmath.Rat.of_int c)

let correlation_nest () =
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
      { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 } ]

(* -------- Metrics -------- *)

let test_metrics_basics () =
  let c = M.create "test.basics" in
  M.add c ~slot:0 5;
  M.incr c ~slot:3;
  M.incr c ~slot:3;
  (* slots reduce modulo max_slots: this lands on slot 3 again *)
  M.add c ~slot:(M.max_slots + 3) 2;
  Alcotest.(check int) "slot 0" 5 (M.get c ~slot:0);
  Alcotest.(check int) "slot 3 (wrapped)" 4 (M.get c ~slot:3);
  Alcotest.(check int) "total" 9 (M.total c);
  Alcotest.(check (list (pair int int))) "per_slot" [ (0, 5); (3, 4) ] (M.per_slot c);
  (match M.find "test.basics" with
  | Some c' -> Alcotest.(check string) "registered" "test.basics" (M.name c')
  | None -> Alcotest.fail "counter not registered");
  M.reset c;
  Alcotest.(check int) "reset" 0 (M.total c);
  Alcotest.(check (list (pair int int))) "per_slot after reset" [] (M.per_slot c)

let test_metrics_imbalance () =
  let c = M.create "test.imbalance" in
  Alcotest.(check (float 1e-9)) "empty" 1.0 (M.imbalance c);
  M.add c ~slot:0 10;
  Alcotest.(check (float 1e-9)) "single slot" 1.0 (M.imbalance c);
  M.add c ~slot:1 10;
  M.add c ~slot:2 10;
  M.add c ~slot:3 10;
  Alcotest.(check (float 1e-9)) "balanced" 1.0 (M.imbalance c);
  M.add c ~slot:3 20;
  (* slots 10,10,10,30: mean 15, max 30 *)
  Alcotest.(check (float 1e-9)) "imbalanced" 2.0 (M.imbalance c);
  M.reset c

let test_metrics_here () =
  let c = M.create "test.here" in
  M.incr_here c;
  M.add_here c 4;
  Alcotest.(check int) "total via domain slot" 5 (M.total c);
  Alcotest.(check int) "one active slot" 1 (List.length (M.per_slot c));
  M.reset c

let test_metrics_summary () =
  let c = M.create "test.summary" in
  M.add c ~slot:0 7;
  let s = M.summary () in
  let mem sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary names counter" true (mem "test.summary");
  M.reset c

(* -------- Trace recording -------- *)

let test_trace_disabled_noop () =
  Obsv.Control.with_enabled false (fun () ->
      T.clear ();
      T.with_span "nope" (fun () ->
          T.instant "still nope";
          T.counter "n" 1);
      Alcotest.(check int) "no events recorded" 0 (T.event_count ()))

(* the switch gates spans and clock reads, never the counter ledger *)
let test_counters_without_layer () =
  Obsv.Control.with_enabled false (fun () ->
      T.clear ();
      let inv = Trahrhe.Inversion.invert_exn (correlation_nest ()) in
      let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> 40) in
      let trip = Trahrhe.Recovery.trip_count rc in
      let chunk = 64 in
      let since = M.snapshot () in
      let counted name =
        match M.find name with Some c -> M.since since c | None -> Alcotest.failf "no %s" name
      in
      Ompsim.Par.parallel_for_chunks ~nthreads:2 ~schedule:(Ompsim.Schedule.Dynamic chunk) ~n:trip
        (fun ~thread:_ ~start ~len -> Trahrhe.Recovery.walk rc ~pc:(start + 1) ~len ignore);
      let chunks = (trip + chunk - 1) / chunk in
      Alcotest.(check int) "par.chunks" chunks (counted "par.chunks");
      Alcotest.(check int) "recovery.walks" chunks (counted "recovery.walks");
      Alcotest.(check int) "recovery.iterations = trip" trip (counted "recovery.iterations");
      Alcotest.(check int) "no trace events" 0 (T.event_count ());
      Alcotest.(check int) "no clock reads" 0 (counted "recovery.recover_ns"))

let test_trace_toggle () =
  with_obsv (fun () ->
      (* whether a span records is decided at entry: toggling inside
         cannot unbalance the trace *)
      T.with_span "outer" (fun () ->
          Obsv.Control.set_enabled false;
          T.instant "lost";
          Obsv.Control.set_enabled true);
      (match TC.validate_string (T.to_json ()) with
      | Ok s ->
        Alcotest.(check int) "one balanced span" 1 s.TC.spans;
        Alcotest.(check int) "instant was dropped" 2 s.TC.events
      | Error e -> Alcotest.failf "trace invalid: %s" e))

let test_trace_exception_safety () =
  with_obsv (fun () ->
      (try T.with_span "boom" (fun () -> failwith "expected") with Failure _ -> ());
      match TC.validate_string (T.to_json ()) with
      | Ok s -> Alcotest.(check int) "span closed on raise" 1 s.TC.spans
      | Error e -> Alcotest.failf "trace invalid after raise: %s" e)

let test_trace_escaping () =
  with_obsv (fun () ->
      T.with_span "quote\" back\\slash \ntab\t"
        ~args:[ ("s", T.Str "a\"b\\c\nd") ]
        (fun () -> ());
      match TC.validate_string (T.to_json ()) with
      | Ok s -> Alcotest.(check int) "escaped names parse" 1 s.TC.spans
      | Error e -> Alcotest.failf "escaping broke the JSON: %s" e)

let test_trace_nesting_depth () =
  with_obsv (fun () ->
      T.with_span "a" (fun () -> T.with_span "b" (fun () -> T.with_span "c" (fun () -> ())));
      match TC.validate_string (T.to_json ()) with
      | Ok s ->
        Alcotest.(check int) "three spans" 3 s.TC.spans;
        Alcotest.(check int) "nesting depth" 3 s.TC.max_depth
      | Error e -> Alcotest.failf "trace invalid: %s" e)

let test_span_totals () =
  with_obsv (fun () ->
      T.with_span "work" (fun () -> ());
      T.with_span "work" (fun () -> ());
      match List.find_opt (fun (n, _, _) -> n = "work") (T.span_totals ()) with
      | Some (_, count, total_ns) ->
        Alcotest.(check int) "span count" 2 count;
        Alcotest.(check bool) "non-negative time" true (total_ns >= 0)
      | None -> Alcotest.fail "span_totals missed the spans")

(* -------- Golden trace: a real instrumented parallel walk -------- *)

let test_trace_golden () =
  with_obsv (fun () ->
      let nest = correlation_nest () in
      let inv = Trahrhe.Inversion.invert_exn nest in
      let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> 40) in
      let trip = Trahrhe.Recovery.trip_count rc in
      let sum = Atomic.make 0 in
      Ompsim.Par.parallel_for_chunks ~nthreads:4 ~schedule:(Ompsim.Schedule.Dynamic 64) ~n:trip
        (fun ~thread:_ ~start ~len ->
          let acc = ref 0 in
          Trahrhe.Recovery.walk rc ~pc:(start + 1) ~len (fun idx ->
              acc := !acc + idx.(0) + idx.(1));
          ignore (Atomic.fetch_and_add sum !acc));
      Ompsim.Stats.emit_trace_counters ();
      (match TC.validate_string (T.to_json ()) with
      | Error e -> Alcotest.failf "golden trace invalid: %s" e
      | Ok s ->
        Alcotest.(check bool) "has events" true (s.TC.events > 0);
        Alcotest.(check bool) "has spans" true (s.TC.spans > 0);
        Alcotest.(check bool) "has counter samples" true (s.TC.counters > 0);
        Alcotest.(check bool) "has threads" true (s.TC.tids >= 1));
      let names = List.map (fun (n, _, _) -> n) (T.span_totals ()) in
      List.iter
        (fun n -> Alcotest.(check bool) n true (List.mem n names))
        [ "par.region"; "par.chunk"; "recovery.walk" ];
      (* the walk counters must reconcile exactly with the trip count *)
      (match M.find "recovery.iterations" with
      | Some c -> Alcotest.(check int) "recovery.iterations = trip" trip (M.total c)
      | None -> Alcotest.fail "recovery.iterations not registered");
      Alcotest.(check int) "par.iterations = trip" trip (M.total Ompsim.Stats.par_iterations);
      Alcotest.(check int) "no events dropped" 0 (T.dropped ()))

let test_pipeline_spans () =
  with_obsv (fun () ->
      ignore (Trahrhe.Inversion.invert_exn (correlation_nest ()));
      let names = List.map (fun (n, _, _) -> n) (T.span_totals ()) in
      List.iter
        (fun n -> Alcotest.(check bool) n true (List.mem n names))
        [ "pipeline.ranking"; "pipeline.inversion" ])

(* -------- One counter ledger across every chunk entry point -------- *)

module R = Trahrhe.Recovery

(* every public chunk entry, interpreted and native-attached alike,
   books one [recovery.walks] per chunk, the iterations it actually
   visited (clamped at the end of the space), and one [jit.hit] when
   the chunk ran in the specialized object *)
let test_walk_ledger () =
  let nest = correlation_nest () in
  let n = 30 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ompsim-test-ledger-%d" (Unix.getpid ()))
  in
  let recoveries label nest =
    let inv = Trahrhe.Inversion.invert_exn nest in
    let rc = R.make inv ~param:(fun _ -> n) in
    let native =
      if not (Jit.Abi.functional ()) then []
      else
        match Jit.Compile.specialize ~dir inv with
        | Error e -> Alcotest.failf "specialize %s: %s" label e
        | Ok h ->
          let ps = [| n |] in
          [ R.attach_native rc
              { R.n_walk_hash = (fun ~pc ~len -> Jit.Native.walk_hash h ps ~pc ~len);
                n_recover = (fun ~pc idx -> Jit.Native.recover h ps ~pc idx);
                n_reduce = (fun op ~pc ~len -> Jit.Native.reduce h ps op ~pc ~len) } ]
    in
    rc :: native
  in
  let plain = recoveries "plain" nest in
  let clause = recoveries "clause" (Trahrhe.Nest.with_default_reduce nest) in
  let total name = match M.find name with Some c -> M.total c | None -> 0 in
  (* [routed]: the entry point a native backend serves *)
  let entries =
    [ ("walk", plain, false, fun rc ~pc ~len -> R.walk rc ~pc ~len ignore);
      ("walk_hash", plain, true, fun rc ~pc ~len -> ignore (R.walk_hash rc ~pc ~len));
      ( "walk_lanes",
        plain,
        false,
        fun rc ~pc ~len -> R.walk_lanes rc ~pc ~len ~vlength:8 (fun ~base:_ ~count:_ _ -> ()) );
      ( "recover_block",
        plain,
        false,
        fun rc ~pc ~len -> ignore (R.recover_block rc ~pc (Array.init 2 (fun _ -> Array.make len 0)))
      );
      ( "walk_reduce_int",
        clause,
        true,
        fun rc ~pc ~len -> ignore (R.walk_reduce_int rc Trahrhe.Nest.Sum ~pc ~len) );
      ( "walk_reduce_int min",
        clause,
        true,
        fun rc ~pc ~len -> ignore (R.walk_reduce_int rc Trahrhe.Nest.Min ~pc ~len) );
      ( "walk_reduce_int max",
        clause,
        true,
        fun rc ~pc ~len -> ignore (R.walk_reduce_int rc Trahrhe.Nest.Max ~pc ~len) );
      ( "walk_reduce_rat",
        clause,
        false,
        fun rc ~pc ~len -> ignore (R.walk_reduce_rat rc Trahrhe.Nest.Min ~pc ~len) )
    ]
  in
  with_obsv (fun () ->
      List.iter
        (fun (name, rcs, routed, entry) ->
          List.iter
            (fun rc ->
              let native = routed && R.native_enabled rc in
              let trip = R.trip_count rc in
              (* an interior chunk, a one-iteration chunk, and one the
                 end of the space clamps *)
              List.iter
                (fun (pc, len) ->
                  let label what =
                    Printf.sprintf "%s%s pc=%d len=%d: %s" name
                      (if R.native_enabled rc then " (native attached)" else "")
                      pc len what
                  in
                  let walks = total "recovery.walks" and iters = total "recovery.iterations" in
                  let hits = total "jit.hit" in
                  entry rc ~pc ~len;
                  Alcotest.(check int) (label "recovery.walks") (walks + 1) (total "recovery.walks");
                  Alcotest.(check int) (label "recovery.iterations")
                    (iters + min len (trip - pc + 1))
                    (total "recovery.iterations");
                  Alcotest.(check int) (label "jit.hit")
                    (hits + if native then 1 else 0)
                    (total "jit.hit"))
                [ (trip / 3, 57); (trip / 2, 1); (trip - 9, 64) ])
            rcs)
        entries;
      let spans = List.filter (fun (n, _, _) -> n = "recovery.walk") (T.span_totals ()) in
      let chunks =
        List.fold_left (fun acc (_, rcs, _, _) -> acc + (3 * List.length rcs)) 0 entries
      in
      match spans with
      | [ (_, count, _) ] -> Alcotest.(check int) "one recovery.walk span per chunk" chunks count
      | _ -> Alcotest.fail "recovery.walk spans missing")

(* -------- Validator rejects malformed traces -------- *)

let doc evs = Printf.sprintf {|{"traceEvents":[%s]}|} (String.concat "," evs)

let accepts s =
  match TC.validate_string s with Ok _ -> true | Error _ -> false

let test_validator_negative () =
  let reject name s = Alcotest.(check bool) name false (accepts s) in
  let accept name s = Alcotest.(check bool) name true (accepts s) in
  reject "not JSON" "this is not json";
  reject "truncated" {|{"traceEvents":[|};
  reject "trailing garbage" ({|{"traceEvents":[]}|} ^ "xx");
  reject "no traceEvents key" {|{"otherEvents":[]}|};
  reject "traceEvents not an array" {|{"traceEvents":{}}|};
  accept "empty trace" {|{"traceEvents":[]}|};
  accept "balanced pair"
    (doc
       [ {|{"name":"a","ph":"B","pid":1,"tid":1,"ts":1.0}|};
         {|{"name":"a","ph":"E","pid":1,"tid":1,"ts":2.0}|} ]);
  reject "E without B" (doc [ {|{"name":"a","ph":"E","pid":1,"tid":1,"ts":1.0}|} ]);
  reject "B without E" (doc [ {|{"name":"a","ph":"B","pid":1,"tid":1,"ts":1.0}|} ]);
  reject "mismatched E name"
    (doc
       [ {|{"name":"a","ph":"B","pid":1,"tid":1,"ts":1.0}|};
         {|{"name":"b","ph":"E","pid":1,"tid":1,"ts":2.0}|} ]);
  reject "backwards timestamps"
    (doc
       [ {|{"name":"x","ph":"i","pid":1,"tid":1,"ts":10.0}|};
         {|{"name":"y","ph":"i","pid":1,"tid":1,"ts":5.0}|} ]);
  accept "backwards across threads is fine"
    (doc
       [ {|{"name":"x","ph":"i","pid":1,"tid":1,"ts":10.0}|};
         {|{"name":"y","ph":"i","pid":1,"tid":2,"ts":5.0}|} ]);
  reject "missing ts" (doc [ {|{"name":"x","ph":"i","pid":1,"tid":1}|} ]);
  accept "metadata needs no ts"
    (doc [ {|{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"w"}}|} ]);
  reject "missing name" (doc [ {|{"ph":"i","pid":1,"tid":1,"ts":1.0}|} ]);
  reject "missing tid" (doc [ {|{"name":"x","ph":"i","pid":1,"ts":1.0}|} ])

let test_json_parser () =
  let ok s = match TC.parse_json s with Ok v -> Some v | Error _ -> None in
  (match ok {| {"a": [1, -2.5e1, "xA\n", true, false, null]} |} with
  | Some
      (TC.Obj
        [ ("a", TC.Arr [ TC.Num 1.0; TC.Num (-25.0); TC.Str s; TC.Bool true; TC.Bool false; TC.Null ]) ])
    -> Alcotest.(check string) "string escapes" "xA\n" s
  | _ -> Alcotest.fail "parse shape mismatch");
  Alcotest.(check bool) "rejects bare comma" true (ok {|[1,]|} = None);
  Alcotest.(check bool) "rejects lone minus" true (ok {|-|} = None)

(* -------- Pool soak: counters reconcile over many regions -------- *)

let test_pool_soak () =
  with_obsv (fun () ->
      let rng = Random.State.make [| 0x50a7 |] in
      let schedules =
        [| Ompsim.Schedule.Static; Ompsim.Schedule.Static_chunk 7; Ompsim.Schedule.Dynamic 5;
           Ompsim.Schedule.Guided 3 |]
      in
      let regions = 300 in
      let total = ref 0 in
      let executed = Atomic.make 0 in
      for _ = 1 to regions do
        let n = 1 + Random.State.int rng 400 in
        let nthreads = 1 + Random.State.int rng 6 in
        let schedule = schedules.(Random.State.int rng (Array.length schedules)) in
        total := !total + n;
        Ompsim.Par.parallel_for_chunks ~nthreads ~schedule ~n (fun ~thread:_ ~start:_ ~len ->
            ignore (Atomic.fetch_and_add executed len))
      done;
      Alcotest.(check int) "ground truth" !total (Atomic.get executed);
      Alcotest.(check int) "obsv iterations reconcile" !total
        (M.total Ompsim.Stats.par_iterations);
      Alcotest.(check int) "every region counted" regions (M.total Ompsim.Stats.par_regions);
      Alcotest.(check bool) "at least one chunk per region" true
        (M.total Ompsim.Stats.par_chunks >= regions);
      Alcotest.(check int) "latch drained" 0 (Ompsim.Pool.pending ());
      Alcotest.(check int) "no leaked jobs" 0 (Ompsim.Pool.queued_jobs ());
      (* the trace built by the soak must itself be well-formed *)
      match TC.validate_string (T.to_json ()) with
      | Ok s -> Alcotest.(check bool) "soak trace has spans" true (s.TC.spans >= regions)
      | Error e -> Alcotest.failf "soak trace invalid: %s" e)

let suites =
  [ ( "obsv.metrics",
      [ Alcotest.test_case "slots, totals, registry" `Quick test_metrics_basics;
        Alcotest.test_case "imbalance" `Quick test_metrics_imbalance;
        Alcotest.test_case "domain-keyed slots" `Quick test_metrics_here;
        Alcotest.test_case "summary" `Quick test_metrics_summary ] );
    ( "obsv.trace",
      [ Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled_noop;
        Alcotest.test_case "counters count with the layer off, spans do not" `Quick
          test_counters_without_layer;
        Alcotest.test_case "mid-span toggle stays balanced" `Quick test_trace_toggle;
        Alcotest.test_case "span closes on exception" `Quick test_trace_exception_safety;
        Alcotest.test_case "JSON string escaping" `Quick test_trace_escaping;
        Alcotest.test_case "span nesting depth" `Quick test_trace_nesting_depth;
        Alcotest.test_case "span totals" `Quick test_span_totals;
        Alcotest.test_case "golden trace from a parallel walk" `Quick test_trace_golden;
        Alcotest.test_case "one walk ledger across payloads" `Quick test_walk_ledger;
        Alcotest.test_case "pipeline stage spans" `Quick test_pipeline_spans ] );
    ( "obsv.trace_check",
      [ Alcotest.test_case "malformed traces rejected" `Quick test_validator_negative;
        Alcotest.test_case "JSON reader" `Quick test_json_parser ] );
    ( "obsv.soak",
      [ Alcotest.test_case "300 regions reconcile" `Slow test_pool_soak ] ) ]
