(* Tests for the OpenMP substrate: schedule assignment, the makespan
   simulator, and the domain-based parallel executor. *)

module Sched = Ompsim.Schedule
module Sim = Ompsim.Sim

(* -------- schedules -------- *)

let test_static_blocks () =
  Alcotest.(check (array (pair int int)))
    "10 over 3"
    [| (0, 4); (4, 3); (7, 3) |]
    (Sched.static_blocks ~nthreads:3 ~n:10);
  Alcotest.(check (array (pair int int)))
    "fewer iterations than threads"
    [| (0, 1); (1, 1); (2, 0) |]
    (Sched.static_blocks ~nthreads:3 ~n:2);
  Alcotest.(check (array (pair int int))) "empty" [| (0, 0); (0, 0) |]
    (Sched.static_blocks ~nthreads:2 ~n:0)

let test_round_robin () =
  let lists = Sched.round_robin_chunks ~chunk:3 ~nthreads:2 ~n:10 in
  Alcotest.(check (list (pair int int))) "thread 0" [ (0, 3); (6, 3) ] lists.(0);
  Alcotest.(check (list (pair int int))) "thread 1" [ (3, 3); (9, 1) ] lists.(1)

let test_round_robin_edges () =
  let empty = Sched.round_robin_chunks ~chunk:4 ~nthreads:3 ~n:0 in
  Array.iteri
    (fun t l -> Alcotest.(check (list (pair int int))) (Printf.sprintf "n=0 thread %d" t) [] l)
    empty;
  (* a chunk larger than the range: one truncated chunk on thread 0 *)
  let one = Sched.round_robin_chunks ~chunk:100 ~nthreads:3 ~n:5 in
  Alcotest.(check (list (pair int int))) "oversized chunk" [ (0, 5) ] one.(0);
  Alcotest.(check (list (pair int int))) "thread 1 idle" [] one.(1);
  Alcotest.(check (list (pair int int))) "thread 2 idle" [] one.(2);
  Alcotest.check_raises "chunk 0 rejected" (Invalid_argument "Schedule.round_robin_chunks")
    (fun () -> ignore (Sched.round_robin_chunks ~chunk:0 ~nthreads:2 ~n:10))

let test_guided_sizes () =
  (* guided halves remaining over 2T, floored at chunk *)
  Alcotest.(check int) "large remaining" 25 (Sched.next_guided ~chunk:4 ~nthreads:2 ~remaining:100);
  Alcotest.(check int) "floor at chunk" 4 (Sched.next_guided ~chunk:4 ~nthreads:2 ~remaining:10);
  Alcotest.(check int) "tail below chunk" 2 (Sched.next_guided ~chunk:4 ~nthreads:2 ~remaining:2)

let test_schedule_strings () =
  Alcotest.(check string) "static" "static" (Sched.to_string Sched.Static);
  Alcotest.(check string) "static chunk" "static, 8" (Sched.to_string (Sched.Static_chunk 8));
  Alcotest.(check string) "dynamic" "dynamic" (Sched.to_string (Sched.Dynamic 1));
  Alcotest.(check string) "guided n" "guided, 4" (Sched.to_string (Sched.Guided 4));
  Alcotest.(check string) "ws" "ws" (Sched.to_string (Sched.Work_stealing 1));
  Alcotest.(check string) "ws n" "ws, 4" (Sched.to_string (Sched.Work_stealing 4))

let sched_testable =
  Alcotest.testable (fun fmt s -> Format.pp_print_string fmt (Sched.to_string s)) ( = )

let test_schedule_of_string () =
  (* the clause text [to_string] prints parses back to the same value *)
  List.iter
    (fun s ->
      Alcotest.(check (result sched_testable string))
        (Sched.to_string s ^ " round-trips")
        (Ok s)
        (Sched.of_string (Sched.to_string s)))
    [ Sched.Static; Sched.Static_chunk 8; Sched.Dynamic 1; Sched.Dynamic 13; Sched.Guided 4;
      Sched.Work_stealing 1; Sched.Work_stealing 6 ];
  (* the CLI's colon spellings and chunk defaults *)
  List.iter
    (fun (s, want) ->
      Alcotest.(check (result sched_testable string)) s (Ok want) (Sched.of_string s))
    [ ("static:16", Sched.Static_chunk 16); ("dynamic:4", Sched.Dynamic 4);
      ("guided:2", Sched.Guided 2); ("ws:8", Sched.Work_stealing 8);
      ("dynamic", Sched.Dynamic 1); ("ws", Sched.Work_stealing 1);
      ("work-stealing", Sched.Work_stealing 1); ("work_stealing:3", Sched.Work_stealing 3);
      ("WS:2", Sched.Work_stealing 2); (" guided , 7 ", Sched.Guided 7) ];
  List.iter
    (fun s ->
      match Sched.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "bogus"; "dynamic:0"; "ws:-3"; "static:x"; "guided:";
      (* hardened grammar: strict decimal chunks, no junk tolerated *)
      "dynamic:0x10"; "static:1_000"; "guided:+4"; "ws: 4 8"; "dynamic:4:x";
      "dynamic:4x"; "static:-1"; "ws:"; "dynamic:99999999999999999999"; "dynamic,";
      "static:16,"; ""; "  "; "dynamic:1.5" ]

(* -------- Chase-Lev deque -------- *)

module Dq = Ompsim.Deque

let test_deque_orders () =
  (* owner end is LIFO, thief end is FIFO *)
  let d = Dq.create ~capacity:8 ~dummy:0 in
  List.iter (Dq.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "size" 4 (Dq.size d);
  Alcotest.(check (option int)) "pop newest" (Some 4) (Dq.pop d);
  Alcotest.(check (option int)) "pop next" (Some 3) (Dq.pop d);
  (match Dq.steal d with
  | Dq.Stolen x -> Alcotest.(check int) "steal oldest" 1 x
  | _ -> Alcotest.fail "steal should succeed");
  Alcotest.(check (option int)) "last element" (Some 2) (Dq.pop d);
  Alcotest.(check (option int)) "empty pop" None (Dq.pop d);
  (match Dq.steal d with
  | Dq.Empty -> ()
  | _ -> Alcotest.fail "steal on empty must report Empty");
  (* emptied deque is reusable by its owner *)
  Dq.push d 9;
  Alcotest.(check (option int)) "reuse after drain" (Some 9) (Dq.pop d)

let test_deque_of_init () =
  let d = Dq.of_init ~dummy:0 5 (fun i -> 10 * i) in
  Alcotest.(check int) "size" 5 (Dq.size d);
  Alcotest.(check (option int)) "pop gets f 0" (Some 0) (Dq.pop d);
  (match Dq.steal d with
  | Dq.Stolen x -> Alcotest.(check int) "steal gets f (n-1)" 40 x
  | _ -> Alcotest.fail "steal should succeed");
  Alcotest.(check (option int)) "pop continues ascending" (Some 10) (Dq.pop d);
  let empty = Dq.of_init ~dummy:0 0 (fun _ -> assert false) in
  Alcotest.(check (option int)) "empty of_init" None (Dq.pop empty)

let test_deque_pop_batch () =
  let d = Dq.of_init ~dummy:0 10 Fun.id in
  let buf = Array.make 4 (-1) in
  Alcotest.(check int) "first batch count" 4 (Dq.pop_batch d buf);
  Alcotest.(check (array int)) "first batch order" [| 0; 1; 2; 3 |] buf;
  Alcotest.(check int) "second batch" 4 (Dq.pop_batch d buf);
  Alcotest.(check (array int)) "second batch order" [| 4; 5; 6; 7 |] buf;
  (* the final element is contestable by thieves, so the tail falls
     back to the one-element pop protocol: one element per call *)
  Alcotest.(check int) "tail call 1" 1 (Dq.pop_batch d buf);
  Alcotest.(check int) "tail element 0" 8 buf.(0);
  Alcotest.(check int) "tail call 2" 1 (Dq.pop_batch d buf);
  Alcotest.(check int) "tail element 1" 9 buf.(0);
  Alcotest.(check int) "drained" 0 (Dq.pop_batch d buf);
  Alcotest.(check int) "empty buf is a no-op" 0 (Dq.pop_batch (Dq.of_init ~dummy:0 3 Fun.id) [||])

let test_deque_capacity_refill () =
  let d = Dq.create ~capacity:5 ~dummy:0 in
  Alcotest.(check int) "rounded to power of two" 8 (Dq.capacity d);
  Alcotest.check_raises "negative capacity" (Invalid_argument "Deque.create") (fun () ->
      ignore (Dq.create ~capacity:(-1) ~dummy:0));
  for i = 1 to 8 do
    Dq.push d i
  done;
  Alcotest.check_raises "push over capacity" (Failure "Deque.push: full") (fun () ->
      Dq.push d 9);
  while Dq.pop d <> None do
    ()
  done;
  (* quiescent refill continues the index window; contents come out in
     pop order f 0, f 1, ... like of_init *)
  Dq.refill d 6 (fun i -> 100 + i);
  Alcotest.(check int) "refilled size" 6 (Dq.size d);
  Alcotest.(check (option int)) "refill pop order" (Some 100) (Dq.pop d);
  (match Dq.steal d with
  | Dq.Stolen x -> Alcotest.(check int) "refill steal order" 105 x
  | _ -> Alcotest.fail "steal should succeed");
  Alcotest.check_raises "refill past capacity" (Invalid_argument "Deque.refill") (fun () ->
      Dq.refill d 9 Fun.id)

let test_deque_owner_vs_thieves () =
  (* one owner draining by batches, two thieves stealing: every element
     claimed exactly once, none lost — including the one-element races *)
  let n = 20_000 in
  let d = Dq.of_init ~dummy:(-1) n Fun.id in
  let hits = Array.make n 0 in
  let thief () =
    Domain.spawn (fun () ->
        let live = ref true in
        let got = ref 0 in
        while !live do
          match Dq.steal d with
          | Dq.Stolen x ->
            hits.(x) <- hits.(x) + 1;
            incr got
          | Dq.Retry -> Domain.cpu_relax ()
          | Dq.Empty -> live := false
        done;
        !got)
  in
  let t1 = thief () and t2 = thief () in
  let buf = Array.make 7 (-1) in
  let popped = ref 0 in
  let rec drain () =
    let k = Dq.pop_batch d buf in
    if k > 0 then begin
      for i = 0 to k - 1 do
        hits.(buf.(i)) <- hits.(buf.(i)) + 1
      done;
      popped := !popped + k;
      drain ()
    end
  in
  drain ();
  let stolen = Domain.join t1 + Domain.join t2 in
  Alcotest.(check int) "pops + steals = n" n (!popped + stolen);
  Alcotest.(check bool) "each element exactly once" true (Array.for_all (fun h -> h = 1) hits)

(* -------- simulator -------- *)

let uniform n c = Array.make n c

let test_static_balanced () =
  let r =
    Sim.run ~costs:(uniform 120 1.0) ~schedule:Sched.Static ~nthreads:12
      ~overheads:Sim.no_overheads
  in
  Alcotest.(check (float 1e-9)) "perfect balance" 10.0 r.Sim.makespan;
  Alcotest.(check (float 1e-9)) "imbalance 1" 1.0 r.Sim.imbalance;
  Alcotest.(check (float 1e-9)) "total work" 120.0 r.Sim.total_work

let test_static_triangular_imbalance () =
  (* costs 1..n ascending: the last static block dominates *)
  let n = 120 in
  let costs = Array.init n (fun q -> float_of_int (q + 1)) in
  let r = Sim.run ~costs ~schedule:Sched.Static ~nthreads:12 ~overheads:Sim.no_overheads in
  (* last thread holds rows 111..120: sum = 1155; mean = 605 *)
  Alcotest.(check (float 1e-9)) "makespan is heaviest block" 1155.0 r.Sim.makespan;
  Alcotest.(check bool) "imbalance ~1.9" true (r.Sim.imbalance > 1.8 && r.Sim.imbalance < 2.0)

let test_static_chunk_balances_triangle () =
  let n = 120 in
  let costs = Array.init n (fun q -> float_of_int (q + 1)) in
  let r =
    Sim.run ~costs ~schedule:(Sched.Static_chunk 1) ~nthreads:12 ~overheads:Sim.no_overheads
  in
  (* cyclic distribution of an arithmetic ramp: thread sums differ by at
     most n_chunks_per_thread, far better than contiguous static *)
  Alcotest.(check bool) "imbalance < 1.15" true (r.Sim.imbalance < 1.15);
  let static =
    Sim.run ~costs ~schedule:Sched.Static ~nthreads:12 ~overheads:Sim.no_overheads
  in
  Alcotest.(check bool) "beats static" true (r.Sim.makespan < static.Sim.makespan)

let test_dynamic_balances () =
  let n = 120 in
  let costs = Array.init n (fun q -> float_of_int (q + 1)) in
  let r = Sim.run ~costs ~schedule:(Sched.Dynamic 1) ~nthreads:12 ~overheads:Sim.no_overheads in
  Alcotest.(check bool) "near balance" true (r.Sim.imbalance < 1.1);
  Alcotest.(check int) "n dispatches" n r.Sim.chunks_dispatched

let test_dynamic_dispatch_contention () =
  (* tiny chunks + large dispatch cost: the serialized queue becomes
     the bottleneck (paper §II: dynamic is not scalable) *)
  let costs = uniform 1000 1.0 in
  let ov = { Sim.no_overheads with dispatch = 10.0 } in
  let r = Sim.run ~costs ~schedule:(Sched.Dynamic 1) ~nthreads:12 ~overheads:ov in
  (* the lock alone takes 1000 * 10 time units *)
  Alcotest.(check bool) "lock-bound" true (r.Sim.makespan >= 10_000.0)

let test_ws_balances () =
  let n = 120 in
  let costs = Array.init n (fun q -> float_of_int (q + 1)) in
  let r =
    Sim.run ~costs ~schedule:(Sched.Work_stealing 1) ~nthreads:12 ~overheads:Sim.no_overheads
  in
  Alcotest.(check bool) "near balance" true (r.Sim.imbalance < 1.1);
  Alcotest.(check int) "n dispatches" n r.Sim.chunks_dispatched

let test_ws_no_dispatch_serialization () =
  (* same workload as the dynamic contention test: a steal still costs
     [dispatch] on the acquiring thread, but acquisitions are not
     serialized through a lock, so the makespan stays near
     (per-chunk cost + dispatch) * chunks / T instead of
     dispatch * chunks *)
  let costs = uniform 1000 1.0 in
  let ov = { Sim.no_overheads with dispatch = 10.0 } in
  let dyn = Sim.run ~costs ~schedule:(Sched.Dynamic 1) ~nthreads:12 ~overheads:ov in
  let ws = Sim.run ~costs ~schedule:(Sched.Work_stealing 1) ~nthreads:12 ~overheads:ov in
  Alcotest.(check bool) "ws well under the lock-bound makespan" true
    (ws.Sim.makespan < dyn.Sim.makespan /. 2.0);
  Alcotest.(check bool) "ws near the parallel bound" true
    (ws.Sim.makespan < 11.0 *. 1000.0 /. 12.0 *. 1.5)

let test_makespan_lower_bound () =
  let costs = Array.init 50 (fun q -> float_of_int ((q * 7 mod 13) + 1)) in
  let total = Array.fold_left ( +. ) 0.0 costs in
  List.iter
    (fun schedule ->
      let r = Sim.run ~costs ~schedule ~nthreads:4 ~overheads:Sim.no_overheads in
      Alcotest.(check bool) "makespan >= total/T" true
        (r.Sim.makespan >= (total /. 4.0) -. 1e-9);
      Alcotest.(check bool) "makespan <= total" true (r.Sim.makespan <= total +. 1e-9))
    [ Sched.Static; Sched.Static_chunk 3; Sched.Dynamic 2; Sched.Guided 2;
      Sched.Work_stealing 2 ]

let test_chunk_start_overhead () =
  (* 12 threads, static: exactly one chunk-start (recovery) per thread *)
  let costs = uniform 24 1.0 in
  let ov = { Sim.no_overheads with chunk_start = 100.0 } in
  let r = Sim.run ~costs ~schedule:Sched.Static ~nthreads:12 ~overheads:ov in
  Alcotest.(check (float 1e-9)) "2 iters + 1 recovery" 102.0 r.Sim.makespan

let test_per_iter_overhead () =
  let costs = uniform 10 1.0 in
  let ov = { Sim.no_overheads with per_iter = 0.5 } in
  Alcotest.(check (float 1e-9)) "serial with per-iter" 15.0 (Sim.serial ~costs ~overheads:ov)

let test_fork_join () =
  let r =
    Sim.run ~costs:(uniform 10 1.0) ~schedule:Sched.Static ~nthreads:10
      ~overheads:{ Sim.no_overheads with fork_join = 7.0 }
  in
  Alcotest.(check (float 1e-9)) "fork_join added" 8.0 r.Sim.makespan

let test_empty_loop () =
  let r =
    Sim.run ~costs:[||] ~schedule:(Sched.Dynamic 1) ~nthreads:4 ~overheads:Sim.no_overheads
  in
  Alcotest.(check (float 1e-9)) "empty" 0.0 r.Sim.makespan;
  Alcotest.(check int) "no dispatch" 0 r.Sim.chunks_dispatched

let test_chunk_larger_than_n () =
  (* one oversized chunk: a single thread gets everything *)
  let costs = uniform 5 2.0 in
  let r =
    Sim.run ~costs ~schedule:(Sched.Static_chunk 100) ~nthreads:4 ~overheads:Sim.no_overheads
  in
  Alcotest.(check (float 1e-9)) "single chunk" 10.0 r.Sim.makespan;
  Alcotest.(check int) "one dispatch" 1 r.Sim.chunks_dispatched;
  let d = Sim.run ~costs ~schedule:(Sched.Dynamic 100) ~nthreads:4 ~overheads:Sim.no_overheads in
  Alcotest.(check (float 1e-9)) "dynamic single chunk" 10.0 d.Sim.makespan

let test_more_threads_than_work () =
  let costs = uniform 3 1.0 in
  List.iter
    (fun schedule ->
      let r = Sim.run ~costs ~schedule ~nthreads:8 ~overheads:Sim.no_overheads in
      Alcotest.(check (float 1e-9))
        (Ompsim.Schedule.to_string schedule ^ ": one iteration each")
        1.0 r.Sim.makespan)
    [ Sched.Static; Sched.Static_chunk 1; Sched.Dynamic 1; Sched.Work_stealing 1 ]

let test_gain () =
  Alcotest.(check (float 1e-9)) "50%" 0.5 (Sim.gain ~baseline:2.0 ~improved:1.0);
  Alcotest.(check (float 1e-9)) "negative" (-1.0) (Sim.gain ~baseline:1.0 ~improved:2.0)

let prop_static_equals_manual =
  QCheck.Test.make ~name:"static makespan = max block sum" ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 60) (QCheck.float_range 0.0 10.0))
       (QCheck.int_range 1 8))
    (fun (costs, t) ->
      let costs = Array.of_list costs in
      let r = Sim.run ~costs ~schedule:Sched.Static ~nthreads:t ~overheads:Sim.no_overheads in
      let blocks = Sched.static_blocks ~nthreads:t ~n:(Array.length costs) in
      let manual =
        Array.fold_left
          (fun acc (start, len) ->
            let s = ref 0.0 in
            for q = start to start + len - 1 do
              s := !s +. costs.(q)
            done;
            Float.max acc !s)
          0.0 blocks
      in
      Float.abs (r.Sim.makespan -. manual) < 1e-9)

let prop_all_work_executed =
  QCheck.Test.make ~name:"every schedule executes all the work" ~count:100
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 80) (QCheck.float_range 0.1 5.0))
       (QCheck.int_range 1 6))
    (fun (costs, t) ->
      let costs = Array.of_list costs in
      let total = Array.fold_left ( +. ) 0.0 costs in
      List.for_all
        (fun schedule ->
          let r = Sim.run ~costs ~schedule ~nthreads:t ~overheads:Sim.no_overheads in
          Float.abs (r.Sim.total_work -. total) < 1e-6)
        [ Sched.Static; Sched.Static_chunk 2; Sched.Dynamic 3; Sched.Guided 1;
          Sched.Work_stealing 2 ])

(* -------- Par (real domains) -------- *)

let test_par_covers_exactly_once () =
  List.iter
    (fun schedule ->
      let n = 1000 in
      let hits = Array.make n 0 in
      (* single mutator per cell: each index is touched exactly once *)
      Ompsim.Par.parallel_for ~nthreads:4 ~schedule ~n (fun q -> hits.(q) <- hits.(q) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s covers exactly once" (Sched.to_string schedule))
        true
        (Array.for_all (fun h -> h = 1) hits))
    [ Sched.Static; Sched.Static_chunk 7; Sched.Dynamic 13; Sched.Guided 5;
      Sched.Work_stealing 11 ]

let test_par_chunks_partition () =
  let n = 500 in
  let seen = Array.make n false in
  Ompsim.Par.parallel_for_chunks ~nthreads:3 ~schedule:(Sched.Static_chunk 64) ~n
    (fun ~thread:_ ~start ~len ->
      for q = start to start + len - 1 do
        seen.(q) <- true
      done);
  Alcotest.(check bool) "partition covers range" true (Array.for_all Fun.id seen)

let test_par_single_thread () =
  let n = 100 in
  let sum = ref 0 in
  Ompsim.Par.parallel_for ~nthreads:1 ~schedule:Sched.Static ~n (fun q -> sum := !sum + q);
  Alcotest.(check int) "sequential sum" (n * (n - 1) / 2) !sum

(* -------- Par on the persistent pool -------- *)

(* [in_nested_region f] runs [f ()] on slot 0 of a live pool region.
   The pool is busy, so every region [f] opens falls back to
   [Pool.run_spawned], the path Par takes for nested regions; the
   helper fails unless that fallback fired. *)
let in_nested_region f =
  let fallbacks () = Obsv.Metrics.total Ompsim.Stats.pool_fallbacks in
  let before = fallbacks () in
  let result = ref None in
  Ompsim.Pool.run ~nthreads:2 (fun t -> if t = 0 then result := Some (f ()));
  if fallbacks () = before then Alcotest.fail "the inner region did not run on spawned domains";
  Option.get !result

(* [unit_region] runs a raw chunk loop as one [Par.reduce] region with
   unit partials and keeps its structured result, where
   [Par.parallel_for_chunks] would re-raise the first failure *)
let unit_region ?retries ?deadline_ms ?faults ~nthreads ~schedule ~n f =
  Result.map ignore
    (Ompsim.Par.reduce ?retries ?deadline_ms ?faults ~nthreads ~schedule ~n
       ~combine:(fun () () -> ())
       f)

let test_reduce_chunk_order () =
  (* a non-commutative combine (list append) must see the partials in
     chunk order: the workers' cells are merged by start on every
     schedule, thieves and serial-fallback ranges included *)
  let n = 1000 in
  let faults = Some { Ompsim.Fault.default with p = 0.3; seed = 3 } in
  List.iter
    (fun schedule ->
      List.iter
        (fun (nthreads, faults) ->
          match
            Ompsim.Par.reduce ~faults ~nthreads ~schedule ~n ~combine:( @ )
              (fun ~thread:_ ~start ~len -> List.init len (fun i -> start + i))
          with
          | Ok (Some got) ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s, %d threads%s" (Sched.to_string schedule) nthreads
                 (if faults = None then "" else ", faults"))
              (List.init n Fun.id) got
          | Ok None -> Alcotest.fail "no partials"
          | Error e -> Alcotest.fail (Ompsim.Par.describe_error e))
        [ (1, None); (3, None); (4, None); (4, faults) ])
    [ Sched.Static; Sched.Static_chunk 7; Sched.Dynamic 5; Sched.Guided 3;
      Sched.Work_stealing 4; Sched.Dnc 6 ]

let test_par_coverage_adversarial () =
  (* every schedule must execute each index exactly once, including
     empty loops, single iterations and more threads than work *)
  List.iter
    (fun (n, nthreads) ->
      List.iter
        (fun schedule ->
          let hits = Array.make (max 1 n) 0 in
          Ompsim.Par.parallel_for ~nthreads ~schedule ~n (fun q -> hits.(q) <- hits.(q) + 1);
          let ok = ref true in
          for q = 0 to n - 1 do
            if hits.(q) <> 1 then ok := false
          done;
          Alcotest.(check bool)
            (Printf.sprintf "n=%d t=%d %s: exactly once" n nthreads (Sched.to_string schedule))
            true !ok)
        [ Sched.Static;
          Sched.Static_chunk 1;
          Sched.Static_chunk 7;
          Sched.Dynamic 1;
          Sched.Dynamic 13;
          Sched.Guided 1;
          Sched.Guided 5;
          Sched.Work_stealing 1;
          Sched.Work_stealing 7 ])
    [ (0, 4); (1, 4); (3, 8); (5, 2); (97, 3); (1000, 5) ]

let test_par_chunks_disjoint () =
  (* chunks handed out by dynamic/guided must partition 0..n-1 *)
  List.iter
    (fun schedule ->
      let n = 613 in
      let hits = Array.make n 0 in
      Ompsim.Par.parallel_for_chunks ~nthreads:5 ~schedule ~n (fun ~thread:_ ~start ~len ->
          for q = start to start + len - 1 do
            hits.(q) <- hits.(q) + 1
          done);
      Alcotest.(check bool)
        (Printf.sprintf "%s: chunk partition" (Sched.to_string schedule))
        true
        (Array.for_all (fun h -> h = 1) hits))
    [ Sched.Dynamic 17; Sched.Guided 3; Sched.Static_chunk 11; Sched.Work_stealing 9 ]

let test_schedules_match_direct () =
  (* a pure per-index computation run through every schedule gives
     exactly the directly computed array *)
  let n = 2000 in
  let f q = q * q mod 7919 in
  let direct = Array.init n f in
  List.iter
    (fun schedule ->
      let a = Array.make n 0 in
      Ompsim.Par.parallel_for_chunks ~nthreads:4 ~schedule ~n (fun ~thread:_ ~start ~len ->
          for q = start to start + len - 1 do
            a.(q) <- f q
          done);
      Alcotest.(check (array int)) (Sched.to_string schedule ^ ": = direct") direct a)
    [ Sched.Static; Sched.Static_chunk 64; Sched.Dynamic 32; Sched.Guided 16;
      Sched.Work_stealing 32 ]

let test_pool_reuse_and_growth () =
  (* repeated dispatches with varying widths: workers are reused and
     the pool grows monotonically on demand *)
  for round = 1 to 40 do
    let nthreads = 1 + (round mod 8) in
    let n = 100 + round in
    let sum = Atomic.make 0 in
    Ompsim.Par.parallel_for ~nthreads ~schedule:(Sched.Dynamic 9) ~n (fun q ->
        ignore (Atomic.fetch_and_add sum q));
    Alcotest.(check int) (Printf.sprintf "round %d sum" round) (n * (n - 1) / 2) (Atomic.get sum)
  done;
  Alcotest.(check bool) "pool kept at most 7 workers alive" true (Ompsim.Pool.size () <= 7)

let test_pool_exception_propagates () =
  Alcotest.check_raises "body failure reaches the caller" (Failure "boom") (fun () ->
      Ompsim.Par.parallel_for ~nthreads:4 ~schedule:(Sched.Dynamic 1) ~n:16 (fun q ->
          if q = 7 then failwith "boom"));
  (* the pool survives a failed region *)
  let hits = Array.make 16 0 in
  Ompsim.Par.parallel_for ~nthreads:4 ~schedule:Sched.Static ~n:16 (fun q ->
      hits.(q) <- hits.(q) + 1);
  Alcotest.(check bool) "usable after failure" true (Array.for_all (fun h -> h = 1) hits)

let test_pool_failed_growth () =
  (* a region wider than the runtime's domain limit cannot grow the
     pool: the spawn failure reaches the caller, the partial growth is
     joined, and the next region runs on the pool as it was *)
  let before = Ompsim.Pool.size () in
  (match Ompsim.Pool.run ~nthreads:1000 (fun _ -> ()) with
  | () -> Alcotest.fail "1000 domains exceed the runtime's domain limit"
  | exception Failure _ -> ());
  Alcotest.(check int) "pool size unchanged" before (Ompsim.Pool.size ());
  let hits = Array.make 2 0 in
  Ompsim.Pool.run ~nthreads:2 (fun t -> hits.(t) <- hits.(t) + 1);
  Alcotest.(check (array int)) "next region runs" [| 1; 1 |] hits

let test_ws_counter_soak () =
  (* many work-stealing regions of varying shape with observability on:
     every dealt chunk is popped locally or stolen, exactly once — the
     pop/steal totals reconcile with the arithmetic chunk count and
     with the executor's own per-chunk counter *)
  Obsv.Control.with_enabled true (fun () ->
      Ompsim.Stats.reset ();
      let truth = ref 0 in
      for round = 1 to 60 do
        let nthreads = 1 + (round mod 5) in
        let chunk = 1 + (round mod 7) in
        let n = 37 * round mod 1900 in
        truth := !truth + ((n + chunk - 1) / chunk);
        let sum = Atomic.make 0 in
        Ompsim.Par.parallel_for ~nthreads ~schedule:(Sched.Work_stealing chunk) ~n (fun q ->
            ignore (Atomic.fetch_and_add sum q));
        Alcotest.(check int)
          (Printf.sprintf "round %d sum" round)
          (n * (n - 1) / 2)
          (Atomic.get sum)
      done;
      let pops = Obsv.Metrics.total Ompsim.Stats.ws_local_pops in
      let steals = Obsv.Metrics.total Ompsim.Stats.ws_steals in
      let chunks = Obsv.Metrics.total Ompsim.Stats.par_chunks in
      Alcotest.(check int) "pops + steals = ground truth" !truth (pops + steals);
      Alcotest.(check int) "executor chunk counter agrees" !truth chunks;
      Ompsim.Stats.reset ());
  Obsv.Trace.clear ()

let test_pool_nested_region () =
  (* a parallel region opened from inside a pool worker must not
     deadlock: the inner dispatch falls back to spawned domains *)
  let total = Atomic.make 0 in
  Ompsim.Par.parallel_for ~nthreads:2 ~schedule:Sched.Static ~n:2 (fun _ ->
      Ompsim.Par.parallel_for ~nthreads:2 ~schedule:Sched.Static ~n:8 (fun _ ->
          ignore (Atomic.fetch_and_add total 1)));
  Alcotest.(check int) "all inner iterations ran" 16 (Atomic.get total)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [ ( "ompsim.schedule",
      [ Alcotest.test_case "static blocks" `Quick test_static_blocks;
        Alcotest.test_case "round robin" `Quick test_round_robin;
        Alcotest.test_case "round robin edges" `Quick test_round_robin_edges;
        Alcotest.test_case "guided sizes" `Quick test_guided_sizes;
        Alcotest.test_case "clause strings" `Quick test_schedule_strings;
        Alcotest.test_case "of_string round-trip" `Quick test_schedule_of_string ] );
    ( "ompsim.deque",
      [ Alcotest.test_case "owner LIFO, thief FIFO" `Quick test_deque_orders;
        Alcotest.test_case "of_init orders" `Quick test_deque_of_init;
        Alcotest.test_case "pop_batch" `Quick test_deque_pop_batch;
        Alcotest.test_case "capacity and refill" `Quick test_deque_capacity_refill;
        Alcotest.test_case "owner vs thieves" `Quick test_deque_owner_vs_thieves ] );
    ( "ompsim.sim",
      [ Alcotest.test_case "static balanced" `Quick test_static_balanced;
        Alcotest.test_case "static triangular imbalance" `Quick test_static_triangular_imbalance;
        Alcotest.test_case "cyclic chunks balance a ramp" `Quick test_static_chunk_balances_triangle;
        Alcotest.test_case "dynamic balances" `Quick test_dynamic_balances;
        Alcotest.test_case "dispatch contention" `Quick test_dynamic_dispatch_contention;
        Alcotest.test_case "work stealing balances" `Quick test_ws_balances;
        Alcotest.test_case "work stealing avoids the lock bound" `Quick
          test_ws_no_dispatch_serialization;
        Alcotest.test_case "makespan bounds" `Quick test_makespan_lower_bound;
        Alcotest.test_case "chunk-start overhead" `Quick test_chunk_start_overhead;
        Alcotest.test_case "per-iteration overhead" `Quick test_per_iter_overhead;
        Alcotest.test_case "fork/join" `Quick test_fork_join;
        Alcotest.test_case "empty loop" `Quick test_empty_loop;
        Alcotest.test_case "chunk larger than n" `Quick test_chunk_larger_than_n;
        Alcotest.test_case "more threads than work" `Quick test_more_threads_than_work;
        Alcotest.test_case "gain metric" `Quick test_gain ]
      @ qsuite [ prop_static_equals_manual; prop_all_work_executed ] );
    ( "ompsim.par",
      [ Alcotest.test_case "all schedules cover exactly once" `Quick test_par_covers_exactly_once;
        Alcotest.test_case "chunk partition" `Quick test_par_chunks_partition;
        Alcotest.test_case "single thread" `Quick test_par_single_thread;
        Alcotest.test_case "adversarial coverage, pool" `Quick test_par_coverage_adversarial;
        Alcotest.test_case "reduce sees partials in chunk order" `Quick test_reduce_chunk_order;
        Alcotest.test_case "chunk disjointness, pool" `Quick test_par_chunks_disjoint;
        Alcotest.test_case "schedules = direct results" `Quick test_schedules_match_direct;
        Alcotest.test_case "pool reuse and growth" `Quick test_pool_reuse_and_growth;
        Alcotest.test_case "pool exception propagation" `Quick test_pool_exception_propagates;
        Alcotest.test_case "failed pool growth leaves the pool usable" `Quick
          test_pool_failed_growth;
        Alcotest.test_case "ws counters reconcile (soak)" `Quick test_ws_counter_soak;
        Alcotest.test_case "nested region does not deadlock" `Quick test_pool_nested_region ] ) ]
