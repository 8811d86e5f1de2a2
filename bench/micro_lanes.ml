module K = Kernels.Kernel
open Common

(* §VI-A batched lane-walk vs the per-iteration walk callback: same
   kernel, same chunking, the body reduced to one add per iteration so
   the difference is pure delivery mechanism (closure call per
   iteration vs run-filled blocks + one closure call per block) *)
let run () =
  let n = env_int "BENCH_LANES_N" 1000 in
  header (Printf.sprintf "micro-lanes: walk vs walk_lanes ns/iter (correlation, N=%d)" n);
  Emit.ensure_writable "BENCH_lanes.json";
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  let chunk = min trip 4096 in
  let sink = ref 0 in
  let time_ns = best_ns_per_iter ~reps:5 ~iters:trip in
  let chunked per_chunk () =
    let start = ref 0 in
    while !start < trip do
      per_chunk ~pc:(!start + 1) ~len:(min chunk (trip - !start));
      start := !start + chunk
    done
  in
  let walk_ns =
    time_ns
      (chunked (fun ~pc ~len ->
           Trahrhe.Recovery.walk rc ~pc ~len (fun idx -> sink := !sink + idx.(0))))
  in
  let lanes_ns vlength =
    time_ns
      (chunked (fun ~pc ~len ->
           Trahrhe.Recovery.walk_lanes rc ~pc ~len ~vlength (fun ~base:_ ~count lanes ->
               let row = lanes.(0) in
               let acc = ref 0 in
               for l = 0 to count - 1 do
                 acc := !acc + row.(l)
               done;
               sink := !sink + !acc)))
  in
  let vlengths = [ 1; 4; 8; 16; 32 ] in
  let rows = List.map (fun v -> (v, lanes_ns v)) vlengths in
  ignore !sink;
  Printf.printf "%-40s %10s %9s\n" "variant" "ns/iter" "vs walk";
  Printf.printf "%-40s %10.2f %9s\n" "walk, per-iteration callback" walk_ns "1.00x";
  List.iter
    (fun (v, ns) ->
      Printf.printf "%-40s %10.2f %8.2fx\n"
        (Printf.sprintf "walk_lanes, vlength %d" v)
        ns (walk_ns /. ns))
    rows;
  Emit.write ~path:"BENCH_lanes.json" ~artifact:"micro-lanes"
    [ ("kernel", Emit.Str "correlation");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ("chunk", Emit.Int chunk);
      ("walk_ns_per_iter", Emit.F (walk_ns, 2));
      ( "lanes",
        Emit.Arr
          (List.map
             (fun (v, ns) ->
               Emit.Obj
                 [ ("vlength", Emit.Int v);
                   ("ns_per_iter", Emit.F (ns, 2));
                   ("speedup_vs_walk", Emit.F (walk_ns /. ns, 3))
                 ])
             rows) );
      ( "speedup",
        Emit.Obj
          [ ("vlength_8_vs_walk", Emit.F (walk_ns /. List.assoc 8 rows, 3));
            ("vlength_32_vs_walk", Emit.F (walk_ns /. List.assoc 32 rows, 3))
          ] )
    ]
