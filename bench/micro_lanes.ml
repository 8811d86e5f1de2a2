module K = Kernels.Kernel
open Common

(* the chunked walk of a whole iteration space, [per_chunk] once per
   4096-iteration chunk *)
let chunk = 4096

let chunked trip per_chunk () =
  let start = ref 0 in
  while !start < trip do
    per_chunk ~pc:(!start + 1) ~len:(min chunk (trip - !start));
    start := !start + chunk
  done

(* the service's checksum payload: the scalar [walk_hash] vs the
   lanes-8 walk hashing each block with [block_hash] — the chunk body
   [Service.Exec] runs for [lanes=1] and [lanes=8]. The contenders are
   interleaved round by round. *)
let checksum_row sink (name, n) =
  let module R = Trahrhe.Recovery in
  let rc = K.recovery (Option.get (Kernels.Registry.find name)) ~n in
  let trip = R.trip_count rc in
  let best =
    best_of_rounds ~rounds:15
      [| chunked trip (fun ~pc ~len -> sink := !sink + R.walk_hash rc ~pc ~len);
         chunked trip (fun ~pc ~len ->
             R.walk_lanes rc ~pc ~len ~vlength:8 (fun ~base:_ ~count lanes ->
                 sink := !sink + R.block_hash lanes ~count)) |]
  in
  let ns ms = ms *. 1e6 /. float_of_int trip in
  (name, n, R.depth rc, ns best.(0), ns best.(1))

(* §VI-A batched lane-walk vs the per-iteration walk callback: same
   kernel, same chunking, the body reduced to one add per iteration so
   the difference is pure delivery mechanism (closure call per
   iteration vs run-filled blocks + one closure call per block). Then
   the checksum rows above, gated at lanes-8 <= 5x [walk_hash]. *)
let run () =
  let n = env_int "BENCH_LANES_N" 1000 in
  header (Printf.sprintf "micro-lanes: walk vs walk_lanes ns/iter (correlation, N=%d)" n);
  Emit.ensure_writable "BENCH_lanes.json";
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  let sink = ref 0 in
  let time_ns = best_ns_per_iter ~reps:5 ~iters:trip in
  let chunked = chunked trip in
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
  (* covariance (d=3) at a size whose trip is near correlation's at
     the default N *)
  let checksums =
    List.map (checksum_row sink) [ ("correlation", n); ("covariance", max 4 (n * 3 / 20)) ]
  in
  let ratio (_, _, _, hash_ns, lanes_ns) = lanes_ns /. hash_ns in
  let checksum_ok = List.for_all (fun row -> ratio row <= 5.0) checksums in
  ignore !sink;
  Printf.printf "%-40s %10s %9s\n" "variant" "ns/iter" "vs walk";
  Printf.printf "%-40s %10.2f %9s\n" "walk, per-iteration callback" walk_ns "1.00x";
  List.iter
    (fun (v, ns) ->
      Printf.printf "%-40s %10.2f %8.2fx\n"
        (Printf.sprintf "walk_lanes, vlength %d" v)
        ns (walk_ns /. ns))
    rows;
  Printf.printf "\n%-40s %10s %10s %9s\n" "checksum (walk_hash vs lanes 8)" "hash" "lanes 8" "ratio";
  List.iter
    (fun ((name, n, d, hash_ns, lanes_ns) as row) ->
      Printf.printf "%-40s %10.2f %10.2f %8.2fx\n"
        (Printf.sprintf "%s N=%d (d=%d)" name n d)
        hash_ns lanes_ns (ratio row))
    checksums;
  Printf.printf "lanes-8 checksum <= 5x walk_hash: %s\n"
    (if checksum_ok then "ok" else "ABOVE TARGET");
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
          ] );
      ( "checksum",
        Emit.Arr
          (List.map
             (fun ((name, n, d, hash_ns, lanes_ns) as row) ->
               Emit.Obj
                 [ ("kernel", Emit.Str name);
                   ("n", Emit.Int n);
                   ("depth", Emit.Int d);
                   ("walk_hash_ns_per_iter", Emit.F (hash_ns, 2));
                   ("lanes8_ns_per_iter", Emit.F (lanes_ns, 2));
                   ("checksum_lanes8_vs_hash", Emit.F (ratio row, 3))
                 ])
             checksums) );
      ("lanes_checksum_ok", Emit.Bool checksum_ok)
    ]
