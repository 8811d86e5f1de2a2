module K = Kernels.Kernel
module Sched = Ompsim.Schedule
open Common

(* micro-reduce: parallel reductions over the collapsed range. The
   workload is the skewed triangle (ltmp's space: i in [0,N), j in
   [0,i]) with a sum clause attached; each point additionally spins
   proportionally to i - j + 1 — the ltmp work profile — so
   equal-count static chunks are load-imbalanced and the
   divide-and-conquer splitter has something to win. Phases:
   (1) serial fold baseline and parallel reductions at 1..8 domains
   under static chunking, work stealing and D&C; (2) native
   one-call-per-chunk sum, max and min vs the interpreted clause fold. The
   speedup gates (8-domain parallel >= 3x serial, D&C >= static on
   the skew) are hardware-dependent and emitted next to the machine's
   domain count. Bit-identity across schedules, lanes and faults is
   test_oracle's reduction differential; the D&C counters against
   Schedule.dnc_leaves are its d&c soak. *)
let run () =
  let n = env_int "BENCH_REDUCE_N" 400 in
  let spin_scale = 2 in
  header (Printf.sprintf "micro-reduce: parallel sum over the skewed triangle (N=%d)" n);
  Emit.ensure_writable "BENCH_reduce.json";
  let module R = Trahrhe.Recovery in
  let module N = Trahrhe.Nest in
  let ltmp = Option.get (Kernels.Registry.find "ltmp") in
  let reduced param_n =
    let nest = N.with_default_reduce ltmp.K.nest in
    let inv =
      match Trahrhe.Inversion.invert nest with
      | Ok i -> i
      | Error e -> failwith ("inversion failed: " ^ Trahrhe.Inversion.error_to_string e)
    in
    (nest, R.make inv ~param:(K.param_of ltmp ~n:param_n))
  in
  let _, rc = reduced n in
  let trip = R.trip_count rc in
  (* the skewed chunk body: fold the clause and spin i - j + 1 units
     per point, so chunk cost tracks the triangle's work profile *)
  let chunk_partial ~start ~len =
    let acc = ref 0 in
    R.walk rc ~pc:(start + 1) ~len (fun idx ->
        acc := !acc + R.reduce_value_int rc idx;
        let w = (idx.(0) - idx.(1) + 1) * spin_scale in
        let s = ref 0 in
        for q = 1 to w do
          s := !s + q
        done;
        ignore (Sys.opaque_identity !s));
    !acc
  in
  let serial_value = chunk_partial ~start:0 ~len:trip in
  let serial_s =
    Ompsim.Calibrate.time_best ~reps:3 (fun () -> ignore (chunk_partial ~start:0 ~len:trip))
  in
  let time_schedule ~nthreads schedule =
    Ompsim.Calibrate.time_best ~reps:3 (fun () ->
        match
          Ompsim.Par.reduce ~faults:None ~nthreads ~schedule ~n:trip ~combine:( + )
            (fun ~thread:_ -> chunk_partial)
        with
        | Ok (Some v) when v = serial_value -> ()
        | Ok (Some v) -> failwith (Printf.sprintf "reduction mismatch: %d vs serial %d" v serial_value)
        | Ok None -> failwith "empty reduction"
        | Error e -> failwith (Ompsim.Par.describe_error e))
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let machine_domains = Domain.recommended_domain_count () in
  Printf.printf "%d collapsed iterations, spin scale %d, machine has %d domain(s)\n" trip
    spin_scale machine_domains;
  Printf.printf "%-10s %12s %12s %12s %10s %10s %10s\n" "domains" "static ms" "ws ms" "dnc ms"
    "sp static" "sp ws" "sp dnc";
  let rows =
    List.map
      (fun d ->
        let st = time_schedule ~nthreads:d Sched.Static in
        let ws = time_schedule ~nthreads:d (Sched.Work_stealing 64) in
        let dnc = time_schedule ~nthreads:d (Sched.Dnc 64) in
        Printf.printf "%-10d %12.2f %12.2f %12.2f %9.2fx %9.2fx %9.2fx\n" d (st *. 1e3)
          (ws *. 1e3) (dnc *. 1e3) (serial_s /. st) (serial_s /. ws) (serial_s /. dnc);
        (d, st, ws, dnc))
      domain_counts
  in
  let _, st8, ws8, dnc8 = List.nth rows (List.length rows - 1) in
  let best8 = min st8 (min ws8 dnc8) in
  let parallel_speedup = serial_s /. best8 in
  (* D&C vs static on the skew case, with a 5% measurement tolerance *)
  let dnc_at_least_static = dnc8 <= st8 *. 1.05 in
  let parallel_3x = parallel_speedup >= 3.0 in
  Printf.printf "%-44s %9.2fx %s\n" "8-domain speedup vs serial (gate: >= 3x)" parallel_speedup
    (if parallel_3x then "ok"
     else if machine_domains < 8 then
       Printf.sprintf "BELOW TARGET (machine has %d domain(s))" machine_domains
     else "BELOW TARGET");
  Printf.printf "%-44s %10s\n" "d&c >= static chunking on the skew (gate)"
    (if dnc_at_least_static then "ok" else "BELOW TARGET");
  (* native one-call-per-chunk clause reduction vs the interpreted
     fold, per operator (no spin here: this measures delivery of the
     clause itself) *)
  let compiler_available = Jit.Abi.available () in
  let native_rows =
    if not compiler_available then begin
      Printf.printf "C compiler unavailable; native reduce phase skipped\n";
      []
    end
    else begin
      let nest, _ = reduced n in
      let tmp_root = temp_path "bench-reduce" in
      let cache = Service.Cache.create ~capacity:8 ~dir:(Some tmp_root) () in
      let nt = Service.Native.create ~dir:(Some tmp_root) () in
      let plan, renaming =
        match Service.Cache.find_or_compile cache nest with
        | Ok x -> x
        | Error e -> failwith ("plan compile failed: " ^ e)
      in
      let cparam = Service.Fingerprint.canonical_param renaming (K.param_of ltmp ~n) in
      let rc_interp = Service.Plan.recovery plan ~param:cparam in
      let rc_native = Service.Native.recovery nt plan ~param:cparam rc_interp in
      if not (R.native_enabled rc_native) then failwith "native backend failed to attach";
      let chunk = 4096 in
      let sink = ref 0 in
      let rows =
        List.map
          (fun op ->
            let name = N.op_to_string op in
            let reduce_ns rc =
              best_ns_per_iter ~reps:3 ~iters:trip (fun () ->
                  let pc = ref 1 in
                  while !pc <= trip do
                    let len = min chunk (trip - !pc + 1) in
                    sink := !sink + R.walk_reduce_int rc op ~pc:!pc ~len;
                    pc := !pc + len
                  done)
            in
            let interp = reduce_ns rc_interp in
            let native = reduce_ns rc_native in
            (* the native fold must agree bit for bit *)
            let vi = R.walk_reduce_int rc_interp op ~pc:1 ~len:trip in
            let vn = R.walk_reduce_int rc_native op ~pc:1 ~len:trip in
            if vi <> vn then
              failwith (Printf.sprintf "native reduce %s %d <> interpreted %d" name vn vi);
            let row fmt what v = Printf.printf fmt (Printf.sprintf what name) v in
            row "%-44s %10.2f\n" "interpreted %s fold (ns/iter)" interp;
            row "%-44s %10.2f\n" "native %s fold (ns/iter)" native;
            row "%-44s %9.1fx\n" "native %s speedup" (interp /. native);
            (name, interp, native))
          [ N.Sum; N.Max; N.Min ]
      in
      ignore (Sys.opaque_identity !sink);
      rows
    end
  in
  Emit.write ~path:"BENCH_reduce.json" ~artifact:"micro-reduce"
    [ ("kernel", Emit.Str "ltmp triangle + default clause value");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ("spin_scale", Emit.Int spin_scale);
      ("serial_ms", Emit.F (serial_s *. 1e3, 2));
      ( "rows",
        Emit.Arr
          (List.map
             (fun (d, st, ws, dnc) ->
               Emit.Obj
                 [ ("domains", Emit.Int d);
                   ("static_ms", Emit.F (st *. 1e3, 2));
                   ("ws_ms", Emit.F (ws *. 1e3, 2));
                   ("dnc_ms", Emit.F (dnc *. 1e3, 2));
                   ("speedup_static", Emit.F (serial_s /. st, 2));
                   ("speedup_ws", Emit.F (serial_s /. ws, 2));
                   ("speedup_dnc", Emit.F (serial_s /. dnc, 2))
                 ])
             rows) );
      ( "native",
        Emit.Obj
          [ ("compiler_available", Emit.Bool compiler_available);
            ( "ops",
              Emit.Arr
                (List.map
                   (fun (op, interp, native) ->
                     Emit.Obj
                       [ ("op", Emit.Str op);
                         ("interpreted_ns_iter", Emit.F (interp, 2));
                         ("native_ns_iter", Emit.F (native, 2));
                         ("speedup", Emit.F (interp /. native, 2))
                       ])
                   native_rows) )
          ] );
      ( "gates",
        Emit.Obj
          [ ("parallel_speedup_3x", Emit.Bool parallel_3x);
            ("dnc_at_least_static", Emit.Bool dnc_at_least_static)
          ] );
      ("parallel_speedup", Emit.F (parallel_speedup, 2))
    ]
