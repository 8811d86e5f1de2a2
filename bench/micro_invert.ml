module K = Kernels.Kernel
open Common

(* certified numeric inversion: per-recovery cost of the runtime's
   seeded bracket search against the paper's closed forms (the
   Closed_form reference Validate checks), the chunked walk that
   amortizes it, and the quintic kernel the radical cap used to
   reject. Gate: numeric recovery within 5x closed-form. That
   inversion.numeric / inversion.closed_form match trip x levels is
   test_oracle's inversion counter soak. *)
let run () =
  let n = env_int "BENCH_INVERT_N" 400 in
  header "micro-invert: certified numeric recovery vs closed forms";
  Emit.ensure_writable "BENCH_invert.json";
  let module R = Trahrhe.Recovery in
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let param = K.param_of corr ~n in
  let closed = Trahrhe.Closed_form.make (Trahrhe.Closed_form.select_exn (K.inversion corr)) ~param in
  let rc = K.recovery corr ~n in
  let trip = R.trip_count rc in
  let sink = ref 0 in
  (* every-iteration recovery: the worst case for the numeric path *)
  let ns_per = best_ns_per_iter ~reps:3 ~iters:trip in
  let recover_closed =
    ns_per (fun () ->
        for pc = 1 to trip do
          sink := !sink + (Trahrhe.Closed_form.recover closed pc).(0)
        done)
  in
  let recover_numeric =
    ns_per (fun () ->
        for pc = 1 to trip do
          sink := !sink + (R.recover rc pc).(0)
        done)
  in
  (* chunked walk: one recovery per chunk, incrementation after — the
     §V deployment shape, where the recovery cost amortizes away *)
  let chunks = 64 in
  let walk =
    ns_per (fun () ->
        let chunk = max 1 (trip / chunks) in
        let pc = ref 1 in
        while !pc <= trip do
          let len = min chunk (trip - !pc + 1) in
          R.walk rc ~pc:!pc ~len (fun idx -> sink := !sink + idx.(0));
          pc := !pc + len
        done)
  in
  ignore !sink;
  let ratio_each = recover_numeric /. recover_closed in
  Printf.printf "%-54s %10s\n" (Printf.sprintf "strategy (correlation, N=%d)" n) "ns/iter";
  List.iter
    (fun (name, ns) -> Printf.printf "%-54s %10.1f\n" name ns)
    [ ("closed-form reference at every iteration", recover_closed);
      ("numeric recovery at every iteration", recover_numeric);
      (Printf.sprintf "chunked walk (%d chunks)" chunks, walk) ];
  Printf.printf "numeric vs closed: %.2fx per recovery\n" ratio_each;
  (* the quintic kernel the radical cap rejected *)
  let deep = Option.get (Kernels.Registry.find "simplex5") in
  let dn = deep.K.default_n in
  let rc_d = K.recovery deep ~n:dn in
  let dtrip = R.trip_count rc_d in
  let levels = Array.length (R.recover rc_d 1) in
  let deep_each =
    best_ns_per_iter ~reps:3 ~iters:dtrip (fun () ->
        for pc = 1 to dtrip do
          sink := !sink + (R.recover rc_d pc).(0)
        done)
  in
  (* isolation effort on the quintic at a few representative ranks *)
  let newton = ref 0 and bisect = ref 0 and probes = ref 0 in
  List.iter
    (fun pc ->
      let idx = R.recover rc_d pc in
      match R.isolate_level rc_d idx ~pc ~level:0 with
      | Some (Ok e) ->
        newton := !newton + e.Rootsolve.Isolate.newton_steps;
        bisect := !bisect + e.Rootsolve.Isolate.bisect_steps;
        incr probes
      | _ -> ())
    [ 1; dtrip / 4; dtrip / 2; (3 * dtrip) / 4; dtrip ];
  Printf.printf
    "simplex5 (n=%d, trip %d): %.1f ns/recovery; avg %.1f newton + %.1f bisect steps\n"
    dn dtrip deep_each
    (float_of_int !newton /. float_of_int (max 1 !probes))
    (float_of_int !bisect /. float_of_int (max 1 !probes));
  let within_5x = ratio_each <= 5.0 in
  Printf.printf "gate: within_5x=%b\n" within_5x;
  Emit.write ~path:"BENCH_invert.json" ~artifact:"micro-invert"
    [ ("kernel", Emit.Str "correlation");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ( "ns_per_recovery",
        Emit.Obj
          [ ("closed_form", Emit.F (recover_closed, 2));
            ("numeric", Emit.F (recover_numeric, 2));
            ("walk", Emit.F (walk, 2))
          ] );
      ("ratio", Emit.Obj [ ("numeric_vs_closed_each", Emit.F (ratio_each, 3)) ]);
      ( "simplex5",
        Emit.Obj
          [ ("n", Emit.Int dn);
            ("iterations", Emit.Int dtrip);
            ("ns_per_recovery", Emit.F (deep_each, 2));
            ("levels", Emit.Int levels);
            ("newton_steps", Emit.Int !newton);
            ("bisect_steps", Emit.Int !bisect)
          ] );
      ("within_5x", Emit.Bool within_5x)
    ]
