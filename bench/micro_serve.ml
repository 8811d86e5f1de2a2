open Common

(* micro-serve: the non-blocking multi-client serve loop. One server
   (event loop + plan cache) in its own domain; a client harness sends
   Zipf-skewed compile requests over the kernel registry and measures
   per-request round-trip latency. Phases: (1) cold — a single
   blocking client touches every kernel for the first time, so each
   distinct fingerprint pays a compile; (2) warm — 1..8 concurrent
   clients against the now-hot cache. The 1-client row is the blocking
   baseline: strict request/response, window 1 — the best case of a
   blocking accept-loop server, which can never overlap round trips.
   Multi-client rows pipeline up to 16 outstanding requests per
   connection, which only a multiplexing loop can serve. The gate
   wants warm 8-client throughput >= 4x the 1-client baseline. That
   the loop's serve_stats match the request log and the serve.* /
   service.inflight ledger is test_serve's. *)
let run () =
  let module Server = Service.Server in
  let max_clients = 8 in
  let reqs_total = 16000 in
  let window = 16 in
  (* each warm phase reports its median-throughput trial: one 10ms
     wall is at the mercy of a single GC pause or scheduler hiccup,
     and "sustained" means the typical rate, not the unluckiest *)
  let trials = 3 in
  (* the Zipf mix draws from the kernel registry: every [kernel=NAME]
     request resolves to the registry's shared nest value, which is
     exactly the workload the fingerprint memo serves *)
  let nests = Array.of_list Kernels.Registry.names in
  let nnests = Array.length nests in
  header
    (Printf.sprintf
       "micro-serve: multi-client serve loop, %d kernels, %d requests/phase, up to %d clients (pipeline window %d)"
       nnests reqs_total max_clients window);
  Emit.ensure_writable "BENCH_serve.json";
  let socket = socket_path "bench-serve" in
  let req_strs = Array.init nnests (fun idx -> Printf.sprintf "compile kernel=%s\n" nests.(idx)) in
  (* one client: [count] Zipf-skewed requests with at most [window]
     outstanding. window=1 is the classic blocking request/response
     client (the baseline); window>1 pipelines — the framing layer
     makes that safe, and responses still come back in order. *)
  let client_loop seed count window =
    let fd = connect socket in
    let read_line = make_reader fd in
    let lat = Array.make (max 1 count) 0.0 in
    let t_sent = Array.make (max 1 count) 0.0 in
    let state = ref (12345 + (seed * 9973)) in
    let pick () =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let u = float_of_int !state /. 1073741824.0 in
      min (nnests - 1) (int_of_float (float_of_int nnests *. u *. u))
    in
    let sent = ref 0 and recvd = ref 0 in
    let batch = Buffer.create 1024 in
    while !recvd < count do
      if !sent < count && !sent - !recvd < window then begin
        (* fill the window in one write *)
        Buffer.clear batch;
        let now = Unix.gettimeofday () in
        while !sent < count && !sent - !recvd < window do
          Buffer.add_string batch req_strs.(pick ());
          t_sent.(!sent) <- now;
          incr sent
        done;
        send_all fd (Buffer.contents batch)
      end;
      ignore (read_line ());
      lat.(!recvd) <- (Unix.gettimeofday () -. t_sent.(!recvd)) *. 1e6;
      incr recvd
    done;
    Unix.close fd;
    lat
  in
  (* N concurrent clients driven from ONE domain: each client is a
     connection with up to [window] outstanding pipelined requests,
     multiplexed over its own select. What the server sees is real
     concurrency — N sockets with interleaved outstanding requests —
     but the measurement stays about the serve loop: on a small (even
     single-core) box, a domain per client would mostly measure the OS
     scheduler and the runtime's stop-the-world synchronization across
     domains. The 1-client phase instead runs [client_loop], the
     classic blocking request/response client. *)
  let run_phase nclients window =
    let per_client = max 1 (reqs_total / nclients) in
    if nclients = 1 && window = 1 then begin
      let t0 = Unix.gettimeofday () in
      let lat = client_loop 0 per_client 1 in
      let wall = Unix.gettimeofday () -. t0 in
      Array.sort compare lat;
      (per_client, wall, float_of_int per_client /. wall, lat)
    end
    else begin
      let fds = Array.init nclients (fun _ -> connect socket) in
      let bufs = Array.init nclients (fun _ -> Buffer.create 4096) in
      let poss = Array.make nclients 0 in
      let sent = Array.make nclients 0 in
      let recvd = Array.make nclients 0 in
      let states = Array.init nclients (fun c -> 12345 + (c * 9973)) in
      let lats = Array.make (nclients * per_client) 0.0 in
      let t_sent = Array.make (nclients * per_client) 0.0 in
      let finished = ref 0 in
      let chunk = Bytes.create 65536 in
      let batch = Buffer.create 1024 in
      (* top up [c]'s window with one batched write *)
      let fill c =
        if sent.(c) < per_client && sent.(c) - recvd.(c) < window then begin
          Buffer.clear batch;
          let now = Unix.gettimeofday () in
          while sent.(c) < per_client && sent.(c) - recvd.(c) < window do
            states.(c) <- ((states.(c) * 1103515245) + 12345) land 0x3FFFFFFF;
            let u = float_of_int states.(c) /. 1073741824.0 in
            let idx = min (nnests - 1) (int_of_float (float_of_int nnests *. u *. u)) in
            Buffer.add_string batch req_strs.(idx);
            t_sent.((c * per_client) + sent.(c)) <- now;
            sent.(c) <- sent.(c) + 1
          done;
          send_all fds.(c) (Buffer.contents batch)
        end
      in
      (* one read, then pop every complete response line it brought *)
      let read_burst c =
        match Unix.read fds.(c) chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "micro-serve: unexpected EOF"
        | r ->
          Buffer.add_subbytes bufs.(c) chunk 0 r;
          let now = Unix.gettimeofday () in
          let s = Buffer.contents bufs.(c) in
          let n = String.length s in
          let pos = ref poss.(c) in
          let scanning = ref true in
          while !scanning do
            match String.index_from_opt s !pos '\n' with
            | None -> scanning := false
            | Some i ->
              let slot = (c * per_client) + recvd.(c) in
              lats.(slot) <- (now -. t_sent.(slot)) *. 1e6;
              recvd.(c) <- recvd.(c) + 1;
              pos := i + 1;
              if recvd.(c) = per_client then begin
                incr finished;
                scanning := false
              end
          done;
          if !pos = n then begin
            Buffer.clear bufs.(c);
            poss.(c) <- 0
          end
          else poss.(c) <- !pos
      in
      let t0 = Unix.gettimeofday () in
      while !finished < nclients do
        for c = 0 to nclients - 1 do
          fill c
        done;
        let waiting = ref [] in
        for c = nclients - 1 downto 0 do
          if recvd.(c) < sent.(c) then waiting := fds.(c) :: !waiting
        done;
        match Unix.select !waiting [] [] 1.0 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          for c = 0 to nclients - 1 do
            if recvd.(c) < per_client && List.mem fds.(c) ready then read_burst c
          done
      done;
      let wall = Unix.gettimeofday () -. t0 in
      Array.iter Unix.close fds;
      Array.sort compare lats;
      let total = nclients * per_client in
      (total, wall, float_of_int total /. wall, lats)
    end
  in
  let run_phase_median nclients window =
    let runs = List.init trials (fun _ -> run_phase nclients window) in
    let sorted = List.sort (fun (_, _, a, _) (_, _, b, _) -> compare a b) runs in
    List.nth sorted (trials / 2)
  in
  let since = Obsv.Metrics.snapshot () in
  let counted = Obsv.Metrics.since since in
  let cache = Service.Cache.create ~capacity:(2 * nnests) ~dir:None () in
  let config =
    { Server.default_serve_config with
      max_clients = 2 * max_clients;
      (* admission-capped throughput is the tests' concern; the bench
         measures loop capacity, so the cap covers every outstanding
         request the client fleet can have in flight *)
      max_inflight = max Server.default_serve_config.max_inflight (max_clients * window);
      (* let one turn retire a connection's whole pipeline window, so
         its responses batch into one write *)
      service_quantum = max Server.default_serve_config.service_quantum window }
  in
  let server = Domain.spawn (fun () -> Server.serve ~cache ~config ~socket ()) in
  wait_ready socket;
  (* (1) cold: one blocking client, every kernel's first touch pays a
     compile through the symbolic pipeline *)
  let cold_sent, _, cold_rps, cold_lats =
    let fd = connect socket in
    let read_line = make_reader fd in
    let t0 = Unix.gettimeofday () in
    let lats =
      Array.init nnests (fun idx ->
          let t = Unix.gettimeofday () in
          send_all fd req_strs.(idx);
          ignore (read_line ());
          (Unix.gettimeofday () -. t) *. 1e6)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Unix.close fd;
    Array.sort compare lats;
    (nnests, wall, float_of_int nnests /. wall, lats)
  in
  Printf.printf "cold: %d compiles, %8.0f req/s, p50 %.0f us, p99 %.0f us\n" cold_sent cold_rps
    (percentile cold_lats 0.50) (percentile cold_lats 0.99);
  (* (2) warm: 1..max clients against the hot cache. The 1-client
     phase runs with window 1 — a strictly blocking request/response
     client, which is also the best case of the old blocking server —
     and the multi-client phases pipeline up to [window] outstanding
     requests each, which only a multiplexing loop can serve fairly. *)
  let rec client_counts c = if c >= max_clients then [ max_clients ] else c :: client_counts (c * 2) in
  let counts = client_counts 1 in
  let phases =
    List.map
      (fun nclients ->
        let w = if nclients = 1 then 1 else window in
        let sent, wall, rps, lats = run_phase_median nclients w in
        Printf.printf
          "warm %2d client(s) (window %2d): %6d reqs in %6.3f s, %8.0f req/s, p50 %.0f us, p99 %.0f us, p999 %.0f us\n"
          nclients w sent wall rps (percentile lats 0.50) (percentile lats 0.99)
          (percentile lats 0.999);
        (nclients, sent, wall, rps, lats))
      counts
  in
  (* shut the loop down; its serve_stats fill the counters block *)
  let shutdown_fd = connect socket in
  let read_ack = make_reader shutdown_fd in
  send_all shutdown_fd "shutdown\n";
  ignore (read_ack ());
  Unix.close shutdown_fd;
  let stats =
    match Domain.join server with
    | Ok s -> s
    | Error e -> failwith ("micro-serve: serve failed: " ^ e)
  in
  let baseline_rps =
    match phases with (1, _, _, rps, _) :: _ -> rps | _ -> cold_rps
  in
  let peak_clients, peak_rps =
    List.fold_left
      (fun (bc, br) (n, _, _, rps, _) -> if rps > br then (n, rps) else (bc, br))
      (1, baseline_rps) phases
  in
  (* the acceptance gate reads the [max_clients]-client row itself,
     not whichever client count happened to peak *)
  let gate_rps =
    List.fold_left
      (fun acc (n, _, _, rps, _) -> if n = max_clients then rps else acc)
      peak_rps phases
  in
  let speedup = gate_rps /. baseline_rps in
  Printf.printf "throughput: 1 client %8.0f req/s, %d clients %8.0f req/s -> %.2fx\n" baseline_rps
    max_clients gate_rps speedup;
  Emit.write ~path:"BENCH_serve.json" ~artifact:"micro-serve"
    [ ("kernels", Emit.Int nnests);
      ("requests_per_phase", Emit.Int reqs_total);
      ("trials_per_phase", Emit.Int trials);
      ("max_clients", Emit.Int max_clients);
      ("pipeline_window", Emit.Int window);
      ( "cold",
        Emit.Obj
          [ ("requests", Emit.Int cold_sent);
            ("req_per_s", Emit.F (cold_rps, 0));
            ("p50_us", Emit.F (percentile cold_lats 0.50, 0));
            ("p99_us", Emit.F (percentile cold_lats 0.99, 0))
          ] );
      ( "warm",
        Emit.Arr
          (List.map
             (fun (nclients, sent, wall, rps, lats) ->
               Emit.Obj
                 [ ("clients", Emit.Int nclients);
                   ("requests", Emit.Int sent);
                   ("wall_s", Emit.F (wall, 3));
                   ("req_per_s", Emit.F (rps, 0));
                   ("p50_us", Emit.F (percentile lats 0.50, 0));
                   ("p99_us", Emit.F (percentile lats 0.99, 0));
                   ("p999_us", Emit.F (percentile lats 0.999, 0))
                 ])
             phases) );
      ( "throughput",
        Emit.Obj
          [ ("baseline_1_client_req_per_s", Emit.F (baseline_rps, 0));
            ("gate_clients", Emit.Int max_clients);
            ("gate_req_per_s", Emit.F (gate_rps, 0));
            ("peak_clients", Emit.Int peak_clients);
            ("peak_req_per_s", Emit.F (peak_rps, 0));
            ("speedup", Emit.F (speedup, 2))
          ] );
      ("serve_speedup_ok", Emit.Bool (speedup >= 4.0));
      ( "counters",
        Emit.Obj
          [ ("connections", Emit.Int stats.Server.connections);
            ("requests", Emit.Int stats.Server.requests);
            ("ok_responses", Emit.Int stats.Server.ok_responses);
            ("error_responses", Emit.Int stats.Server.error_responses);
            ("timeouts", Emit.Int stats.Server.timeouts);
            ("rejected", Emit.Int stats.Server.rejected);
            ("dropped", Emit.Int stats.Server.dropped);
            ("max_concurrent", Emit.Int stats.Server.max_concurrent);
            ("cache_hits", Emit.Int (counted Service.Stats.cache_hits));
            ("cache_misses", Emit.Int (counted Service.Stats.cache_misses))
          ] )
    ]
