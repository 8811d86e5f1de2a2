(* micro-chaos: the deterministic chaos harness for the hardened
   service runtime (BENCH_chaos.json). Five seeded scenarios, each
   with a recovery gate:

   1. kill9 mid-write — a real writer process is SIGKILLed while
      appending to its private dot-temp in a shared store; a stale
      lock is planted next to it. The next startup's janitor must
      sweep both and the store must keep serving.
   2. corrupt store — the published entry's payload is bit-flipped at
      a seeded position. The next read must quarantine it to [.bad]
      and recompile; the served plan must be byte-identical to the
      pre-corruption plan (zero corrupt serves), and a further
      restart must serve the healed entry as a clean disk hit.
   3. wedged cc — OMPSIM_JIT_CC points at a script that answers
      --version and then sleeps forever. The first compile must fail
      within 2x OMPSIM_JIT_TIMEOUT_MS, the breaker must open at the
      threshold, an open-state attempt must be rejected near-instantly
      without forking the compiler, and after the cooldown a half-open
      probe against the real compiler must close it again.
   4. flooding client — a pipelining flooder hammers a rate-limited
      server while a paced victim measures round-trip latency. The
      victim's loaded p99 must stay within 3x its unloaded p99 (with
      a small absolute floor for scheduler noise), nobody may lose a
      response, and the victim must never be throttled.
   5. head of line — while one connection's exec runs for hundreds of
      ms, a paced client alternates health and a warm compile on
      another. Their p99 must stay within a tenth of the exec's own
      latency: the serve loop answers them at the exec's safe points
      instead of after it.

   Afterwards the counter ledger (jit.timeout, serve_stats) must
   reconcile exactly against the client-side ground truth. *)

module Server = Service.Server
module Cache = Service.Cache
module A = Polymath.Affine
module Q = Zmath.Rat

open Common

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fresh_dir tag =
  let d = temp_path ("chaos-" ^ tag) in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ()) (Sys.readdir d);
  d

let aff terms c = A.make (List.map (fun (x, k) -> (x, Q.of_int k)) terms) (Q.of_int c)

(* the canonical triangular nest: cheap to plan, distinct from the
   kernel registry so the flood scenario's cache is independent *)
let tri_nest =
  lazy
    (Trahrhe.Nest.make ~params:[ "N" ]
       [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
         { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ])

let with_env kvs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) kvs in
  List.iter (fun (k, v) -> Unix.putenv k v) kvs;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, v) -> Unix.putenv k (Option.value v ~default:"")) saved)
    f

(* ---------------- scenarios 1+2: store crash + corruption ---------------- *)

type store_result = {
  janitor_restart : int;  (** files swept by the post-crash startup *)
  tmp_swept : bool;
  lock_swept : bool;
  quarantined : int;
  bad_exists : bool;
  digest_match_recompile : bool;  (** healed plan == pre-corruption plan *)
  digest_match_hit : bool;
  clean_disk_hit : bool;  (** third start serves the healed entry from disk *)
}

let store_chaos ~seed =
  let dir = fresh_dir "store" in
  let nest = Lazy.force tri_nest in
  let fp = Service.Fingerprint.hash nest in
  (* epoch 1: a healthy writer publishes the plan *)
  let cache1 = Cache.create ~capacity:8 ~dir:(Some dir) () in
  let digest0 =
    match Cache.find_or_compile cache1 nest with
    | Ok (plan, _) -> Digest.to_hex (Digest.string (Service.Plan.encode plan))
    | Error e -> failwith ("micro-chaos: seed compile failed: " ^ e)
  in
  (* a second writer is kill -9'd mid-append to its private dot-temp:
     the canonical torn-write crash the janitor exists for *)
  let script =
    Printf.sprintf "cd %s || exit 1; while :; do printf xxxxxxxx >> .victim00.$$.tmp; done"
      (Filename.quote dir)
  in
  let pid = Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; script |] Unix.stdin Unix.stdout Unix.stderr in
  let tmp_name = Printf.sprintf ".victim00.%d.tmp" pid in
  let tmp_path = Filename.concat dir tmp_name in
  let rec wait_tmp tries =
    if not (Sys.file_exists tmp_path) then
      if tries = 0 then failwith "micro-chaos: crash victim never started writing"
      else begin
        Unix.sleepf 0.01;
        wait_tmp (tries - 1)
      end
  in
  wait_tmp 500;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (* a stale lock from the same dead writer *)
  let lock_path = Filename.concat dir "victim00.lock" in
  write_file lock_path "";
  (* seeded single-byte corruption of the published entry's payload
     (xor 0x01 — a case flip inside the hex header would be
     semantically invisible to the parser) *)
  let entry_path = Filename.concat dir (fp ^ ".plan") in
  let entry = read_file entry_path in
  let hdr_end = String.index entry '\n' + 1 in
  let state = ref (max 1 seed) in
  state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
  let flip_at = hdr_end + (!state mod (String.length entry - hdr_end)) in
  let corrupted = Bytes.of_string entry in
  Bytes.set corrupted flip_at (Char.chr (Char.code (Bytes.get corrupted flip_at) lxor 0x01));
  write_file entry_path (Bytes.to_string corrupted);
  (* epoch 2: restart over the crashed store. The janitor must sweep
     the orphaned temp and the stale lock; the first request must
     quarantine the corrupt entry and recompile — never serve it *)
  let since2 = Obsv.Metrics.snapshot () in
  let cache2 = Cache.create ~capacity:8 ~dir:(Some dir) () in
  let janitor_restart = Obsv.Metrics.since since2 Service.Stats.cache_janitor in
  let tmp_swept = not (Sys.file_exists tmp_path) in
  let lock_swept = not (Sys.file_exists lock_path) in
  let digest2 =
    match Cache.find_or_compile cache2 nest with
    | Ok (plan, _) -> Digest.to_hex (Digest.string (Service.Plan.encode plan))
    | Error e -> failwith ("micro-chaos: post-crash compile failed: " ^ e)
  in
  let quarantined = Obsv.Metrics.since since2 Service.Stats.cache_quarantined in
  let bad_exists = Sys.file_exists (Filename.concat dir (fp ^ ".bad")) in
  (* epoch 3: the healed entry must be a clean disk hit (this start's
     janitor also clears the quarantine file) *)
  let since3 = Obsv.Metrics.snapshot () in
  let cache3 = Cache.create ~capacity:8 ~dir:(Some dir) () in
  let digest3 =
    match Cache.find_or_compile cache3 nest with
    | Ok (plan, _) -> Digest.to_hex (Digest.string (Service.Plan.encode plan))
    | Error e -> failwith ("micro-chaos: healed read failed: " ^ e)
  in
  let counted3 = Obsv.Metrics.since since3 in
  { janitor_restart;
    tmp_swept;
    lock_swept;
    quarantined;
    bad_exists;
    digest_match_recompile = digest2 = digest0;
    digest_match_hit = digest3 = digest0;
    clean_disk_hit =
      counted3 Service.Stats.cache_disk_hits = 1 && counted3 Service.Stats.cache_quarantined = 0
  }

(* ---------------- scenario 3: wedged toolchain ---------------- *)

type wedged_result = {
  timeout_ms : int;
  first_fail_ms : float;
  fail_bounded : bool;  (** first failure within 2x the deadline *)
  deadline_named : bool;  (** error surfaces OMPSIM_JIT_TIMEOUT_MS *)
  opened : bool;
  reject_ms : float;
  reject_instant : bool;
  gcc_available : bool;
  recovered : bool;  (** half-open probe against the real cc closed it *)
  opens : int;
  rejections : int;
  probes : int;
  final_state : string;
}

let wedged_chaos () =
  let dir = fresh_dir "jit" in
  let timeout_ms = 500 in
  let cc = Filename.concat dir "wedged-cc" in
  write_file cc "#!/bin/sh\ncase \"$1\" in --version) echo wedged-cc 1.0; exit 0;; esac\nsleep 600\n";
  Unix.chmod cc 0o755;
  let breaker = Jit.Breaker.create ~threshold:2 ~cooldown_ms:(2 * timeout_ms) () in
  let since = Obsv.Metrics.snapshot () in
  let inv = Trahrhe.Inversion.invert_exn (Lazy.force tri_nest) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let r1, t1, r2, r3, t3 =
    with_env
      [ ("OMPSIM_JIT_CC", cc); ("OMPSIM_JIT_TIMEOUT_MS", string_of_int timeout_ms) ]
      (fun () ->
        let r1, t1 =
          timed (fun () -> Jit.Compile.specialize ~dir ~breaker inv)
        in
        let r2, _ =
          timed (fun () -> Jit.Compile.specialize ~dir ~breaker inv)
        in
        (* breaker is open now: this must be rejected without forking *)
        let r3, t3 =
          timed (fun () -> Jit.Compile.specialize ~dir ~breaker inv)
        in
        (r1, t1, r2, r3, t3))
  in
  let opened = Jit.Breaker.state breaker = Jit.Breaker.Open in
  let rejected =
    match r3 with Error e -> Jit.Compile.is_breaker_rejection e | Ok _ -> false
  in
  (* recovery: point the breaker's half-open probe at the real
     compiler (and the default 30s deadline — a loaded box must not
     re-open the breaker on a slow legitimate compile) *)
  Unix.sleepf (float_of_int (2 * timeout_ms) /. 1000. +. 0.05);
  let gcc_available, r4 =
    with_env
      [ ("OMPSIM_JIT_CC", ""); ("OMPSIM_JIT_TIMEOUT_MS", "") ]
      (fun () ->
        let avail = Jit.Abi.available () in
        let r4 =
          if avail then Jit.Compile.specialize ~dir ~breaker inv
          else Error "gcc unavailable"
        in
        (avail, r4))
  in
  let recovered =
    gcc_available
    && (match r4 with Ok _ -> true | Error _ -> false)
    && Jit.Breaker.state breaker = Jit.Breaker.Closed
  in
  ignore r2;
  { timeout_ms;
    first_fail_ms = t1;
    fail_bounded = t1 <= 2.0 *. float_of_int timeout_ms;
    deadline_named =
      (match r1 with Error e -> contains ~needle:"OMPSIM_JIT_TIMEOUT_MS" e | Ok _ -> false);
    opened;
    reject_ms = t3;
    reject_instant = rejected && t3 <= 100.0;
    gcc_available;
    recovered;
    opens = Obsv.Metrics.since since Jit.Stats.breaker_opens;
    rejections = Obsv.Metrics.since since Jit.Stats.breaker_rejects;
    probes = Obsv.Metrics.since since Jit.Stats.breaker_probes;
    final_state = Jit.Breaker.state_name (Jit.Breaker.state breaker)
  }

(* ---------------- scenario 4: flooding client ---------------- *)

type flood_result = {
  victim_reqs : int;
  flood_reqs : int;
  rate_limit : float;
  p99_unloaded_us : float;
  p99_loaded_us : float;
  p99_bound_us : float;
  p99_ok : bool;
  victim_overloads : int;  (** must be 0: pacing keeps it under the limit *)
  flood_overloads : int;
  lost : int;  (** requests that never got a response line *)
  health_ok : bool;
  stats : Server.serve_stats;
}

let flood_chaos ~victim_reqs ~window =
  let victim_reqs = max 20 victim_reqs and window = max 4 window in
  let rate = 2000.0 in
  let socket = socket_path "chaos" in
  let cache = Cache.create ~capacity:32 ~dir:None () in
  let config =
    { Server.default_serve_config with
      max_clients = 8;
      max_inflight = 2 * window;
      max_inflight_per_client = window;
      rate_limit = Some rate;
      rate_burst = window;
      (* a small quantum keeps the victim's turnaround bounded even
         while a flooder has a full pipeline queued *)
      service_quantum = 8 }
  in
  let server = Domain.spawn (fun () -> Server.serve ~cache ~config ~socket ()) in
  wait_ready socket;
  let req = "compile kernel=utma\n" in
  (* the victim: strictly paced at rate/4 so the limiter never fires
     for it; each request is blocking request/response *)
  let victim_overloads = ref 0 in
  let pace = 4.0 /. rate in
  let victim_phase fd read_line =
    let lats =
      Array.init victim_reqs (fun _ ->
          Unix.sleepf pace;
          let t0 = Unix.gettimeofday () in
          send_all fd req;
          let line = read_line () in
          if contains ~needle:"rejected:overload" line then incr victim_overloads;
          (Unix.gettimeofday () -. t0) *. 1e6)
    in
    Array.sort compare lats;
    lats
  in
  let victim_fd = connect socket in
  let victim_read = make_reader victim_fd in
  (* warm the plan so both phases measure cache hits *)
  send_all victim_fd req;
  ignore (victim_read ());
  let unloaded = victim_phase victim_fd victim_read in
  (* the flooder: full pipeline windows as fast as the socket accepts
     them, until told to stop. Every response is read and classified,
     so "lost" is exact *)
  let stop = Atomic.make false in
  let started = Atomic.make false in
  let flooder =
    Domain.spawn (fun () ->
        let fd = connect socket in
        let read_line = make_reader fd in
        let batch = Buffer.create (window * String.length req) in
        for _ = 1 to window do
          Buffer.add_string batch req
        done;
        let sent = ref 0 and got = ref 0 and overloads = ref 0 in
        while not (Atomic.get stop) do
          send_all fd (Buffer.contents batch);
          sent := !sent + window;
          for _ = 1 to window do
            let line = read_line () in
            incr got;
            if contains ~needle:"rejected:overload" line then incr overloads
          done;
          Atomic.set started true;
          (* a remote flooder has a round trip between windows; pacing
             here keeps the abuse at ~window/2ms (far over any sane
             rate limit) without turning the bench into a pure CPU
             contention test on small boxes *)
          Unix.sleepf 0.002
        done;
        Unix.close fd;
        (!sent, !got, !overloads))
  in
  let rec wait_started tries =
    if not (Atomic.get started) then
      if tries = 0 then failwith "micro-chaos: flooder never completed a batch"
      else begin
        Unix.sleepf 0.01;
        wait_started (tries - 1)
      end
  in
  wait_started 500;
  let loaded = victim_phase victim_fd victim_read in
  Atomic.set stop true;
  let flood_sent, flood_got, flood_overloads = Domain.join flooder in
  Unix.close victim_fd;
  (* health must answer even right after the flood, with the full
     robustness ledger in one line *)
  let health_fd = connect socket in
  let health_read = make_reader health_fd in
  send_all health_fd "health\n";
  let health_line = health_read () in
  let health_ok =
    contains ~needle:"\"op\":\"health\"" health_line
    && contains ~needle:"\"breaker\":{\"state\":\"" health_line
    && contains ~needle:"\"quarantined\"" health_line
    && contains ~needle:"\"inflight\"" health_line
  in
  send_all health_fd "shutdown\n";
  ignore (health_read ());
  Unix.close health_fd;
  let stats =
    match Domain.join server with
    | Ok s -> s
    | Error e -> failwith ("micro-chaos: serve failed: " ^ e)
  in
  let p99_unloaded = percentile unloaded 0.99 in
  let p99_loaded = percentile loaded 0.99 in
  (* 3x the unloaded p99, with an absolute floor: a sub-millisecond
     baseline makes a pure ratio a coin flip on scheduler noise, and
     on a single-core box the victim, flooder and server timeshare
     one CPU, so a couple of timeslices of tail are the OS, not the
     loop. Starvation — the failure this gate exists for — is orders
     of magnitude above either bound. *)
  let floor_us = 10000.0 in
  let p99_bound = Float.max (3.0 *. p99_unloaded) floor_us in
  { victim_reqs;
    flood_reqs = flood_sent;
    rate_limit = rate;
    p99_unloaded_us = p99_unloaded;
    p99_loaded_us = p99_loaded;
    p99_bound_us = p99_bound;
    p99_ok = p99_loaded <= p99_bound;
    victim_overloads = !victim_overloads;
    flood_overloads;
    lost = flood_sent - flood_got;
    health_ok;
    stats
  }

(* ---------------- scenario 5: head of line ---------------- *)

type hol_result = {
  exec_ms : float;  (** the long exec's own round trip *)
  exec_ok : bool;
  probes : int;  (** cheap round trips sent while the exec was pending *)
  health_p50_us : float;
  health_p99_us : float;
  compile_p50_us : float;
  compile_p99_us : float;
  p99_bound_us : float;  (** a tenth of the exec's latency *)
  answers_ok : bool;  (** every probe got its own correct answer *)
  pumped : int;  (** probes the loop answered mid-exec ([serve.pumped]) *)
}

let hol_chaos ~n =
  let socket = socket_path "chaos-hol" in
  let cache = Cache.create ~capacity:32 ~dir:None () in
  let server = Domain.spawn (fun () -> Server.serve ~cache ~socket ()) in
  wait_ready socket;
  let compile = "compile kernel=utma label=hol\n" in
  let probe_fd = connect socket in
  let probe_read = make_reader probe_fd in
  (* warm the one plan both the compile probes and the exec use, so
     the exec's time is its reference walk and its region *)
  send_all probe_fd compile;
  let warm = probe_read () in
  let sent = Atomic.make false and answered = Atomic.make false in
  let exec_client =
    Domain.spawn (fun () ->
        let fd = connect socket in
        let read = make_reader fd in
        let t0 = Unix.gettimeofday () in
        send_all fd (Printf.sprintf "exec kernel=utma n=%d threads=2 label=hol\n" n);
        Atomic.set sent true;
        let line = read () in
        let t1 = Unix.gettimeofday () in
        Atomic.set answered true;
        Unix.close fd;
        (t0, t1, line))
  in
  while not (Atomic.get sent) do
    Domain.cpu_relax ()
  done;
  (* the paced client: a blocking round trip every 2 ms, health and
     the warm compile in turn, until the exec answers *)
  let probes = ref [] in
  while not (Atomic.get answered) do
    Unix.sleepf 0.002;
    let health = List.length !probes mod 2 = 0 in
    let t0 = Unix.gettimeofday () in
    send_all probe_fd (if health then "health\n" else compile);
    let line = probe_read () in
    probes := (health, t0, Unix.gettimeofday (), line) :: !probes
  done;
  let t0, t1, exec_line = Domain.join exec_client in
  send_all probe_fd "shutdown\n";
  ignore (probe_read ());
  Unix.close probe_fd;
  let stats =
    match Domain.join server with
    | Ok s -> s
    | Error e -> failwith ("micro-chaos: serve failed: " ^ e)
  in
  let during = List.filter (fun (_, s, _, _) -> s < t1) !probes in
  let lat_us verb =
    let a =
      Array.of_list
        (List.filter_map (fun (h, s, e, _) -> if h = verb then Some ((e -. s) *. 1e6) else None) during)
    in
    Array.sort compare a;
    a
  in
  let health = lat_us true and compiles = lat_us false in
  let exec_ms = (t1 -. t0) *. 1e3 in
  { exec_ms;
    exec_ok = contains ~needle:{|"status":"ok"|} exec_line;
    probes = List.length during;
    health_p50_us = percentile health 0.5;
    health_p99_us = percentile health 0.99;
    compile_p50_us = percentile compiles 0.5;
    compile_p99_us = percentile compiles 0.99;
    p99_bound_us = exec_ms *. 100.;
    answers_ok =
      List.for_all
        (fun (h, _, _, line) ->
          if h then contains ~needle:{|"op":"health","status":"ok"|} line else line = warm)
        !probes;
    pumped = stats.Server.pumped
  }

(* ---------------- driver ---------------- *)

let run () =
  let seed = 42 in
  let victim_reqs = env_int "BENCH_CHAOS_VICTIM_REQS" 200 in
  let window = env_int "BENCH_CHAOS_FLOOD_WINDOW" 32 in
  let hol_n = 6000 in
  header
    (Printf.sprintf "micro-chaos: crash/corruption/wedge/flood/head-of-line gates (seed %d)" seed);
  Emit.ensure_writable "BENCH_chaos.json";
  let since = Obsv.Metrics.snapshot () in

  let st = store_chaos ~seed in
  let kill9_ok =
    st.tmp_swept && st.lock_swept && st.janitor_restart >= 2 && st.digest_match_recompile
  in
  Printf.printf
    "kill9:   janitor swept %d (tmp %b, stale lock %b), healed plan identical %b -> %s\n%!"
    st.janitor_restart st.tmp_swept st.lock_swept st.digest_match_recompile
    (if kill9_ok then "ok" else "FAIL");
  let corrupt_ok =
    st.quarantined = 1 && st.bad_exists && st.digest_match_recompile && st.digest_match_hit
    && st.clean_disk_hit
  in
  Printf.printf
    "corrupt: quarantined %d (.bad %b), recompiled identical %b, healed disk hit %b -> %s\n%!"
    st.quarantined st.bad_exists st.digest_match_recompile st.clean_disk_hit
    (if corrupt_ok then "ok" else "FAIL");

  let w = wedged_chaos () in
  let wedged_ok =
    w.fail_bounded && w.deadline_named && w.opened && w.reject_instant
    && (not w.gcc_available || w.recovered)
  in
  Printf.printf
    "wedged:  first fail %.0f ms (bound %d ms) %b, breaker opened %b, open reject %.1f ms, \
     recovered %b (gcc %b), final %s -> %s\n%!"
    w.first_fail_ms (2 * w.timeout_ms) w.fail_bounded w.opened w.reject_ms w.recovered
    w.gcc_available w.final_state
    (if wedged_ok then "ok" else "FAIL");

  let f = flood_chaos ~victim_reqs ~window in
  let flood_ok =
    f.p99_ok && f.lost = 0 && f.victim_overloads = 0 && f.flood_overloads > 0 && f.health_ok
    && f.stats.Server.dropped = 0
  in
  Printf.printf
    "flood:   victim p99 %.0f us unloaded -> %.0f us loaded (bound %.0f us) %b, throttled %d, \
     lost %d, health %b -> %s\n%!"
    f.p99_unloaded_us f.p99_loaded_us f.p99_bound_us f.p99_ok f.flood_overloads f.lost f.health_ok
    (if flood_ok then "ok" else "FAIL");

  (* the ledger against client-side ground truth *)
  let victim_total = (2 * f.victim_reqs) + 1 (* warm-up *) in
  let reconciled =
    f.stats.Server.throttled = f.flood_overloads + f.victim_overloads
    && Obsv.Metrics.since since Jit.Stats.timeouts = 2
    && f.stats.Server.responses = victim_total + f.flood_reqs + 2 (* health + shutdown *)
    && f.stats.Server.requests = victim_total + (f.flood_reqs - f.flood_overloads) + 1
    && f.stats.Server.error_responses = f.flood_overloads
    && f.stats.Server.health_probes = 1
    && f.stats.Server.dropped = 0
    && f.stats.Server.inflight_final = 0
  in
  Printf.printf "counters reconcile (ground truth = ledger): %s\n%!"
    (if reconciled then "ok" else "MISMATCH");

  let h = hol_chaos ~n:hol_n in
  (* an exec of at least 200 ms, at least ten probes in it, and their
     p99 within a tenth of it: a probe queued behind the exec waits
     for most of it *)
  let hol_ok =
    h.exec_ok && h.answers_ok && h.exec_ms >= 200. && h.probes >= 10
    && Float.max h.health_p99_us h.compile_p99_us <= h.p99_bound_us
  in
  Printf.printf
    "hol:     exec %.0f ms; %d probes during it: health p50/p99 %.0f/%.0f us, compile p50/p99 \
     %.0f/%.0f us (bound %.0f us), %d answered mid-exec -> %s\n%!"
    h.exec_ms h.probes h.health_p50_us h.health_p99_us h.compile_p50_us h.compile_p99_us
    h.p99_bound_us h.pumped
    (if hol_ok then "ok" else "FAIL");
  let chaos_ok = kill9_ok && corrupt_ok && wedged_ok && flood_ok && reconciled && hol_ok in
  Printf.printf "chaos: %s\n%!" (if chaos_ok then "ALL GATES PASS" else "GATE FAILURES");

  Emit.write ~path:"BENCH_chaos.json" ~artifact:"micro-chaos"
    [ ("seed", Emit.Int seed);
      ( "kill9",
        Emit.Obj
          [ ("janitor_removed_on_restart", Emit.Int st.janitor_restart);
            ("orphan_tmp_swept", Emit.Bool st.tmp_swept);
            ("stale_lock_swept", Emit.Bool st.lock_swept);
            ("healed_plan_identical", Emit.Bool st.digest_match_recompile)
          ] );
      ( "corrupt_store",
        Emit.Obj
          [ ("quarantined", Emit.Int st.quarantined);
            ("bad_file_present", Emit.Bool st.bad_exists);
            ("recompiled_identical", Emit.Bool st.digest_match_recompile);
            ("healed_disk_hit", Emit.Bool st.clean_disk_hit)
          ] );
      ( "wedged_cc",
        Emit.Obj
          [ ("timeout_ms", Emit.Int w.timeout_ms);
            ("first_fail_ms", Emit.F (w.first_fail_ms, 1));
            ("fail_bound_ms", Emit.Int (2 * w.timeout_ms));
            ("deadline_named_in_error", Emit.Bool w.deadline_named);
            ("breaker_opened", Emit.Bool w.opened);
            ("open_reject_ms", Emit.F (w.reject_ms, 2));
            ("gcc_available", Emit.Bool w.gcc_available);
            ("recovered", Emit.Bool w.recovered);
            ("final_state", Emit.Str w.final_state);
            ("opens", Emit.Int w.opens);
            ("rejections", Emit.Int w.rejections);
            ("probes", Emit.Int w.probes)
          ] );
      ( "flood",
        Emit.Obj
          [ ("victim_requests_per_phase", Emit.Int f.victim_reqs);
            ("flood_requests", Emit.Int f.flood_reqs);
            ("rate_limit_rps", Emit.F (f.rate_limit, 0));
            ("p99_unloaded_us", Emit.F (f.p99_unloaded_us, 0));
            ("p99_loaded_us", Emit.F (f.p99_loaded_us, 0));
            ("p99_bound_us", Emit.F (f.p99_bound_us, 0));
            ("victim_overloads", Emit.Int f.victim_overloads);
            ("flood_overloads", Emit.Int f.flood_overloads);
            ("throttled", Emit.Int f.stats.Server.throttled);
            ("lost_responses", Emit.Int f.lost);
            ("health_responsive", Emit.Bool f.health_ok);
            ("dropped", Emit.Int f.stats.Server.dropped)
          ] );
      ( "head_of_line",
        Emit.Obj
          [ ("exec_n", Emit.Int hol_n);
            ("exec_ms", Emit.F (h.exec_ms, 1));
            ("probes_during_exec", Emit.Int h.probes);
            ("health_p50_us", Emit.F (h.health_p50_us, 0));
            ("health_p99_us", Emit.F (h.health_p99_us, 0));
            ("compile_p50_us", Emit.F (h.compile_p50_us, 0));
            ("compile_p99_us", Emit.F (h.compile_p99_us, 0));
            ("p99_bound_us", Emit.F (h.p99_bound_us, 0));
            ("answers_correct", Emit.Bool h.answers_ok);
            ("pumped", Emit.Int h.pumped)
          ] );
      ( "gates",
        Emit.Obj
          [ ("kill9_selfheal_ok", Emit.Bool kill9_ok);
            ("corrupt_quarantine_ok", Emit.Bool corrupt_ok);
            ("wedged_cc_ok", Emit.Bool wedged_ok);
            ("flood_ok", Emit.Bool flood_ok);
            ("counters_reconciled", Emit.Bool reconciled);
            ("head_of_line_ok", Emit.Bool hol_ok)
          ] );
      ("chaos_ok", Emit.Bool chaos_ok)
    ]
