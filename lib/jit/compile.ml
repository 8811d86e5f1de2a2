let so_name fingerprint = Printf.sprintf "%s.%s.so" fingerprint (Abi.salt ())

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

(* stderr excerpt carried in structured failures: capped by the runner
   at ~2KB, trimmed, newlines folded so the excerpt stays one logical
   token in error strings and JSON error responses *)
let stderr_excerpt s =
  let s = String.trim s in
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let has_prefix prefix e =
  String.length e >= String.length prefix && String.sub e 0 (String.length prefix) = prefix

let breaker_prefix = "breaker:"
let is_breaker_rejection e = has_prefix breaker_prefix e

let plan_prefix = "plan:"
let is_plan_error e = has_prefix plan_prefix e

(* gcc -O2 -shared -fPIC into a private temp object, then rename into
   place: concurrent readers see the old object or the new one, never
   a torn write — the same atomic-publish discipline as the plan
   store. The compile runs supervised: OMPSIM_JIT_TIMEOUT_MS bounds
   the wall clock (SIGKILL of the whole compiler process group on
   expiry), a doubled rusage cap bounds CPU spinning, and the first
   ~2KB of stderr ride along in the failure instead of a discarded
   log file. Loops are 32-byte aligned: a walker's innermost run loop
   is four instructions, and where default placement let it straddle a
   32-byte fetch boundary it ran ~1.7x slower (utma's walk_hash at
   n=1500: 0.9 vs 1.6 ms on a Xeon). *)
let compile_so ~src_path ~out_path =
  let cc = Abi.cc () in
  let timeout_ms = Subproc.default_timeout_ms () in
  let r =
    Subproc.run ~timeout_ms
      ~cpu_s:(2 * ((timeout_ms + 999) / 1000))
      cc
      [ "-O2"; "-falign-loops=32"; "-shared"; "-fPIC"; "-o"; out_path; src_path ]
  in
  match r.Subproc.outcome with
  | Subproc.Exited 0 -> Ok ()
  | Subproc.Timed_out ->
    Obsv.Metrics.incr_here Stats.timeouts;
    Error (Printf.sprintf "%s %s (OMPSIM_JIT_TIMEOUT_MS=%d)" cc (Subproc.describe r) timeout_ms)
  | _ ->
    let diagnostics = stderr_excerpt r.Subproc.stderr in
    Error
      (Printf.sprintf "%s %s%s" cc (Subproc.describe r)
         (if diagnostics = "" then "" else ": " ^ diagnostics))

let fresh_compile ~dir ~fingerprint ~src =
  Obsv.Trace.with_span "jit.compile" @@ fun () ->
  try
    mkdir_p dir;
    let pid = Unix.getpid () in
    let src_path = Filename.concat dir (Printf.sprintf ".%s.%d.c" fingerprint pid) in
    let tmp_so = Filename.concat dir (Printf.sprintf ".%s.%d.so" fingerprint pid) in
    write_file src_path src;
    let result = compile_so ~src_path ~out_path:tmp_so in
    (try Sys.remove src_path with Sys_error _ -> ());
    match result with
    | Error _ as e ->
      (try Sys.remove tmp_so with Sys_error _ -> ());
      e
    | Ok () ->
      let path = Filename.concat dir (so_name fingerprint) in
      Unix.rename tmp_so path;
      Obsv.Metrics.incr_here Stats.compiles;
      Ok path
  with Sys_error e | Unix.Unix_error (_, _, e) -> Error ("jit compile: " ^ e)

(* toolchain outcomes feed the breaker; emit errors do not — they are
   plan-shaped, and tripping the breaker on one odd nest would reject
   compiles of healthy plans. [specialize] runs emission BEFORE the
   breaker is consulted, so by the time this runs the source is in
   hand and every outcome below is a toolchain verdict: a plan error
   can neither trip the breaker nor consume (and leak) the half-open
   probe slot the acquire handed out. *)
let run_gated ?breaker ~dir ~fingerprint ~src () =
  let note ok =
    match breaker with
    | None -> ()
    | Some b -> if ok then Breaker.success b else Breaker.failure b
  in
  if not (Abi.available ()) then begin
    note false;
    Error (Printf.sprintf "C compiler %S unavailable" (Abi.cc ()))
  end
  else begin
    match fresh_compile ~dir ~fingerprint ~src with
    | Error _ as e ->
      note false;
      e
    | Ok path -> (
      match Native.load ~path ~fingerprint with
      | Ok _ as ok ->
        note true;
        ok
      | Error _ as e ->
        (* the toolchain produced an unloadable object: that is a
           toolchain failure, not a plan failure *)
        note false;
        e)
  end

let specialize ?dir ?breaker ~fingerprint inv =
  let dir =
    match dir with
    | Some d -> d
    | None -> Filename.concat (Filename.get_temp_dir_name ()) "ompsim-jit"
  in
  let path = Filename.concat dir (so_name fingerprint) in
  let warm =
    if Sys.file_exists path then begin
      (* corrupt, stale or foreign objects are silent misses: fall
         through to a fresh compile that overwrites the bad entry *)
      match Native.load ~path ~fingerprint with
      | Ok h ->
        Obsv.Metrics.incr_here Stats.loads;
        Some h
      | Error _ -> None
    end
    else None
  in
  match warm with
  | Some h -> Ok h
  | None -> (
    (* emission is pure plan work: it runs before the breaker so a
       plan-shaped failure never consumes an acquire — in particular
       it can never take the single half-open probe slot and return
       without settling it, which would wedge the breaker half-open
       (and the native tier off) for the rest of the process *)
    match Emit.source inv ~fingerprint with
    | Error e -> Error (Printf.sprintf "%s %s" plan_prefix e)
    | Ok src -> (
      match breaker with
      | Some b when not (Breaker.acquire b) ->
        Error
          (Printf.sprintf "%s compile circuit %s after %d consecutive failures" breaker_prefix
             (Breaker.state_name (Breaker.state b))
             (Breaker.failures b))
      | _ -> run_gated ?breaker ~dir ~fingerprint ~src ()))
