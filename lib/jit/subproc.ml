type outcome = Exited of int | Signaled of int | Timed_out

type capture = {
  outcome : outcome;
  stdout : string;
  stderr : string;
  elapsed_ms : float;
}

(* the C stub posix_spawns the child as a session leader with fds 1/2
   dup'd from the two pipe write ends; returns the pid, or a negated
   errno when the spawn itself failed *)
external spawn :
  string -> string array -> Unix.file_descr -> Unix.file_descr -> int
  = "ompsim_subproc_spawn"

let now_ms () = Unix.gettimeofday () *. 1000.

(* the longest the supervisor waits between two looks at the child *)
let max_wait_s = 0.05

let default_timeout_ms () =
  match Sys.getenv_opt "OMPSIM_JIT_TIMEOUT_MS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> 30000)
  | None -> 30000

(* one captured stream: bytes kept up to [cap], drained forever (a
   child blocked on a full pipe would dodge its own deadline) *)
type stream = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  cap : int;
  mutable eof : bool;
}

let read_stream chunk s =
  match Unix.read s.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
    s.eof <- true;
    Unix.close s.fd
  | n ->
    let keep = min n (max 0 (s.cap - Buffer.length s.buf)) in
    if keep > 0 then Buffer.add_subbytes s.buf chunk 0 keep
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) ->
    s.eof <- true;
    (try Unix.close s.fd with Unix.Unix_error _ -> ())

let run ?timeout_ms ?cpu_s ?(stdout_cap = 2048) ?(stderr_cap = 2048) prog args =
  let timeout_ms =
    match timeout_ms with Some t -> max 1 t | None -> default_timeout_ms ()
  in
  let prog, args =
    match cpu_s with
    | None -> (prog, args)
    | Some n ->
      (* ulimit -t is inherited across exec, so the cap also covers
         compiler children that outlive a killed driver *)
      ( "/bin/sh",
        [ "-c"; Printf.sprintf "ulimit -t %d 2>/dev/null; exec \"$@\"" (max 1 n); "sh"; prog ]
        @ args )
  in
  let argv = Array.of_list (prog :: args) in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let start = now_ms () in
  let finish outcome stdout stderr =
    { outcome; stdout; stderr; elapsed_ms = now_ms () -. start }
  in
  let pid = spawn prog argv out_w err_w in
  Unix.close out_w;
  Unix.close err_w;
  if pid <= 0 then begin
    Unix.close out_r;
    Unix.close err_r;
    finish (Exited 127) "" (Printf.sprintf "spawn %s failed (errno %d)" prog (-pid))
  end
  else begin
    let streams =
      [ { fd = out_r; buf = Buffer.create 256; cap = stdout_cap; eof = false };
        { fd = err_r; buf = Buffer.create 256; cap = stderr_cap; eof = false } ]
    in
    let chunk = Bytes.create 4096 in
    let deadline = start +. float_of_int timeout_ms in
    let status = ref None in
    let timed_out = ref false in
    let live () = List.filter (fun s -> not s.eof) streams in
    let pump_ready fds ready =
      List.iter (fun s -> if List.mem s.fd ready then read_stream chunk s) fds
    in
    let reap_kill () =
      (* the child is a session leader: -pid reaches the whole group
         (cc1, as, ...); the direct kill is the fallback when setsid
         was unavailable at spawn *)
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      match Unix.waitpid [] pid with
      | _, st -> status := Some st
      | exception Unix.Unix_error _ -> ()
    in
    (* reap the child or meet the deadline. While a pipe is live,
       select on the pipes: output and EOF wake it at once. Once both
       have closed, the child is exiting (or hangs with its pipes
       closed): poll waitpid with an exponential back-off from 0.1 ms
       up to 50 ms, so a prompt exit is reaped within a fraction of a
       millisecond instead of one full 50 ms select tick, and a child
       that hangs still meets the deadline and its group kill *)
    let rec pump backoff_s =
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, st -> status := Some st
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> status := Some (Unix.WEXITED 127));
      if !status = None then begin
        let remaining = deadline -. now_ms () in
        if remaining <= 0. then begin
          timed_out := true;
          reap_kill ()
        end
        else begin
          let remaining_s = remaining /. 1000. in
          match live () with
          | [] ->
            Unix.sleepf (Float.min remaining_s backoff_s);
            pump (Float.min (2. *. backoff_s) max_wait_s)
          | fds ->
            (match
               Unix.select (List.map (fun s -> s.fd) fds) [] [] (Float.min remaining_s max_wait_s)
             with
            | ready, _, _ -> pump_ready fds ready
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            pump backoff_s
        end
      end
    in
    pump 0.0001;
    (* the child is gone; pick up whatever the pipes still buffer.
       Zero-timeout selects so grandchildren holding the write ends
       (possible after a group kill) cannot wedge us here *)
    let rec drain () =
      match live () with
      | [] -> ()
      | fds -> (
        match Unix.select (List.map (fun s -> s.fd) fds) [] [] 0. with
        | [], _, _ -> ()
        | ready, _, _ ->
          pump_ready fds ready;
          drain ()
        | exception Unix.Unix_error _ -> ())
    in
    drain ();
    List.iter
      (fun s -> if not s.eof then try Unix.close s.fd with Unix.Unix_error _ -> ())
      streams;
    let outcome =
      if !timed_out then Timed_out
      else
        match !status with
        | Some (Unix.WEXITED n) -> Exited n
        | Some (Unix.WSIGNALED n) | Some (Unix.WSTOPPED n) -> Signaled n
        | None -> Exited 127
    in
    match streams with
    | [ out; err ] -> finish outcome (Buffer.contents out.buf) (Buffer.contents err.buf)
    | _ -> assert false
  end

let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigxcpu then "SIGXCPU"
  else if n = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" n

let describe c =
  match c.outcome with
  | Exited n -> Printf.sprintf "exited %d" n
  | Signaled n -> Printf.sprintf "killed by %s" (signal_name n)
  | Timed_out -> Printf.sprintf "timed out after %.0fms" c.elapsed_ms
