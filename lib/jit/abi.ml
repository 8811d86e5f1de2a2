(* The .so contract is keyed by (abi_version, compiler identity): bump
   [version] whenever the exported symbols or their semantics change,
   and let a compiler upgrade invalidate cached objects through the
   salt instead of serving binaries built by a different gcc. *)
let version = 7

let cc () =
  match Sys.getenv_opt "OMPSIM_JIT_CC" with
  | Some c when c <> "" -> c
  | _ -> "gcc"

(* first line of `cc --version`, or None when the compiler cannot be
   run at all (missing binary, OMPSIM_JIT_CC pointing nowhere). The
   probe runs supervised: a wedged compiler script must cost one
   bounded deadline here, not an open_process hang *)
let probe_cc_version c =
  let timeout_ms = min (Subproc.default_timeout_ms ()) 5000 in
  let r = Subproc.run ~timeout_ms ~cpu_s:((timeout_ms + 999) / 1000) c [ "--version" ] in
  match r.Subproc.outcome with
  | Subproc.Exited 0 -> (
    match String.index_opt r.Subproc.stdout '\n' with
    | Some i when i > 0 -> Some (String.sub r.Subproc.stdout 0 i)
    | Some _ | None -> if r.Subproc.stdout = "" then None else Some r.Subproc.stdout)
  | _ -> None

(* memoized per compiler path: the identity of one binary cannot
   change under a running process (re-forking gcc per cache lookup
   would defeat the tier), but OMPSIM_JIT_CC itself can be repointed
   mid-process — tests and the chaos harness rely on that *)
let probe_memo : (string, string option) Hashtbl.t = Hashtbl.create 4
let probe_mutex = Mutex.create ()

let cc_version () =
  let c = cc () in
  Mutex.lock probe_mutex;
  match Hashtbl.find_opt probe_memo c with
  | Some v ->
    Mutex.unlock probe_mutex;
    v
  | None ->
    (* probe outside the lock would stampede; inside is fine — the
       probe is bounded and rare (once per distinct cc path) *)
    let v = try probe_cc_version c with _ -> None in
    Hashtbl.replace probe_memo c v;
    Mutex.unlock probe_mutex;
    v

let available () = cc_version () <> None

(* a compiler that answers --version can still be unable to produce a
   shared object (wedged wrapper script, broken install, read-only
   temp): compile one trivial .so under the supervised deadline.
   Memoized per compiler path like the version probe. *)
let probe_functional c =
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf ".ompsim-abi-probe.%d" (Unix.getpid ()))
  in
  let src = base ^ ".c" and out = base ^ ".so" in
  let cleanup () =
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ src; out ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let oc = open_out src in
      output_string oc "int ompsim_abi_probe(void) { return 0; }\n";
      close_out oc;
      let timeout_ms = min (Subproc.default_timeout_ms ()) 10000 in
      let r =
        Subproc.run ~timeout_ms
          ~cpu_s:((timeout_ms + 999) / 1000)
          c
          [ "-O0"; "-shared"; "-fPIC"; "-o"; out; src ]
      in
      match r.Subproc.outcome with Subproc.Exited 0 -> Sys.file_exists out | _ -> false)

let functional_memo : (string, bool) Hashtbl.t = Hashtbl.create 4

let functional () =
  available ()
  &&
  let c = cc () in
  Mutex.lock probe_mutex;
  match Hashtbl.find_opt functional_memo c with
  | Some v ->
    Mutex.unlock probe_mutex;
    v
  | None ->
    let v = try probe_functional c with _ -> false in
    Hashtbl.replace functional_memo c v;
    Mutex.unlock probe_mutex;
    v

let salt () =
  let id = match cc_version () with Some v -> v | None -> "no-compiler" in
  let digest = Digest.to_hex (Digest.string (Printf.sprintf "abi%d|%s" version id)) in
  String.sub digest 0 12
