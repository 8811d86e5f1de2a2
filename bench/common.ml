(* Helpers shared by the bench modules: the size knobs, the section
   header, the interleaved best-of-rounds timer and the Unix-socket
   client the serve and chaos benches drive a live server with. *)

(* positive integer from the environment, for CI to shrink the bench
   sizes without patching the source. A set but malformed or
   non-positive value is an error, never a silent full-size run. *)
let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v > 0 -> v
    | _ ->
      Printf.eprintf "%s=%S: expected a positive integer\n" name s;
      exit 2)

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

(* best of [reps] wall-clock runs of [f], in ns per iteration of the
   [iters] iterations one run covers *)
let best_ns_per_iter ~reps ~iters f =
  let s = Ompsim.Calibrate.time_best ~reps f in
  s *. 1e9 /. float_of_int iters

(* interleave the contenders within every round so CPU frequency drift
   between measurements biases none of them; keep each contender's
   minimum in ms, as time_best would. One untimed call of each warms
   the pool, caches and page tables first. *)
let best_of_rounds ~rounds runners =
  let best = Array.make (Array.length runners) infinity in
  Array.iter (fun f -> f ()) runners;
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        f ();
        best.(i) <- Float.min best.(i) ((Unix.gettimeofday () -. t0) *. 1e3))
      runners
  done;
  best

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i j = j = nl || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec find i = i + nl <= hl && (at i 0 || find (i + 1)) in
  find 0

(* nearest-rank percentile of an ascending array *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* ---------------- Unix-socket client ---------------- *)

(* a per-process path under the temp dir, for scratch stores and
   sockets *)
let temp_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ompsim-%s-%d" tag (Unix.getpid ()))

let socket_path tag =
  let path = temp_path tag ^ ".sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

(* block until a server started in another domain has bound [socket] *)
let wait_ready socket =
  let rec go tries =
    if not (Sys.file_exists socket) then
      if tries = 0 then failwith ("server socket never appeared: " ^ socket)
      else begin
        Unix.sleepf 0.01;
        go (tries - 1)
      end
  in
  go 500

let connect socket =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
  in
  go 500

let send_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* incremental line reader with an explicit scan position, so a
   batch of pipelined responses is split without re-copying *)
let make_reader fd =
  let buf = Buffer.create 4096 in
  let pos = ref 0 in
  let chunk = Bytes.create 4096 in
  fun () ->
    let rec next () =
      let s = Buffer.contents buf in
      match String.index_from_opt s !pos '\n' with
      | Some i ->
        let line = String.sub s !pos (i - !pos) in
        pos := i + 1;
        if !pos = String.length s then begin
          Buffer.clear buf;
          pos := 0
        end;
        line
      | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "bench client: unexpected EOF"
        | r ->
          Buffer.add_subbytes buf chunk 0 r;
          next ())
    in
    next ()
