(* The non-blocking serve loop (ISSUE 7): framing-layer properties
   (re-chunking invariance, CRLF/empty/overflow cases), then e2e
   concurrency over a real Unix domain socket — multiplexed clients
   get byte-identical responses to the serial [Server.handle], a
   pipelining client is answered in order under a tiny admission cap,
   a slow reader cannot stall the loop, graceful drain flushes every
   in-flight response before the socket disappears, a connect burst
   beyond the old hardcoded backlog is served, and the serve_stats
   record reconciles against the obsv counters. *)

module Cache = Service.Cache
module Server = Service.Server
module Framing = Service.Framing

let rand = Random.State.make [| 0x5e47e100 |]
let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~rand) tests

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------------------------------------------------------- *)
(* Framing: properties                                               *)
(* ---------------------------------------------------------------- *)

(* drain the framer, stopping at the first [`Overflow] (it is sticky) *)
let pops framer =
  let rec go acc =
    match Framing.pop framer with
    | `Pending -> List.rev acc
    | `Overflow -> List.rev (`O :: acc)
    | `Line l -> go (`L l :: acc)
  in
  go []

let show_pops ps =
  String.concat ";"
    (List.map (function `O -> "<overflow>" | `L l -> Printf.sprintf "%S" l) ps)

let feed_chunks framer stream sizes =
  let n = String.length stream in
  let rec go off sizes =
    if off < n then
      match sizes with
      | [] -> Framing.feed_string framer (String.sub stream off (n - off))
      | s :: rest ->
        let len = min s (n - off) in
        Framing.feed_string framer (String.sub stream off len);
        go (off + len) rest
  in
  go 0 sizes

let gen_line_content =
  (* printable bytes: no '\n' and no '\r', so "split on terminators"
     is unambiguous as the reference model *)
  QCheck.Gen.(
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 0 40) (map Char.chr (int_range 32 126))))

let gen_chunk_sizes = QCheck.Gen.(list_size (int_range 0 60) (int_range 1 7))

let prop_frame_rechunk_equals_split =
  (* random re-chunking at arbitrary byte boundaries = the line list
     the stream was built from, CRLF or LF per line *)
  let arb =
    QCheck.make
      ~print:(fun (lines, sizes) ->
        Printf.sprintf "lines=[%s] sizes=[%s]"
          (String.concat ";" (List.map (Printf.sprintf "%S") (List.map fst lines)))
          (String.concat ";" (List.map string_of_int sizes)))
      QCheck.Gen.(pair (list_size (int_range 0 12) (pair gen_line_content bool)) gen_chunk_sizes)
  in
  QCheck.Test.make ~name:"framing: any re-chunking yields the stream's lines" ~count:500 arb
    (fun (lines, sizes) ->
      let stream =
        String.concat "" (List.map (fun (l, crlf) -> l ^ if crlf then "\r\n" else "\n") lines)
      in
      let framer = Framing.create () in
      feed_chunks framer stream sizes;
      let got = pops framer in
      let want = List.map (fun (l, _) -> `L l) lines in
      if got <> want then
        QCheck.Test.fail_reportf "got %s, want %s" (show_pops got) (show_pops want)
      else true)

let prop_frame_chunking_invariant =
  (* metamorphic: over arbitrary bytes (terminators and CRs anywhere,
     overflows included via a small max_line), every chunking of the
     same stream pops the same sequence as feeding it whole *)
  let gen_byte =
    QCheck.Gen.(
      frequency [ (6, map Char.chr (int_range 32 126)); (2, return '\n'); (1, return '\r') ])
  in
  let arb =
    QCheck.make
      ~print:(fun (s, sizes) ->
        Printf.sprintf "stream=%S sizes=[%s]" s
          (String.concat ";" (List.map string_of_int sizes)))
      QCheck.Gen.(
        pair
          (map
             (fun l -> String.concat "" (List.map (String.make 1) l))
             (list_size (int_range 0 80) gen_byte))
          gen_chunk_sizes)
  in
  QCheck.Test.make ~name:"framing: chunking never changes the pop sequence" ~count:500 arb
    (fun (stream, sizes) ->
      let whole = Framing.create ~max_line:10 () in
      Framing.feed_string whole stream;
      let chunked = Framing.create ~max_line:10 () in
      feed_chunks chunked stream sizes;
      let a = pops whole and b = pops chunked in
      if a <> b then QCheck.Test.fail_reportf "whole %s, chunked %s" (show_pops a) (show_pops b)
      else true)

(* ---------------------------------------------------------------- *)
(* Framing: pinned cases                                             *)
(* ---------------------------------------------------------------- *)

let test_frame_crlf_and_empty () =
  let f = Framing.create () in
  Framing.feed_string f "a\r\n\n\r\nb\r\rc\n";
  Alcotest.(check (list string))
    "CRLF strips one CR, empty lines are real, inner CRs survive"
    [ "a"; ""; ""; "b\r\rc" ]
    (List.map (function `L l -> l | `O -> "<overflow>") (pops f))

let test_frame_partial_then_rest () =
  let f = Framing.create () in
  Framing.feed_string f "hel";
  Alcotest.(check int) "partial line buffered" 3 (Framing.buffered f);
  (match Framing.pop f with
  | `Pending -> ()
  | _ -> Alcotest.fail "partial line must not pop");
  Framing.feed_string f "lo\nwo";
  (match Framing.pop f with
  | `Line l -> Alcotest.(check string) "joined across feeds" "hello" l
  | _ -> Alcotest.fail "expected a line");
  Alcotest.(check int) "next partial buffered" 2 (Framing.buffered f)

let test_frame_overflow_terminal () =
  let f = Framing.create ~max_line:4 () in
  Framing.feed_string f "ok\nabcdef\nignored\nrest";
  (match pops f with
  | [ `L "ok"; `O ] -> ()
  | ps -> Alcotest.failf "expected ok then overflow, got %s" (show_pops ps));
  (* sticky: later feeds are discarded and pop stays Overflow *)
  Framing.feed_string f "more\n";
  (match Framing.pop f with
  | `Overflow -> ()
  | _ -> Alcotest.fail "overflow must be terminal");
  Alcotest.(check bool) "overflowed" true (Framing.overflowed f);
  Alcotest.(check int) "no bytes retained" 0 (Framing.buffered f)

let test_frame_overflow_without_terminator () =
  (* an unterminated line one byte past max_line+CR overflows without
     waiting for '\n', so memory stays bounded *)
  let f = Framing.create ~max_line:4 () in
  Framing.feed_string f "abcd\r";
  Alcotest.(check bool) "max_line + CR still pending" false (Framing.overflowed f);
  Framing.feed_string f "x";
  Alcotest.(check bool) "one more byte overflows" true (Framing.overflowed f);
  (* boundary: content of exactly max_line with CRLF is a legal line *)
  let g = Framing.create ~max_line:4 () in
  Framing.feed_string g "abcd\r\n";
  match Framing.pop g with
  | `Line l -> Alcotest.(check string) "max_line content survives CRLF" "abcd" l
  | _ -> Alcotest.fail "expected a line"

(* ---------------------------------------------------------------- *)
(* e2e helpers                                                       *)
(* ---------------------------------------------------------------- *)

let connect ?(tries = 250) socket =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go (tries - 1)
    | exception e ->
      Unix.close fd;
      raise e
  in
  go tries

let send_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* read exactly [n] response lines (the protocol says one per request,
   so anything beyond them would be a framing bug on the server side) *)
let recv_lines fd n =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let newlines = ref 0 in
  while !newlines < n do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith (Printf.sprintf "eof after %d of %d lines: %s" !newlines n (Buffer.contents buf))
    | r ->
      for i = 0 to r - 1 do
        if Bytes.get chunk i = '\n' then incr newlines
      done;
      Buffer.add_subbytes buf chunk 0 r
  done;
  let parts = String.split_on_char '\n' (Buffer.contents buf) in
  List.filteri (fun i _ -> i < n) parts

let recv_eof fd =
  let chunk = Bytes.create 64 in
  let rec go () =
    match Unix.read fd chunk 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ()

let sock_counter = ref 0

(* run [f socket] against a live server and return its value together
   with the serve_stats the loop reported; [f] must make the server
   exit (shutdown request or signal) before returning its last word *)
let with_server ?(config = Server.default_serve_config) ?cache f =
  incr sock_counter;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ompsim-serve-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let cache = match cache with Some c -> c | None -> Cache.create ~capacity:64 ~dir:None () in
  let server = Domain.spawn (fun () -> Server.serve ~cache ~config ~socket ()) in
  let rec wait_ready tries =
    if not (Sys.file_exists socket) then
      if tries = 0 then Alcotest.fail "server socket never appeared"
      else begin
        Unix.sleepf 0.01;
        wait_ready (tries - 1)
      end
  in
  wait_ready 500;
  let value =
    try f socket
    with e ->
      (* don't leave the loop running on a failing test *)
      (try
         let fd = connect ~tries:1 socket in
         send_all fd "shutdown\n";
         Unix.close fd
       with _ -> ());
      ignore (Domain.join server);
      raise e
  in
  match Domain.join server with
  | Ok stats -> (value, stats)
  | Error e -> Alcotest.failf "serve failed: %s" e

(* expected responses come from the serial [handle] on a private cache:
   responses are deterministic and cache-state-independent, so the
   multiplexed server must reproduce them byte for byte *)
let expected_line line =
  match Server.parse_request line with
  | Ok (Some req) ->
    let cache = Cache.create ~capacity:16 ~dir:None () in
    fst (Server.handle cache req)
  | Ok None -> Alcotest.failf "no response for blank line %S" line
  | Error e -> Alcotest.failf "unparseable request %S: %s" line e

let client_requests c =
  [ Printf.sprintf "compile params=N levels=i=0..N,j=i..N+%d label=c%d" c c;
    Printf.sprintf "exec params=N=8 levels=i=0..N,j=i..N+%d label=x%d threads=2 repeat=2" c c;
    Printf.sprintf "exec kernel=utma n=10 threads=2 label=k%d" c ]

let check_responses what reqs got =
  List.iter2
    (fun req line -> Alcotest.(check string) (what ^ ": " ^ req) (expected_line req) line)
    reqs got

(* ---------------------------------------------------------------- *)
(* e2e: multiplexed clients vs the serial server                     *)
(* ---------------------------------------------------------------- *)

let test_serve_multi_client_byte_identical () =
  let nclients = 4 in
  let (results, _), stats =
    with_server @@ fun socket ->
    let run c () =
      let fd = connect socket in
      let got =
        List.map
          (fun req ->
            send_all fd (req ^ "\n");
            List.hd (recv_lines fd 1))
          (client_requests c)
      in
      Unix.close fd;
      got
    in
    let domains = List.init nclients (fun c -> Domain.spawn (run c)) in
    let results = List.map Domain.join domains in
    let fd = connect socket in
    send_all fd "shutdown\n";
    let ack = List.hd (recv_lines fd 1) in
    Unix.close fd;
    (results, ack)
  in
  List.iteri (fun c got -> check_responses (Printf.sprintf "client %d" c) (client_requests c) got) results;
  Alcotest.(check int) "connections" (nclients + 1) stats.Server.connections;
  Alcotest.(check int) "requests" ((nclients * 3) + 1) stats.Server.requests;
  Alcotest.(check int) "error responses" 0 stats.Server.error_responses;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped;
  (match stats.Server.stopped_by with
  | `Shutdown -> ()
  | `Signal -> Alcotest.fail "expected shutdown stop")

let test_serve_pipelined_in_order () =
  (* all requests in one write, under an admission cap smaller than
     the batch: the loop must park framed lines at the cap and still
     answer strictly in order *)
  let reqs =
    List.concat_map client_requests [ 0; 1 ] @ [ "exec params=N=5 levels=i=0..N,j=i..N label=z" ]
  in
  let config = { Server.default_serve_config with max_inflight = 2 } in
  let got, stats =
    with_server ~config @@ fun socket ->
    let fd = connect socket in
    send_all fd (String.concat "\n" reqs ^ "\nshutdown\n");
    let lines = recv_lines fd (List.length reqs + 1) in
    Unix.close fd;
    lines
  in
  let ack = List.nth got (List.length reqs) in
  check_responses "pipelined" reqs (List.filteri (fun i _ -> i < List.length reqs) got);
  if not (contains ~needle:"\"op\":\"shutdown\",\"status\":\"ok\"" ack) then
    Alcotest.failf "bad shutdown ack: %s" ack;
  Alcotest.(check int) "requests admitted" (List.length reqs + 1) stats.Server.requests

let test_serve_slow_reader_no_stall () =
  let slow_reqs = List.init 12 (fun i -> Printf.sprintf "exec kernel=utma n=%d threads=2 label=s%d" (6 + i) i) in
  let (slow_got, fast_got), stats =
    with_server @@ fun socket ->
    (* the slow reader floods requests and reads nothing... *)
    let slow = connect socket in
    send_all slow (String.concat "\n" slow_reqs ^ "\n");
    (* ...while a well-behaved client does sequential round trips;
       SO_RCVTIMEO turns a stalled loop into a test failure *)
    let fast = connect socket in
    let fast_got =
      List.map
        (fun req ->
          send_all fast (req ^ "\n");
          List.hd (recv_lines fast 1))
        (client_requests 3)
    in
    Unix.close fast;
    (* the slow reader's responses were never lost, only buffered *)
    let slow_got = recv_lines slow (List.length slow_reqs) in
    Unix.close slow;
    let fd = connect socket in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd;
    (slow_got, fast_got)
  in
  check_responses "fast client" (client_requests 3) fast_got;
  check_responses "slow client" slow_reqs slow_got;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

(* ---------------------------------------------------------------- *)
(* e2e: drain                                                        *)
(* ---------------------------------------------------------------- *)

let test_serve_drain_under_load () =
  (* [shutdown] arrives pipelined behind five requests, with another
     client sitting idle: every earlier response must be flushed
     before the socket disappears, and the idle peer gets EOF *)
  let reqs = List.init 5 (fun i -> Printf.sprintf "exec kernel=utma n=%d threads=2 label=d%d" (5 + i) i) in
  let (got, ack, idle_eof), stats =
    with_server @@ fun socket ->
    let idle = connect socket in
    let fd = connect socket in
    send_all fd (String.concat "\n" reqs ^ "\nshutdown\n");
    let lines = recv_lines fd (List.length reqs + 1) in
    let ack = List.nth lines (List.length reqs) in
    Unix.close fd;
    recv_eof idle;
    Unix.close idle;
    (List.filteri (fun i _ -> i < List.length reqs) lines, ack, true)
  in
  check_responses "drained" reqs got;
  if not (contains ~needle:"\"op\":\"shutdown\",\"status\":\"ok\"" ack) then
    Alcotest.failf "bad shutdown ack: %s" ack;
  Alcotest.(check bool) "idle peer saw EOF" true idle_eof;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped;
  Alcotest.(check int) "admission counter back to zero" 0 stats.Server.inflight_final

let test_serve_sigterm_drains () =
  let (resp, eof), stats =
    with_server @@ fun socket ->
    let fd = connect socket in
    send_all fd "exec kernel=utma n=9 threads=2 label=sig\n";
    let resp = List.hd (recv_lines fd 1) in
    Unix.kill (Unix.getpid ()) Sys.sigterm;
    recv_eof fd;
    Unix.close fd;
    (resp, true)
  in
  Alcotest.(check string) "response before signal" (expected_line "exec kernel=utma n=9 threads=2 label=sig") resp;
  Alcotest.(check bool) "EOF after drain" true eof;
  (match stats.Server.stopped_by with
  | `Signal -> ()
  | `Shutdown -> Alcotest.fail "expected signal stop");
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

let test_serve_socket_unlinked () =
  let socket_path, _ =
    with_server @@ fun socket ->
    let fd = connect socket in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd;
    socket
  in
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists socket_path)

(* ---------------------------------------------------------------- *)
(* e2e: protocol edges                                               *)
(* ---------------------------------------------------------------- *)

let test_serve_oversized_line_rejected () =
  let (reject, eof), stats =
    with_server @@ fun socket ->
    let fd = connect socket in
    send_all fd (String.make 9000 'x' ^ "\n");
    let reject = List.hd (recv_lines fd 1) in
    recv_eof fd;
    Unix.close fd;
    let fd = connect socket in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd;
    (reject, true)
  in
  Alcotest.(check string)
    "one deterministic rejection, then close"
    "{\"op\":\"parse\",\"label\":\"-\",\"status\":\"error\",\"error\":\"request line exceeds 8192 bytes\"}"
    reject;
  Alcotest.(check bool) "connection closed after reject" true eof;
  Alcotest.(check int) "rejected counted" 1 stats.Server.rejected

let test_serve_request_timeout () =
  (* timeout 0 expires before the first run deterministically, so the
     multiplexed response must equal the serial deadline response *)
  let req = "exec params=N=8 levels=i=0..N,j=i..N label=slow repeat=3" in
  let config = { Server.default_serve_config with request_timeout_ms = Some 0 } in
  let line, stats =
    with_server ~config @@ fun socket ->
    let fd = connect socket in
    send_all fd (req ^ "\n");
    let line = List.hd (recv_lines fd 1) in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd;
    line
  in
  let serial =
    match Server.parse_request req with
    | Ok (Some r) -> fst (Server.handle ~deadline_ms:0 (Cache.create ~capacity:4 ~dir:None ()) r)
    | _ -> Alcotest.fail "bad request"
  in
  Alcotest.(check string) "timeout response matches serial" serial line;
  if not (contains ~needle:"request deadline expired (timeout 0ms)" line) then
    Alcotest.failf "unexpected timeout line: %s" line;
  Alcotest.(check int) "timeout counted" 1 stats.Server.timeouts

let test_handle_deadline () =
  let cache = Cache.create ~capacity:8 ~dir:None () in
  let req line =
    match Server.parse_request line with
    | Ok (Some r) -> r
    | _ -> Alcotest.failf "bad request %S" line
  in
  let r = "exec params=N=6 levels=i=0..N,j=i..N label=t repeat=2" in
  let line0, ok0 = Server.handle ~deadline_ms:0 cache (req r) in
  Alcotest.(check bool) "timeout 0 fails" false ok0;
  if not (contains ~needle:"request deadline expired (timeout 0ms)" line0) then
    Alcotest.failf "unexpected timeout line: %s" line0;
  (* a generous deadline answers byte-identically to no deadline *)
  let line1, ok1 = Server.handle ~deadline_ms:60_000 cache (req r) in
  let line2, ok2 = Server.handle cache (req r) in
  Alcotest.(check bool) "deadlined run ok" true ok1;
  Alcotest.(check bool) "plain run ok" true ok2;
  Alcotest.(check string) "deadline does not change the response" line2 line1;
  (* compile requests are never deadlined *)
  let linec, okc = Server.handle ~deadline_ms:0 cache (req "compile kernel=utma") in
  Alcotest.(check bool) "compile unaffected by deadline" true okc;
  if not (contains ~needle:"\"status\":\"ok\"" linec) then Alcotest.failf "bad compile: %s" linec

(* ---------------------------------------------------------------- *)
(* e2e: backlog burst (regression for the hardcoded listen backlog)  *)
(* ---------------------------------------------------------------- *)

let test_serve_backlog_burst () =
  (* the old loop listened with a hardcoded backlog of 8: while the
     server was busy executing, the 9th simultaneous connect bounced
     with ECONNREFUSED. The backlog now derives from max_clients, so
     a burst of 12 queued connects must all get served. *)
  let config = { Server.default_serve_config with max_clients = 24 } in
  let burst = 12 in
  let (heavy_resp, burst_got), stats =
    with_server ~config @@ fun socket ->
    let heavy = connect socket in
    (* cold compile + a fat repeated walk keeps the loop busy in the
       handler while the burst arrives *)
    let heavy_req = "exec params=N=300 levels=i=0..N,j=i..N+9 label=heavy threads=2 repeat=6" in
    send_all heavy (heavy_req ^ "\n");
    Unix.sleepf 0.05;
    (* no-retry connects: with the old backlog these would ECONNREFUSED *)
    let fds = List.init burst (fun _ -> connect ~tries:0 socket) in
    let burst_got =
      List.mapi
        (fun i fd ->
          let req = Printf.sprintf "exec kernel=utma n=%d threads=2 label=b%d" (5 + i) i in
          send_all fd (req ^ "\n");
          let line = List.hd (recv_lines fd 1) in
          Unix.close fd;
          (req, line))
        fds
    in
    let heavy_resp = List.hd (recv_lines heavy 1) in
    Unix.close heavy;
    let fd = connect socket in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd;
    (heavy_resp, burst_got)
  in
  if not (contains ~needle:"\"status\":\"ok\"" heavy_resp) then
    Alcotest.failf "heavy request failed: %s" heavy_resp;
  List.iter
    (fun (req, line) -> Alcotest.(check string) ("burst " ^ req) (expected_line req) line)
    burst_got;
  Alcotest.(check int) "all burst connections accepted" (burst + 2) stats.Server.connections

(* ---------------------------------------------------------------- *)
(* e2e: counter reconciliation                                       *)
(* ---------------------------------------------------------------- *)

let test_serve_counters_reconcile () =
  let since = Obsv.Metrics.snapshot () in
  let counted = Obsv.Metrics.since since in
  let cache = Cache.create ~capacity:64 ~dir:None () in
  let reqs c = client_requests c in
  let (), stats =
    with_server ~cache @@ fun socket ->
    List.iter
      (fun c ->
        let fd = connect socket in
        List.iter
          (fun req ->
            send_all fd (req ^ "\n");
            ignore (recv_lines fd 1))
          (reqs c);
        Unix.close fd)
      [ 0; 1 ];
    (* one protocol rejection in the mix *)
    let fd = connect socket in
    send_all fd (String.make 9000 'y' ^ "\n");
    ignore (recv_lines fd 1);
    recv_eof fd;
    Unix.close fd;
    let fd = connect socket in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd
  in
  (* the loop's own admission tally and the metrics layer must tell
     the same story *)
  Alcotest.(check int) "admissions" stats.Server.requests
    (counted Service.Stats.inflight_admissions);
  Alcotest.(check int) "admission counter at rest" 0 stats.Server.inflight_final;
  (* and the mix itself is fully accounted for *)
  Alcotest.(check int) "connections" 4 stats.Server.connections;
  Alcotest.(check int) "admitted requests" 7 stats.Server.requests;
  Alcotest.(check int) "responses = ok + error" stats.Server.responses
    (stats.Server.ok_responses + stats.Server.error_responses);
  Alcotest.(check int) "responses" 8 stats.Server.responses;
  Alcotest.(check int) "rejected" 1 stats.Server.rejected;
  Alcotest.(check int) "dropped" 0 stats.Server.dropped;
  (* every compile/exec touched the cache exactly once *)
  Alcotest.(check int) "cache lookups = cache-touching requests" 6
    (counted Service.Stats.cache_hits + counted Service.Stats.cache_misses
    + counted Service.Stats.singleflight_waits)

(* ---------------------------------------------------------------- *)
(* Robustness: health verb, quotas, rate limiting, protocol fuzz     *)
(* ---------------------------------------------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle hay =
  if not (contains ~needle hay) then Alcotest.failf "%s: %S not in %s" what needle hay

(* the integer value of the first ["key":] field of a response line *)
let json_int key line =
  let needle = Printf.sprintf {|"%s":|} key in
  let nl = String.length needle and ll = String.length line in
  let rec find i =
    if i + nl > ll then Alcotest.failf "%S not in %s" needle line
    else if String.sub line i nl = needle then i + nl
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < ll && line.[!stop] >= '0' && line.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let test_serve_health_verb () =
  (match Server.parse_request "health" with
  | Ok (Some Server.Health) -> ()
  | _ -> Alcotest.fail "bare health should parse");
  (match Server.parse_request "health x=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "health with fields should be rejected");
  let cache = Cache.create ~capacity:16 ~dir:None () in
  let (h1, h2), stats =
    with_server ~cache @@ fun socket ->
    let fd = connect socket in
    send_all fd "health\n";
    let h1 = List.hd (recv_lines fd 1) in
    send_all fd "compile kernel=utma\n";
    ignore (recv_lines fd 1);
    send_all fd "health\n";
    let h2 = List.hd (recv_lines fd 1) in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd;
    (h1, h2)
  in
  check_contains "health response" {|"op":"health","status":"ok"|} h1;
  check_contains "breaker state reported" {|"breaker":{"state":"|} h1;
  check_contains "robustness counters reported" {|"quarantined":|} h1;
  check_contains "inflight reported" {|"inflight":|} h1;
  Alcotest.(check int) "the compile between probes is visible" (json_int "misses" h1 + 1)
    (json_int "misses" h2);
  Alcotest.(check int) "health probes counted apart" 2 stats.Server.health_probes;
  (* the reconciliation invariant: health rides outside [requests] *)
  Alcotest.(check int) "admitted = compile + shutdown" 2 stats.Server.requests

(* regression: the ledger behind [health] counts with tracing off *)
let test_serve_health_untraced () =
  Obsv.Control.with_enabled false @@ fun () ->
  let (h1, h2), _ =
    with_server @@ fun socket ->
    let fd = connect socket in
    let ask req =
      send_all fd (req ^ "\n");
      List.hd (recv_lines fd 1)
    in
    let h1 = ask "health" in
    ignore (ask "exec kernel=utma n=20 threads=2");
    let h2 = ask "health" in
    ignore (ask "shutdown");
    Unix.close fd;
    (h1, h2)
  in
  Alcotest.(check bool) "closed-form level recoveries counted" true
    (json_int "closed_form" h2 > json_int "closed_form" h1)

let test_serve_rate_limited_flood () =
  (* a refill rate of ~0 makes the outcome deterministic: exactly
     [rate_burst] requests are admitted, the rest are overload-rejected
     in order, and the connection stays open *)
  let config =
    { Server.default_serve_config with rate_limit = Some 0.001; rate_burst = 2 }
  in
  let reqs = List.init 5 (fun i -> Printf.sprintf "compile kernel=utma label=f%d" i) in
  let lines, stats =
    with_server ~config @@ fun socket ->
    let fd = connect socket in
    send_all fd (String.concat "\n" reqs ^ "\nhealth\nshutdown\n");
    let lines = recv_lines fd 7 in
    Unix.close fd;
    lines
  in
  check_responses "under the burst" (List.filteri (fun i _ -> i < 2) reqs)
    (List.filteri (fun i _ -> i < 2) lines);
  List.iteri
    (fun i line ->
      if i >= 2 && i < 5 then begin
        check_contains "over-rate rejection" {|"error":"rejected:overload"|} line;
        check_contains "rejection keeps the request's op" {|"op":"compile"|} line;
        check_contains "rejection keeps the request's label"
          (Printf.sprintf {|"label":"f%d"|} i)
          line
      end)
    lines;
  check_contains "health is exempt from the limiter" {|"op":"health","status":"ok"|}
    (List.nth lines 5);
  check_contains "shutdown is exempt from the limiter" {|"op":"shutdown"|} (List.nth lines 6);
  Alcotest.(check int) "throttled counted" 3 stats.Server.throttled;
  Alcotest.(check int) "admitted = burst + shutdown" 3 stats.Server.requests;
  Alcotest.(check int) "rejections are error responses" 3 stats.Server.error_responses;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

(* regression: the liveness probe must be answered from another
   connection while a flood holds the admission cap. The flooder
   pipelines slow requests (deadline-killed at 100ms each) well past
   [max_inflight]; before the fix, both the admit loop and the
   readable set gated health behind the same caps, so the probe
   waited for the whole backlog to drain (~1s+ here, minutes with a
   wedged toolchain). Now control lines are consumed regardless of
   the caps, so the probe answers within roughly one loop turn. *)
let test_serve_health_exempt_at_saturation () =
  (* requests sized to a couple hundred ms each (the serial reference
     dominates and is not deadlined; every flood request binds its own
     N, so each one misses the reference memo and walks it), so a
     pipelined flood holds the
     admission counter at the cap for ~2s of short loop turns. The
     loop is single-threaded and requests execute inline, so an
     exempt probe waits for the in-flight request's next safe point
     (or all of it, before the exec runs) — the discriminator is
     relative, not absolute: exempt health answers within a couple
     of request-times, capped health waits for nearly the whole
     backlog. *)
  let slow n = Printf.sprintf "exec params=N=%d levels=i=0..N,j=i..N threads=2 label=slow" n in
  let nslow = 10 in
  let config =
    { Server.default_serve_config with
      max_inflight = 4;
      max_inflight_per_client = 4;
      service_quantum = 1 }
  in
  let (health_at_ms, drain_ms, health_line), stats =
    with_server ~config @@ fun socket ->
    (* probe connects first: the serve loop prepends new connections,
       so the flooder's admission runs first each turn and keeps the
       counter at the cap when the probe's line is considered *)
    let probe = connect socket in
    let flood = connect socket in
    (* warm the plan cache through the probe so no request in the
       timed window pays the one-off symbolic compile *)
    send_all probe (slow 2000 ^ "\n");
    ignore (recv_lines probe 1);
    let t0 = Unix.gettimeofday () in
    send_all flood (String.concat "\n" (List.init nslow (fun k -> slow (2001 + k))) ^ "\n");
    (* let the server frame the flood before probing *)
    Unix.sleepf 0.05;
    send_all probe "health\n";
    let h = List.hd (recv_lines probe 1) in
    let health_at_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    ignore (recv_lines flood nslow);
    let drain_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    Unix.close flood;
    send_all probe "shutdown\n";
    ignore (recv_lines probe 1);
    Unix.close probe;
    (health_at_ms, drain_ms, h)
  in
  check_contains "health answered" {|"op":"health","status":"ok"|} health_line;
  (* both times share the flood's t0, so the ratio self-calibrates to
     machine speed: exempt ~2/10 of the backlog, capped ~9/10 *)
  Alcotest.(check bool)
    (Printf.sprintf
       "probe answered while saturated, not after the backlog (health %.0fms, drain %.0fms)"
       health_at_ms drain_ms)
    true (health_at_ms < drain_ms /. 2.);
  Alcotest.(check int) "health probes counted" 1 stats.Server.health_probes;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

(* a long exec no longer holds up cheap requests on another
   connection: at the exec's safe points the loop answers health and a
   warm compile in place. utma at n = 3000 misses the reference memo
   and walks ~4.5M iterations serially, then again in its region —
   tens of ms, where the safe points come every 4096 iterations and
   every 2^16-iteration slice. *)
let test_serve_cheap_requests_pass_long_exec () =
  let exec_line = "exec kernel=utma n=3000" in
  let compile_line = "compile kernel=utma label=warm" in
  let (exec_resp, cheap, exec_answered_first), stats =
    with_server @@ fun socket ->
    let side = connect socket in
    send_all side (compile_line ^ "\n");
    ignore (recv_lines side 1);
    let main = connect socket in
    let walks = Obsv.Metrics.total Service.Stats.reference_misses in
    send_all main (exec_line ^ "\n");
    (* the server (a domain of this process) has begun the walk *)
    let rec wait tries =
      if Obsv.Metrics.total Service.Stats.reference_misses = walks then begin
        if tries = 0 then Alcotest.fail "the exec never started its reference walk";
        Unix.sleepf 0.0005;
        wait (tries - 1)
      end
    in
    wait 20_000;
    send_all side ("health\n" ^ compile_line ^ "\n");
    let cheap = recv_lines side 2 in
    let exec_answered_first =
      match Unix.select [ main ] [] [] 0.0 with [], _, _ -> false | _ -> true
    in
    let exec_resp = List.hd (recv_lines main 1) in
    send_all side "shutdown\n";
    ignore (recv_lines side 1);
    Unix.close side;
    Unix.close main;
    (exec_resp, cheap, exec_answered_first)
  in
  Alcotest.(check bool) "health and compile answered before the exec" false exec_answered_first;
  check_contains "health answered" {|"op":"health","status":"ok"|} (List.nth cheap 0);
  Alcotest.(check string) "warm compile" (expected_line compile_line) (List.nth cheap 1);
  Alcotest.(check string) "exec byte-identical" (expected_line exec_line) exec_resp;
  Alcotest.(check int) "both counted in serve.pumped" 2 stats.Server.pumped;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

(* a connection opened while a long exec runs is accepted at the
   exec's next safe point, not after it: the pump polls the listening
   socket with the idle connections, so the late client's health is
   answered first. The lanes-8 covariance exec walks 1.7M iterations
   twenty times, hundreds of ms against a sub-ms connect. *)
let test_serve_accepts_during_long_exec () =
  let exec_line = "exec kernel=covariance n=150 lanes=8 repeat=20" in
  let (exec_resp, health, exec_answered_first), stats =
    with_server @@ fun socket ->
    let main = connect socket in
    let walks = Obsv.Metrics.total Service.Stats.reference_misses in
    send_all main (exec_line ^ "\n");
    let rec wait tries =
      if Obsv.Metrics.total Service.Stats.reference_misses = walks then begin
        if tries = 0 then Alcotest.fail "the exec never started its reference walk";
        Unix.sleepf 0.0005;
        wait (tries - 1)
      end
    in
    wait 20_000;
    let late = connect socket in
    send_all late "health\n";
    let health = List.hd (recv_lines late 1) in
    let exec_answered_first =
      match Unix.select [ main ] [] [] 0.0 with [], _, _ -> false | _ -> true
    in
    let exec_resp = List.hd (recv_lines main 1) in
    send_all late "shutdown\n";
    ignore (recv_lines late 1);
    Unix.close late;
    Unix.close main;
    (exec_resp, health, exec_answered_first)
  in
  Alcotest.(check bool) "late health answered before the exec" false exec_answered_first;
  check_contains "health answered" {|"op":"health","status":"ok"|} health;
  Alcotest.(check string) "exec byte-identical" (expected_line exec_line) exec_resp;
  Alcotest.(check int) "health counted in serve.pumped" 1 stats.Server.pumped;
  Alcotest.(check int) "both connections accepted" 2 stats.Server.connections;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

(* a pipelined health flood on another connection, sent while an exec
   with a deadline runs: the pump's time is charged to that deadline,
   so one pump answers at most [service_quantum] of the flood and the
   rest waits for the loop. The exec still answers, byte-identical. *)
let test_serve_health_flood_under_deadline () =
  let exec_line = "exec kernel=utma n=3000" in
  let flood = 200 in
  let config = { Server.default_serve_config with request_timeout_ms = Some 60_000 } in
  let (exec_resp, healths), stats =
    with_server ~config @@ fun socket ->
    let side = connect socket in
    let main = connect socket in
    let walks = Obsv.Metrics.total Service.Stats.reference_misses in
    send_all main (exec_line ^ "\n");
    let rec wait tries =
      if Obsv.Metrics.total Service.Stats.reference_misses = walks then begin
        if tries = 0 then Alcotest.fail "the exec never started its reference walk";
        Unix.sleepf 0.0005;
        wait (tries - 1)
      end
    in
    wait 20_000;
    send_all side (String.concat "" (List.init flood (fun _ -> "health\n")));
    let exec_resp = List.hd (recv_lines main 1) in
    let healths = recv_lines side flood in
    send_all side "shutdown\n";
    ignore (recv_lines side 1);
    Unix.close side;
    Unix.close main;
    (exec_resp, healths)
  in
  Alcotest.(check string) "exec byte-identical" (expected_line exec_line) exec_resp;
  List.iter (check_contains "health answered" {|"op":"health","status":"ok"|}) healths;
  Alcotest.(check int) "every probe counted" flood stats.Server.health_probes;
  Alcotest.(check bool)
    (Printf.sprintf "at most one quantum pumped (%d)" stats.Server.pumped)
    true
    (stats.Server.pumped >= 1
    && stats.Server.pumped <= Server.default_serve_config.service_quantum);
  Alcotest.(check int) "no timeout" 0 stats.Server.timeouts;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

let test_serve_per_client_cap_backpressure () =
  (* a cap of 1 forces the loop to stop reading the flooding client
     between requests: everything is still answered, in order, byte
     for byte — backpressure, not errors *)
  let config =
    { Server.default_serve_config with max_inflight_per_client = 1; service_quantum = 1 }
  in
  let reqs = client_requests 0 @ client_requests 1 in
  let lines, stats =
    with_server ~config @@ fun socket ->
    let fd = connect socket in
    send_all fd (String.concat "\n" reqs ^ "\nshutdown\n");
    let lines = recv_lines fd (List.length reqs + 1) in
    Unix.close fd;
    lines
  in
  check_responses "capped pipeline" reqs (List.filteri (fun i _ -> i < List.length reqs) lines);
  Alcotest.(check int) "all admitted eventually" (List.length reqs + 1) stats.Server.requests;
  Alcotest.(check int) "no errors" 0 stats.Server.error_responses;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

(* protocol fuzz, unit level: the parser is total and the framer never
   desyncs, whatever bytes arrive in whatever chunking *)

let prop_parse_request_total =
  QCheck.Test.make ~name:"protocol fuzz: parse_request is total" ~count:1000
    QCheck.(string_gen QCheck.Gen.char)
    (fun s -> match Server.parse_request s with Ok _ | Error _ -> true)

let prop_framing_fuzz =
  QCheck.Test.make ~name:"protocol fuzz: framer never raises or desyncs" ~count:500
    QCheck.(pair (list (string_gen QCheck.Gen.char)) small_nat)
    (fun (chunks, max_extra) ->
      let max_line = 16 + max_extra in
      let f = Framing.create ~max_line () in
      let overflowed_once = ref false in
      List.iter
        (fun chunk ->
          Framing.feed_string f chunk;
          let rec drain () =
            match Framing.pop f with
            | `Line l ->
              (* a popped line respects the bound and never contains a
                 terminator *)
              (* CRLF stripping may shed one byte past the bound; a
                 lone CR is ordinary line content *)
              if String.length l > max_line then failwith "line exceeds max_line";
              if String.contains l '\n' then failwith "terminator inside a line";
              drain ()
            | `Overflow ->
              overflowed_once := true;
              ()
            | `Pending -> ()
          in
          drain ();
          if !overflowed_once && not (Framing.overflowed f) then
            failwith "overflow is not terminal")
        chunks;
      true)

(* protocol fuzz, e2e: nasty lines get exactly one structured error
   each and the connection keeps working; an abrupt binary close
   leaves the loop serving everyone else *)
let test_serve_garbage_bytes () =
  let (), stats =
    with_server @@ fun socket ->
    List.iter
      (fun junk ->
        let fd = connect socket in
        send_all fd junk;
        let line = List.hd (recv_lines fd 1) in
        check_contains "structured error for junk" {|"status":"error"|} line;
        (* the same connection still serves valid requests *)
        send_all fd "compile kernel=utma label=after\n";
        check_contains "connection survives the junk" {|"status":"ok"|}
          (List.hd (recv_lines fd 1));
        Unix.close fd)
      [ "\x00\x01\x02garbage\n";
        "exec kernel=\x7fnope\n";
        "compile\n";
        "health extra=1\n";
        "exec kernel=utma n=\x00\n";
        (* an over-long bound literal; a trip count beyond the int range *)
        "compile params=N levels=i=0..99999999999999999999999\n";
        "exec kernel=utma n=10000000000 threads=1\n" ];
    (* binary junk with no terminator, then an abrupt close *)
    let fd = connect socket in
    send_all fd "\xff\xfe\xfd";
    Unix.close fd;
    (* NUL/CRLF splices: CRLF frames like LF, lone CR stays in-line *)
    let fd = connect socket in
    send_all fd "compile kernel=utma label=crlf\r\ncompile\rkernel=x\n";
    (match recv_lines fd 2 with
    | [ ok_line; err_line ] ->
      check_contains "CRLF framed as one request" {|"status":"ok"|} ok_line;
      check_contains "lone CR stays in-line and fails parse" {|"status":"error"|} err_line
    | _ -> Alcotest.fail "expected two responses to the CR/CRLF splice");
    Unix.close fd;
    let fd = connect socket in
    send_all fd "shutdown\n";
    ignore (recv_lines fd 1);
    Unix.close fd
  in
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped

let suites =
  [ ( "serve.framing",
      qsuite [ prop_frame_rechunk_equals_split; prop_frame_chunking_invariant ]
      @ [ Alcotest.test_case "CRLF and empty lines" `Quick test_frame_crlf_and_empty;
          Alcotest.test_case "partial lines join across feeds" `Quick test_frame_partial_then_rest;
          Alcotest.test_case "overflow is terminal" `Quick test_frame_overflow_terminal;
          Alcotest.test_case "overflow without terminator" `Quick
            test_frame_overflow_without_terminator
        ] );
    ( "serve.loop",
      [ Alcotest.test_case "multi-client responses byte-identical to serial" `Quick
          test_serve_multi_client_byte_identical;
        Alcotest.test_case "pipelined requests answered in order" `Quick
          test_serve_pipelined_in_order;
        Alcotest.test_case "slow reader cannot stall the loop" `Quick
          test_serve_slow_reader_no_stall;
        Alcotest.test_case "graceful drain under load" `Quick test_serve_drain_under_load;
        Alcotest.test_case "SIGTERM drains and exits cleanly" `Quick test_serve_sigterm_drains;
        Alcotest.test_case "socket unlinked on exit" `Quick test_serve_socket_unlinked;
        Alcotest.test_case "oversized line rejected deterministically" `Quick
          test_serve_oversized_line_rejected;
        Alcotest.test_case "per-request timeout is deterministic" `Quick
          test_serve_request_timeout;
        Alcotest.test_case "handle honors deadline_ms" `Quick test_handle_deadline;
        Alcotest.test_case "connect burst beyond old backlog is served" `Quick
          test_serve_backlog_burst;
        Alcotest.test_case "serve_stats reconcile with obsv counters" `Quick
          test_serve_counters_reconcile
      ] );
    ( "serve.robustness",
      [ Alcotest.test_case "health verb reports breaker + cache state" `Quick
          test_serve_health_verb;
        Alcotest.test_case "health ledger counts with tracing off" `Quick
          test_serve_health_untraced;
        Alcotest.test_case "rate limiter rejects floods deterministically" `Quick
          test_serve_rate_limited_flood;
        Alcotest.test_case "health is exempt from the admission caps" `Quick
          test_serve_health_exempt_at_saturation;
        Alcotest.test_case "per-client cap is backpressure, not errors" `Quick
          test_serve_per_client_cap_backpressure;
        Alcotest.test_case "garbage bytes get structured errors" `Quick test_serve_garbage_bytes;
        Alcotest.test_case "health and warm compile pass a long exec" `Quick
          test_serve_cheap_requests_pass_long_exec;
        Alcotest.test_case "a connection opened mid-exec is answered" `Quick
          test_serve_accepts_during_long_exec;
        Alcotest.test_case "a health flood costs a deadlined exec one quantum" `Quick
          test_serve_health_flood_under_deadline
      ]
      @ qsuite [ prop_parse_request_total; prop_framing_fuzz ] )
  ]
