module A = Polymath.Affine
module P = Polymath.Polynomial
module Q = Zmath.Rat
module N = Trahrhe.Nest
module R = Trahrhe.Recovery

type request =
  | Compile of { label : string; nest : N.t }
  | Exec of { label : string; nest : N.t; param : string -> int; opts : Exec.opts }
  | Health
  | Shutdown

(* ---- request-line parsing ---- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_ident s =
  s <> ""
  && (let c = s.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_')
  && String.for_all is_ident_char s

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* a decimal literal that fits the native int; over-long ones are
   rejected as bad terms rather than raising *)
let int_literal s = if is_digits s then int_of_string_opt s else None

let ( let* ) = Result.bind

(* bound grammar: ['-'] term (('+'|'-') term)*, term = INT['*'IDENT] | IDENT *)
let parse_affine s =
  let n = String.length s in
  if n = 0 then Error "empty affine bound"
  else begin
    (* split into (sign, atom) pieces at top-level +/- *)
    let i0, sign0 = if s.[0] = '-' then (1, -1) else (0, 1) in
    let atoms = ref [] in
    let bad = ref None in
    let start = ref i0 in
    let sign = ref sign0 in
    let flush upto =
      if upto = !start then bad := Some (Printf.sprintf "dangling sign in bound %S" s)
      else atoms := (!sign, String.sub s !start (upto - !start)) :: !atoms
    in
    for i = i0 to n - 1 do
      if !bad = None then
        match s.[i] with
        | '+' | '-' ->
          flush i;
          sign := (if s.[i] = '-' then -1 else 1);
          start := i + 1
        | _ -> ()
    done;
    if !bad = None then flush n;
    match !bad with
    | Some e -> Error e
    | None ->
      let coeffs = Hashtbl.create 8 in
      let const = ref Q.zero in
      let add_coeff v c =
        let prev = Option.value ~default:Q.zero (Hashtbl.find_opt coeffs v) in
        Hashtbl.replace coeffs v (Q.add prev c)
      in
      let atom_err = ref None in
      List.iter
        (fun (sg, a) ->
          if !atom_err = None then
            let reject () = atom_err := Some (Printf.sprintf "bad term %S in bound %S" a s) in
            match String.index_opt a '*' with
            | Some k -> (
              let v = String.sub a (k + 1) (String.length a - k - 1) in
              match int_literal (String.sub a 0 k) with
              | Some c when is_ident v -> add_coeff v (Q.of_int (sg * c))
              | _ -> reject ())
            | None -> (
              match int_literal a with
              | Some c -> const := Q.add !const (Q.of_int (sg * c))
              | None -> if is_ident a then add_coeff a (Q.of_int sg) else reject ()))
        (List.rev !atoms);
      match !atom_err with
      | Some e -> Error e
      | None ->
        let terms = Hashtbl.fold (fun v c acc -> (v, c) :: acc) coeffs [] in
        Ok (A.make (List.sort compare terms) !const)
  end

(* one entry of levels=: VAR=LOWER..UPPER *)
let parse_level entry =
  match String.index_opt entry '=' with
  | None -> Error (Printf.sprintf "level %S needs VAR=LOWER..UPPER" entry)
  | Some i ->
    let var = String.sub entry 0 i in
    let rest = String.sub entry (i + 1) (String.length entry - i - 1) in
    if not (is_ident var) then Error (Printf.sprintf "bad iterator name %S" var)
    else begin
      let dots = ref None in
      for j = 0 to String.length rest - 2 do
        if !dots = None && rest.[j] = '.' && rest.[j + 1] = '.' then dots := Some j
      done;
      match !dots with
      | None -> Error (Printf.sprintf "level %S needs LOWER..UPPER bounds" entry)
      | Some j ->
        let* lower = parse_affine (String.sub rest 0 j) in
        let* upper = parse_affine (String.sub rest (j + 2) (String.length rest - j - 2)) in
        Ok { N.var; lower; upper }
    end

(* one entry of params=: NAME or NAME=INT *)
let parse_param entry =
  match String.index_opt entry '=' with
  | None ->
    if is_ident entry then Ok (entry, None)
    else Error (Printf.sprintf "bad parameter name %S" entry)
  | Some i ->
    let name = String.sub entry 0 i in
    let v = String.sub entry (i + 1) (String.length entry - i - 1) in
    if not (is_ident name) then Error (Printf.sprintf "bad parameter name %S" name)
    else (
      match int_of_string_opt v with
      | Some value when is_digits v || (v.[0] = '-' && is_digits (String.sub v 1 (String.length v - 1)))
        -> Ok (name, Some value)
      | _ -> Error (Printf.sprintf "bad parameter value %S for %s" v name))

let split_commas s = if s = "" then [] else String.split_on_char ',' s

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let fields_of_tokens tokens =
  let* fields =
    map_result
      (fun tok ->
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "malformed field %S (expected key=value)" tok)
        | Some i -> Ok (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
      tokens
  in
  let rec dup = function
    | [] -> None
    | (k, _) :: rest -> if List.mem_assoc k rest then Some k else dup rest
  in
  match dup fields with
  | Some k -> Error (Printf.sprintf "duplicate field %s" k)
  | None -> Ok fields

let check_keys ~allowed fields =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fields with
  | Some (k, _) -> Error (Printf.sprintf "unknown field %s" k)
  | None -> Ok ()

let int_field fields key ~default ~min_value =
  match List.assoc_opt key fields with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= min_value -> Ok n
    | _ -> Error (Printf.sprintf "%s needs an integer >= %d, got %S" key min_value v))

let bool_field fields key ~default =
  match List.assoc_opt key fields with
  | None -> Ok default
  | Some ("1" | "true") -> Ok true
  | Some ("0" | "false") -> Ok false
  | Some v -> Error (Printf.sprintf "%s needs 0/1 or true/false, got %S" key v)

(* the nest named by the fields, plus the parameter valuation declared
   alongside it (for kernels: the registry's param_map at size [n]) *)
let nest_of_fields fields ~size =
  match
    (List.assoc_opt "kernel" fields, List.assoc_opt "params" fields, List.assoc_opt "levels" fields)
  with
  | Some name, None, None -> (
    match Kernels.Registry.find name with
    | None ->
      Error
        (Printf.sprintf "unknown kernel %S (try: %s)" name
           (String.concat ", " Kernels.Registry.names))
    | Some k ->
      let n = match size with Some n -> n | None -> k.Kernels.Kernel.default_n in
      Ok (name, k.Kernels.Kernel.nest, List.map (fun p -> (p, Some (Kernels.Kernel.param_of k ~n p))) k.Kernels.Kernel.nest.N.params))
  | None, params, Some levels_v -> (
    if size <> None then Error "n= is only valid with kernel="
    else
      let* bindings = map_result parse_param (split_commas (Option.value ~default:"" params)) in
      let* levels = map_result parse_level (split_commas levels_v) in
      if levels = [] then Error "levels= must declare at least one loop"
      else
        match N.make ~params:(List.map fst bindings) levels with
        | nest -> Ok ("nest", nest, bindings)
        | exception Invalid_argument e -> Error e)
  | Some _, _, _ -> Error "give kernel= or params=/levels=, not both"
  | None, _, None -> Error "a nest needs kernel= or levels="

let param_of_bindings bindings =
  let* () =
    match List.find_opt (fun (_, v) -> v = None) bindings with
    | Some (name, _) -> Error (Printf.sprintf "exec needs a value for parameter %s (params=%s=...)" name name)
    | None -> Ok ()
  in
  Ok (fun name ->
      match List.assoc_opt name bindings with
      | Some (Some v) -> v
      | _ -> invalid_arg ("unbound parameter " ^ name))

let parse_request_uncached line =
  let tokens = List.filter (fun s -> s <> "") (String.split_on_char ' ' line) in
  match tokens with
  | [] -> Ok None
  | op :: _ when op.[0] = '#' -> Ok None
  | "shutdown" :: rest -> if rest = [] then Ok (Some Shutdown) else Error "shutdown takes no fields"
  | "health" :: rest -> if rest = [] then Ok (Some Health) else Error "health takes no fields"
  | "compile" :: rest ->
    let* fields = fields_of_tokens rest in
    let* () = check_keys ~allowed:[ "kernel"; "params"; "levels"; "label" ] fields in
    let* name, nest, _ = nest_of_fields fields ~size:None in
    let label = Option.value ~default:name (List.assoc_opt "label" fields) in
    Ok (Some (Compile { label; nest }))
  | "exec" :: rest ->
    let* fields = fields_of_tokens rest in
    let* () =
      check_keys
        ~allowed:
          [ "kernel"; "params"; "levels"; "label"; "n"; "threads"; "schedule"; "lanes"; "repeat"; "retries"; "native"; "reduce" ]
        fields
    in
    let* size =
      match List.assoc_opt "n" fields with
      | None -> Ok None
      | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> Ok (Some n)
        | _ -> Error (Printf.sprintf "n needs a positive integer, got %S" v))
    in
    let* name, nest, bindings = nest_of_fields fields ~size in
    let* param = param_of_bindings bindings in
    let* threads = int_field fields "threads" ~default:4 ~min_value:1 in
    let* lanes = int_field fields "lanes" ~default:1 ~min_value:1 in
    let* repeat = int_field fields "repeat" ~default:1 ~min_value:1 in
    let* retries = int_field fields "retries" ~default:0 ~min_value:0 in
    let* native = bool_field fields "native" ~default:false in
    let* schedule =
      match List.assoc_opt "schedule" fields with
      | None -> Ok Ompsim.Schedule.Static
      | Some s -> Ompsim.Schedule.of_string s
    in
    let* reduce =
      match List.assoc_opt "reduce" fields with
      | None -> Ok None
      | Some s -> (
        match N.op_of_string s with
        | Some op -> Ok (Some op)
        | None -> Error (Printf.sprintf "reduce needs sum|prod|min|max, got %S" s))
    in
    (* a reduce request rewrites the nest's clause BEFORE the cache
       lookup, so the clause participates in content addressing *)
    let nest = N.with_reduce_op nest reduce in
    let label = Option.value ~default:name (List.assoc_opt "label" fields) in
    Ok
      (Some
         (Exec { label; nest; param; opts = { Exec.threads; schedule; lanes; repeat; retries; native; reduce } }))
  | op :: _ -> Error (Printf.sprintf "unknown operation %S (compile | exec | health | shutdown)" op)

(* Parsed request lines, memoized by the line itself. Clients of a
   line protocol repeat identical lines constantly (every [kernel=]
   request for the same kernel is the same bytes), and tokenizing plus
   field validation costs several times a warm cache lookup. Parsing
   is pure — a [request] is an immutable value (the [param] closure
   reads only its captured bindings) — so replaying the parsed result
   for the same bytes is indistinguishable from reparsing. Long lines
   are not memoized: they are rare one-offs and would bloat the scan.
   Same atomic-MRU discipline as the fingerprint memo. *)
let parse_memo_cap = 16
let parse_memo_max_len = 256
let parse_memo : (string * (request option, string) result) array Atomic.t = Atomic.make [||]

let parse_request line =
  if String.length line > parse_memo_max_len then parse_request_uncached line
  else begin
    let arr = Atomic.get parse_memo in
    let n = Array.length arr in
    let rec find i =
      if i >= n then None
      else
        let k, v = Array.unsafe_get arr i in
        if String.equal k line then Some v else find (i + 1)
    in
    match find 0 with
    | Some v -> v
    | None ->
      let v = parse_request_uncached line in
      let keep = min n (parse_memo_cap - 1) in
      Atomic.set parse_memo (Array.append [| (line, v) |] (Array.sub arr 0 keep));
      v
  end

(* ---- responses ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let error_json ~op ~label e =
  Printf.sprintf {|{"op":"%s","label":"%s","status":"error","error":"%s"}|} op (json_escape label)
    (json_escape e)

let exec_value_json = function
  | Exec.Int n -> string_of_int n
  | Exec.Rat q -> Printf.sprintf {|"%s"|} (json_escape (Q.to_string q))

(* the shutdown acknowledgement carries the cache totals so clients
   (and the accounting block) see hit rates without a separate op *)
let shutdown_json () =
  Printf.sprintf {|{"op":"shutdown","status":"ok","cache":{"hits":%d,"misses":%d}}|}
    (Obsv.Metrics.total Stats.cache_hits) (Obsv.Metrics.total Stats.cache_misses)

(* the liveness probe: breaker state, cache health, inflight depth.
   Deliberately NOT byte-stable across runs — it reports live state,
   which is its whole job; tooling that diffs responses must exclude
   it like the shutdown acknowledgement *)
let health_json ?native ?(inflight = 0) () =
  let nt = match native with Some nt -> nt | None -> Native.default () in
  let b = Native.breaker nt in
  let total = Obsv.Metrics.total in
  Printf.sprintf
    {|{"op":"health","status":"ok","breaker":{"state":"%s","consecutive_failures":%d,"opens":%d,"rejections":%d,"probes":%d},"cache":{"hits":%d,"disk_hits":%d,"misses":%d,"evictions":%d,"singleflight_waits":%d,"quarantined":%d,"lock_waits":%d,"lock_steals":%d,"janitor_removed":%d},"native":{"served":%d,"fallbacks":%d%s},"inversion":{"numeric":%d,"closed_form":%d},"inflight":%d}|}
    (Jit.Breaker.state_name (Jit.Breaker.state b))
    (Jit.Breaker.failures b)
    (total Jit.Stats.breaker_opens) (total Jit.Stats.breaker_rejects)
    (total Jit.Stats.breaker_probes) (total Stats.cache_hits) (total Stats.cache_disk_hits)
    (total Stats.cache_misses) (total Stats.cache_evictions) (total Stats.singleflight_waits)
    (total Stats.cache_quarantined) (total Stats.cache_lock_waits)
    (total Stats.cache_lock_steals) (total Stats.cache_janitor) (total Stats.native_served)
    (total Jit.Stats.fallbacks)
    (match Native.last_error nt with
    | None -> ""
    | Some e -> Printf.sprintf {|,"last_error":"%s"|} (json_escape e))
    (R.numeric_recoveries ()) (R.closed_form_recoveries ()) inflight

(* overload rejections answer with the request's own op/label so a
   pipelining client can still correlate responses to requests *)
let op_label = function
  | Compile { label; _ } -> ("compile", label)
  | Exec { label; _ } -> ("exec", label)
  | Health -> ("health", "-")
  | Shutdown -> ("shutdown", "-")

let overload_json req =
  let op, label = op_label req in
  error_json ~op ~label "rejected:overload"

(* Rendered [compile] responses, memoized by the plan's PHYSICAL
   identity plus the request label. The response is a pure function of
   the two (fingerprint, depth, symbolic trip count — all read off the
   immutable plan), and rendering it — polynomial pretty-printing,
   escaping, formatting — dwarfs the warm cache lookup itself. The
   cache path still runs on every request (it owns the LRU order and
   the hit/miss ledger); only the final string is reused. Same MRU
   discipline as {!Fingerprint.canonicalize_cached}: tiny atomic
   array, a lost update costs a recompute, never correctness. *)
let compile_memo_cap = 16
let compile_memo : ((Plan.t * string) * string) array Atomic.t = Atomic.make [||]

let compile_json ~label plan =
  let arr = Atomic.get compile_memo in
  let n = Array.length arr in
  let rec find i =
    if i >= n then None
    else
      let (p, l), resp = Array.unsafe_get arr i in
      if p == plan && String.equal l label then Some resp else find (i + 1)
  in
  match find 0 with
  | Some resp -> resp
  | None ->
    let inv = plan.Plan.inversion in
    let resp =
      Printf.sprintf
        {|{"op":"compile","label":"%s","status":"ok","fingerprint":"%s","depth":%d,"trip_count":"%s"}|}
        (json_escape label) plan.Plan.fingerprint
        (N.depth inv.Trahrhe.Inversion.nest)
        (json_escape (P.to_string inv.Trahrhe.Inversion.trip_count))
    in
    let keep = min n (compile_memo_cap - 1) in
    Atomic.set compile_memo (Array.append [| ((plan, label), resp) |] (Array.sub arr 0 keep));
    resp

(* [handle_full] additionally reports whether the request died on its
   deadline, so the serve loop can count [serve.timeout] exactly, and
   takes the serve loop's [poll] for the exec's safe points *)
let handle_full ?native ?deadline_ms ?poll cache req =
  match req with
  | Shutdown -> (shutdown_json (), true, false)
  | Health -> (health_json ?native (), true, false)
  | Compile { label; nest } -> (
    match Cache.find_or_compile cache nest with
    | Error e -> (error_json ~op:"compile" ~label e, false, false)
    | Ok (plan, _) -> (compile_json ~label plan, true, false))
  | Exec { label; nest; param; opts } -> (
    let err e = (error_json ~op:"exec" ~label e, false, false) in
    (* the deadline budget covers the whole request from here, all
       [repeat] runs included. The message is deterministic (no
       elapsed time), keeping responses byte-stable across runs that
       time out. *)
    let started = Unix.gettimeofday () in
    match Cache.find_or_compile cache nest with
    | Error e -> err e
    | Ok (plan, renaming) -> (
      (* the plan was compiled from the canonical nest, so both the
         recovery and the serial reference run under canonical names.
         The interpreted recovery is memoized per plan x parameter
         values; the native backend is attached to it per request. *)
      let cparam = Fingerprint.canonical_param renaming param in
      match
        Exec.recovery ?native plan ~param:cparam (Cache.recovery cache plan ~param:cparam) opts
      with
      | exception Invalid_argument e -> err e
      | rc, native_why -> (
        (* "native" reports whether the backend actually engaged —
           false under fallback, which CI's no-gcc job asserts on —
           and on fallback "native_error" carries the reason,
           including the compiler's stderr excerpt *)
        let native_field =
          if opts.native then
            match native_why with
            | Some reason when not (R.native_enabled rc) ->
              Printf.sprintf {|,"native":false,"native_error":"%s"|} (json_escape reason)
            | _ -> Printf.sprintf {|,"native":%b|} (R.native_enabled rc)
          else ""
        in
        let nest = plan.Plan.inversion.Trahrhe.Inversion.nest in
        let reference =
          Cache.reference cache (Exec.reference_key plan ~param:cparam opts) (fun () ->
              Exec.serial ?poll rc ~nest ~param:cparam opts)
        in
        match Exec.run ?deadline_ms ~started ?poll ~reference rc opts with
        | Ok { Exec.reference; _ } ->
          let result =
            match opts.reduce with
            | Some op ->
              Printf.sprintf {|"reduce":"%s","result":%s|} (N.op_to_string op)
                (exec_value_json reference)
            | None -> Printf.sprintf {|"checksum":%s|} (exec_value_json reference)
          in
          ( Printf.sprintf
              {|{"op":"exec","label":"%s","status":"ok","fingerprint":"%s","trip":%d,%s,"repeat":%d%s}|}
              (json_escape label) plan.Plan.fingerprint (R.trip_count rc) result opts.repeat
              native_field,
            true,
            false )
        | Error Exec.Empty_extremum -> err "min/max reduction over an empty iteration space"
        | Error (Exec.Region { error = { Ompsim.Par.reason = Ompsim.Par.Deadline_expired; _ }; _ }) ->
          ( error_json ~op:"exec" ~label
              (Printf.sprintf "request deadline expired (timeout %dms)" (Option.get deadline_ms)),
            false,
            true )
        | Error (Exec.Region { run; error }) ->
          err (Printf.sprintf "run %d/%d: %s" run opts.repeat (Ompsim.Par.describe_error error))
        | Error (Exec.Raised { run; exn }) ->
          err (Printf.sprintf "run %d/%d: %s" run opts.repeat (Printexc.to_string exn))
        | Error (Exec.Mismatch { run; parallel; serial }) ->
          err
            (Printf.sprintf "%s mismatch on run %d/%d: parallel %s vs serial %s"
               (if opts.reduce = None then "checksum" else "reduction")
               run opts.repeat (exec_value_json parallel) (exec_value_json serial)))))

let handle ?native ?deadline_ms cache req =
  let line, ok, _ = handle_full ?native ?deadline_ms cache req in
  (line, ok)

(* ---- batch front end ---- *)

(* the run's slice of the ledger, for the stderr summaries *)
let cache_summary since =
  let d = Obsv.Metrics.since since in
  Printf.sprintf
    "plan cache: %d hits (%d disk), %d misses, %d single-flight waits; exec recovery: %d hits, %d misses; exec reference: %d hits, %d misses"
    (d Stats.cache_hits) (d Stats.cache_disk_hits) (d Stats.cache_misses)
    (d Stats.singleflight_waits) (d Stats.recovery_hits) (d Stats.recovery_misses)
    (d Stats.reference_hits) (d Stats.reference_misses)

let native_summary ~front since =
  let served = Obsv.Metrics.since since Stats.native_served in
  let fallbacks = Obsv.Metrics.since since Jit.Stats.fallbacks in
  if served + fallbacks > 0 then
    Printf.eprintf "%s: native: %d served, %d interpreted fallbacks\n%!" front served fallbacks

type item = Blank | Ready of string * bool | Todo of request | Stop

let run_batch ?cache ?native ?(workers = 4) ic oc =
  let cache = match cache with Some c -> c | None -> Cache.default () in
  let native = match native with Some nt -> nt | None -> Native.default () in
  let since = Obsv.Metrics.snapshot () in
  let lines =
    let rec read acc = match input_line ic with
      | line -> read (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    read []
  in
  (* parse everything up front; input after a shutdown line is dropped *)
  let items =
    let stopped = ref false in
    List.mapi
      (fun i line ->
        if !stopped then Blank
        else
          match parse_request line with
          | Ok None -> Blank
          | Error e -> Ready (error_json ~op:"parse" ~label:(Printf.sprintf "line:%d" (i + 1)) e, false)
          | Ok (Some Shutdown) ->
            stopped := true;
            (* deferred: the totals in the acknowledgement must cover
               the batch's own requests, so format at emission time *)
            Stop
          | Ok (Some req) -> Todo req)
      lines
    |> Array.of_list
  in
  let jobs =
    Array.of_list
      (List.filteri (fun i _ -> match items.(i) with Todo _ -> true | Blank | Ready _ | Stop -> false)
         (List.init (Array.length items) Fun.id))
  in
  let results = Array.make (Array.length items) None in
  let njobs = Array.length jobs in
  if njobs > 0 then begin
    (* [workers] admission slots over the domain pool: the in-flight
       bound; requests beyond it queue on the shared index *)
    let next = Atomic.make 0 in
    let level = Atomic.make 0 in
    Ompsim.Pool.run ~nthreads:(max 1 (min workers njobs)) (fun _slot ->
        let rec pull () =
          let j = Atomic.fetch_and_add next 1 in
          if j < njobs then begin
            let i = jobs.(j) in
            let lvl = 1 + Atomic.fetch_and_add level 1 in
            Obsv.Metrics.incr_here Stats.inflight_admissions;
            Obsv.Trace.counter "service.inflight" lvl;
            (match items.(i) with
            | Todo req -> results.(i) <- Some (handle ~native cache req)
            | Blank | Ready _ | Stop -> ());
            Obsv.Trace.counter "service.inflight" (Atomic.fetch_and_add level (-1) - 1);
            pull ()
          end
        in
        pull ())
  end;
  let ok_count = ref 0 and err_count = ref 0 in
  Array.iteri
    (fun i item ->
      let emit (line, ok) =
        output_string oc line;
        output_char oc '\n';
        if ok then incr ok_count else incr err_count
      in
      match item with
      | Blank -> ()
      | Ready (line, ok) -> emit (line, ok)
      | Stop -> emit (shutdown_json (), true)
      | Todo _ -> (
        match results.(i) with
        | Some r -> emit r
        | None -> emit (error_json ~op:"batch" ~label:(Printf.sprintf "line:%d" (i + 1)) "request was not served", false)))
    items;
  flush oc;
  Printf.eprintf "batch: %d requests, %d ok, %d errors; %s\n%!" (!ok_count + !err_count) !ok_count
    !err_count (cache_summary since);
  native_summary ~front:"batch" since;
  if !err_count = 0 then 0 else 1

(* ---- socket front end ---- *)

(* ---- non-blocking multi-client event loop ---- *)

type serve_config = {
  max_clients : int;
  max_inflight : int;
  max_inflight_per_client : int;
  rate_limit : float option;
  rate_burst : int;
  request_timeout_ms : int option;
  max_line : int;
  service_quantum : int;
}

(* a connection whose unflushed output exceeds this stops being read:
   a slow reader throttles itself, not the loop *)
let max_write_buffer = 256 * 1024

(* on shutdown/signal, how long to keep flushing in-flight responses
   before force-closing laggards *)
let drain_timeout_ms = 5_000

let default_serve_config =
  { max_clients = 64;
    max_inflight = 16;
    max_inflight_per_client = 8;
    rate_limit = None;
    rate_burst = 8;
    request_timeout_ms = None;
    max_line = Framing.default_max_line;
    service_quantum = 4 }

type serve_stats = {
  connections : int;
  requests : int;
  responses : int;
  ok_responses : int;
  error_responses : int;
  timeouts : int;
  rejected : int;
  throttled : int;
  health_probes : int;
  pumped : int;
  dropped : int;
  max_concurrent : int;
  inflight_final : int;
  stopped_by : [ `Shutdown | `Signal ];
}

(* a connection's ordered work: responses that are already decided
   (parse errors, oversized-line rejections) interleave with requests
   awaiting service, so the one-response-per-line order is preserved
   under pipelining *)
type queued = Queued_response of string * bool | Queued_request of request

type conn = {
  fd : Unix.file_descr;
  framer : Framing.t;
  work : queued Queue.t;
  out : Buffer.t;  (* bytes not yet accepted by the peer's socket *)
  mutable sent : int;  (* prefix of [out] already written *)
  mutable closing : bool;  (* read side done; flush work + out, then close *)
  mutable reject_sent : bool;  (* the framer-overflow error was queued *)
  mutable inflight : int;  (* this connection's admitted, unserved requests *)
  mutable rl_tokens : float;  (* token bucket for --rate-limit *)
  mutable rl_last : float;  (* last refill instant *)
}

let serve ?cache ?native ?(config = default_serve_config) ~socket () =
  let cache = match cache with Some c -> c | None -> Cache.default () in
  let nt = match native with Some nt -> nt | None -> Native.default () in
  if config.max_clients < 1 then invalid_arg "Server.serve: max_clients must be positive";
  if config.max_inflight < 1 then invalid_arg "Server.serve: max_inflight must be positive";
  if config.max_inflight_per_client < 1 then
    invalid_arg "Server.serve: max_inflight_per_client must be positive";
  if config.rate_burst < 1 then invalid_arg "Server.serve: rate_burst must be positive";
  (match config.rate_limit with
  | Some r when r <= 0. -> invalid_arg "Server.serve: rate_limit must be positive"
  | _ -> ());
  if config.service_quantum < 1 then invalid_arg "Server.serve: service_quantum must be positive";
  (* run accounting: the loop's own tallies, plus the [serve.*]
     ledger read as deltas over the loop's life *)
  let since = Obsv.Metrics.snapshot () in
  let counted = Obsv.Metrics.since since in
  let requests = ref 0 in
  let ok_responses = ref 0 in
  let error_responses = ref 0 in
  let health_served = ref 0 in
  let dropped = ref 0 in
  let max_concurrent = ref 0 in
  let inflight = ref 0 in
  let summary how =
    Printf.eprintf
      "serve (%s): %d connection(s), %d request(s), %d ok, %d errors (%d timeouts, %d rejected, \
       %d throttled), %d answered mid-request; %s\n\
       %!"
      how (counted Stats.serve_accepts) !requests !ok_responses !error_responses
      (counted Stats.serve_timeouts) (counted Stats.serve_rejected)
      (counted Stats.serve_throttled) (counted Stats.serve_pumped) (cache_summary since);
    native_summary ~front:(Printf.sprintf "serve (%s)" how) since
  in
  match
    (match Unix.lstat socket with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Ok (Unix.unlink socket)
    | _ -> Error (Printf.sprintf "%s exists and is not a socket" socket)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ())
  with
  | Error e -> Error e
  | Ok () -> (
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let conns : conn list ref = ref [] in
    let cleanup () =
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
      conns := [];
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ -> ()
    in
    (* SIGINT/SIGTERM turn into a graceful drain: the handler flips
       [stop], select returns (EINTR or timeout), and the loop stops
       accepting/reading, serves every admitted request, flushes every
       response, then exits normally — so the accounting below (and
       any --trace/--stats teardown in the caller) still runs.
       Previous dispositions are restored before returning. *)
    let stop = ref false in
    let install sg =
      match Sys.signal sg (Sys.Signal_handle (fun _ -> stop := true)) with
      | prev -> Some prev
      | exception (Invalid_argument _ | Sys_error _) -> None
    in
    let restore sg = function
      | Some prev -> ( try Sys.set_signal sg prev with Invalid_argument _ | Sys_error _ -> ())
      | None -> ()
    in
    let prev_int = install Sys.sigint in
    let prev_term = install Sys.sigterm in
    (* a peer that resets mid-write must surface as EPIPE on the write,
       not as a process-killing SIGPIPE *)
    let prev_pipe =
      match Sys.signal Sys.sigpipe Sys.Signal_ignore with
      | prev -> Some prev
      | exception (Invalid_argument _ | Sys_error _) -> None
    in
    let finish how =
      cleanup ();
      restore Sys.sigint prev_int;
      restore Sys.sigterm prev_term;
      restore Sys.sigpipe prev_pipe;
      summary how
    in
    try
      Unix.bind fd (Unix.ADDR_UNIX socket);
      (* backlog derived from the admission cap, not a magic constant:
         a connect burst up to the cap must queue while the loop is
         busy in a handler, instead of bouncing with ECONNREFUSED *)
      Unix.listen fd (max 16 (2 * config.max_clients));
      Unix.set_nonblock fd;
      let scratch = Bytes.create 4096 in
      let draining = ref false in
      let drain_deadline = ref infinity in
      let stopped_by = ref `Signal in
      let begin_drain how =
        if not !draining then begin
          draining := true;
          stopped_by := how;
          drain_deadline := Unix.gettimeofday () +. (float_of_int drain_timeout_ms /. 1e3)
        end
      in
      let out_pending c = Buffer.length c.out - c.sent in
      let emit c line ok =
        Buffer.add_string c.out line;
        Buffer.add_char c.out '\n';
        if ok then incr ok_responses else incr error_responses
      in
      let note_admitted c =
        incr requests;
        incr inflight;
        c.inflight <- c.inflight + 1;
        Obsv.Metrics.incr_here Stats.inflight_admissions
      in
      let note_settled c =
        decr inflight;
        c.inflight <- c.inflight - 1
      in
      (* the per-connection token bucket: refilled on demand, capped
         at the burst. Control verbs (health, shutdown) are exempt —
         throttling the liveness probe or the stop switch would defeat
         both. *)
      let rate_ok c =
        match config.rate_limit with
        | None -> true
        | Some rps ->
          let now = Unix.gettimeofday () in
          c.rl_tokens <-
            Float.min
              (float_of_int config.rate_burst)
              (c.rl_tokens +. ((now -. c.rl_last) *. rps));
          c.rl_last <- now;
          c.rl_tokens >= 1.
      in
      let rate_take c = if config.rate_limit <> None then c.rl_tokens <- c.rl_tokens -. 1. in
      (* the trace stream samples the admission level once per batch of
         transitions (post-admit peak, post-service residual), not per
         transition: the [service.inflight] metric above stays exact
         per request, and at hundreds of thousands of requests per
         second a trace record per transition would cost more than the
         work it annotates *)
      let last_traced = ref 0 in
      let trace_inflight () =
        if Obsv.Control.enabled () && !inflight <> !last_traced then begin
          last_traced := !inflight;
          Obsv.Trace.counter "service.inflight" !inflight
        end
      in
      (* forget a connection's unserved requests (its own pipeline
         after [shutdown], or a force-close at the drain deadline) *)
      let clear_work c =
        Queue.iter
          (function
            | Queued_request _ ->
              note_settled c;
              incr dropped
            | Queued_response _ -> incr dropped)
          c.work;
        Queue.clear c.work
      in
      (* admit framed lines into the work queue. Control lines —
         health, shutdown, and anything unparseable, all answered
         without occupying an execution slot — are consumed
         regardless of the admission caps: the liveness probe must
         work exactly when the server is saturated, so the caps may
         gate only real work. Real requests are peeked first and only
         consumed while the admission counter is under the caps — a
         parked request line is what stops this loop (and, since
         responses are answered in input order, legitimately parks
         everything framed behind it on the same connection), while
         the unread socket (plus at most one framer line burst) is
         the backpressure buffer.

         With [~pump] (an idle connection, mid-request) only lines
         that cost a lookup are consumed, each answered by a queued
         response: [health], a [compile] whose plan is in the memory
         tier, and a [compile] the rate limiter refuses. The first
         other line stops the loop and stays framed for the loop, and
         so does the line past [service_quantum] answers (the idle
         queue starts empty and each consumed line queues one): the
         pump's time is charged to the running exec's deadline, and
         the cap keeps a pipelined flood from growing that charge. *)
      let admit ?(pump = false) c =
        let under_caps () =
          !inflight < config.max_inflight && c.inflight < config.max_inflight_per_client
        in
        let continue = ref true in
        while !continue do
          match Framing.peek c.framer with
          | `Pending -> continue := false
          | _ when pump && Queue.length c.work >= config.service_quantum -> continue := false
          | `Overflow when pump -> continue := false
          | `Overflow ->
            if not c.reject_sent then begin
              c.reject_sent <- true;
              c.closing <- true;
              Obsv.Metrics.incr_here Stats.serve_rejected;
              Queue.push
                (Queued_response
                   ( error_json ~op:"parse" ~label:"-"
                       (Printf.sprintf "request line exceeds %d bytes" config.max_line),
                     false ))
                c.work
            end;
            continue := false
          | `Line line -> (
            match parse_request line with
            | Ok None -> Framing.drop c.framer
            | Error _ when pump -> continue := false
            | Error e ->
              Framing.drop c.framer;
              Queue.push (Queued_response (error_json ~op:"parse" ~label:"-" e, false)) c.work
            | Ok (Some Health) ->
              (* liveness probe: answered at admit time with the live
                 inflight depth, never admitted, exempt from the
                 admission caps and the rate limiter (it must work
                 exactly when the server is saturated), and not
                 counted in [requests] — the cache-counter
                 reconciliation invariant covers admitted work only *)
              Framing.drop c.framer;
              incr health_served;
              Queue.push
                (Queued_response (health_json ~native:nt ~inflight:!inflight (), true))
                c.work
            | Ok (Some Shutdown) when pump -> continue := false
            | Ok (Some Shutdown) ->
              (* the stop switch is exempt from rate limiting and the
                 admission caps alike: a saturated server must still
                 be stoppable *)
              Framing.drop c.framer;
              note_admitted c;
              Queue.push (Queued_request Shutdown) c.work
            | Ok (Some (Exec _)) when pump -> continue := false
            | Ok (Some _) when not (under_caps ()) -> continue := false
            | Ok (Some req) when not (rate_ok c) ->
              Framing.drop c.framer;
              Obsv.Metrics.incr_here Stats.serve_throttled;
              Queue.push (Queued_response (overload_json req, false)) c.work
            | Ok (Some (Compile { label; nest })) when pump -> (
              (* the lookup books the hit [handle_full] would have *)
              match Cache.find_warm cache nest with
              | None -> continue := false
              | Some plan ->
                Framing.drop c.framer;
                rate_take c;
                note_admitted c;
                note_settled c;
                Queue.push (Queued_response (compile_json ~label plan, true)) c.work)
            | Ok (Some req) ->
              Framing.drop c.framer;
              rate_take c;
              note_admitted c;
              Queue.push (Queued_request req) c.work)
        done
      in
      let read_conn c =
        match Unix.read c.fd scratch 0 (Bytes.length scratch) with
        | 0 -> c.closing <- true (* half-close: serve what was framed, then close *)
        | n -> Framing.feed c.framer scratch 0 n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ ->
          c.closing <- true;
          Buffer.clear c.out;
          c.sent <- 0;
          clear_work c
      in
      let flush_conn c =
        let continue = ref true in
        while !continue && out_pending c > 0 do
          let len = out_pending c in
          match Unix.write_substring c.fd (Buffer.contents c.out) c.sent len with
          | written ->
            c.sent <- c.sent + written;
            if c.sent = Buffer.length c.out then begin
              Buffer.clear c.out;
              c.sent <- 0
            end;
            if written < len then continue := false
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            continue := false
          | exception Unix.Unix_error _ ->
            (* the peer is gone; its pending responses are undeliverable *)
            dropped := !dropped + (if out_pending c > 0 then 1 else 0);
            Buffer.clear c.out;
            c.sent <- 0;
            c.closing <- true;
            clear_work c;
            continue := false
        done
      in
      let accept_burst () =
        let continue = ref true in
        while (not !draining) && !continue && List.length !conns < config.max_clients do
          match Unix.accept fd with
          | client, _ ->
            Unix.set_nonblock client;
            Obsv.Metrics.incr_here Stats.serve_accepts;
            conns :=
              { fd = client;
                framer = Framing.create ~max_line:config.max_line ();
                work = Queue.create ();
                out = Buffer.create 512;
                sent = 0;
                closing = false;
                reject_sent = false;
                inflight = 0;
                rl_tokens = float_of_int config.rate_burst;
                rl_last = Unix.gettimeofday () }
              :: !conns;
            max_concurrent := max !max_concurrent (List.length !conns)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
        done
      in
      (* the loop's safe-point hook, handed to every exec it serves.
         Once the loop has been away from its [select] for
         [pump_after_s] (one clock read per call until then), a
         zero-timeout select polls the listening socket and the idle
         connections — nothing queued, framed, in flight or
         unflushed, which also excludes the one being served. A
         pending connect is accepted there, and the new connection
         read at once, so a client that connected during a long exec
         is answered too. The lines [admit ~pump:true] consumes are
         answered in place: their responses are the connection's next
         bytes, so its order is kept. Never re-entered; everything
         else waits for the loop. *)
      let pump_after_s = 0.5e-3 in
      let last_select = ref (Unix.gettimeofday ()) in
      let pumping = ref false in
      let idle c =
        (not c.closing) && (not c.reject_sent) && c.inflight = 0 && out_pending c = 0
        && Queue.is_empty c.work
        && (not (Framing.overflowed c.framer))
        && not (Framing.has_line c.framer)
      in
      (* emit the responses at the head of [c]'s queue; how many *)
      let rec emit_ready c =
        match Queue.peek_opt c.work with
        | Some (Queued_response (line, ok)) ->
          ignore (Queue.pop c.work);
          emit c line ok;
          1 + emit_ready c
        | Some (Queued_request _) | None -> 0
      in
      let pump () =
        if (not !pumping) && (not !draining)
           && Unix.gettimeofday () -. !last_select >= pump_after_s
        then begin
          pumping := true;
          Fun.protect
            ~finally:(fun () ->
              last_select := Unix.gettimeofday ();
              pumping := false)
            (fun () ->
              let idle = List.filter idle !conns in
              let listening = if List.length !conns < config.max_clients then [ fd ] else [] in
              match Unix.select (listening @ List.map (fun c -> c.fd) idle) [] [] 0.0 with
              | exception Unix.Unix_error _ -> ()
              | ready, _, _ ->
                let known = !conns in
                if List.mem fd ready then accept_burst ();
                let fresh = List.filter (fun c -> not (List.memq c known)) !conns in
                List.iter
                  (fun c ->
                    if List.memq c fresh || List.mem c.fd ready then begin
                      read_conn c;
                      admit ~pump:true c;
                      Obsv.Metrics.add_here Stats.serve_pumped (emit_ready c);
                      flush_conn c
                    end)
                  (fresh @ idle))
        end
      in
      (* serve up to [service_quantum] admitted requests (and any
         number of ready responses) from this connection — the
         per-connection, per-turn quantum bounds how long a pipelining
         client can monopolize the loop, so it cannot starve everyone
         else, while batching its responses into one write *)
      let rec service_step budget c =
        if budget > 0 then
          match Queue.take_opt c.work with
          | None -> ()
          | Some (Queued_response (line, ok)) ->
            emit c line ok;
            service_step budget c
          | Some (Queued_request Shutdown) ->
            note_settled c;
            emit c (shutdown_json ()) true;
            (* like the batch front end, a connection's own input after
               its [shutdown] is dropped; everyone else drains normally *)
            clear_work c;
            c.closing <- true;
            begin_drain `Shutdown
          | Some (Queued_request req) ->
            let line, ok, timed_out =
              handle_full ~native:nt ?deadline_ms:config.request_timeout_ms ~poll:pump cache req
            in
            note_settled c;
            if timed_out then Obsv.Metrics.incr_here Stats.serve_timeouts;
            emit c line ok;
            service_step (budget - 1) c
      in
      (* while draining, a connection with nothing left to say is done
         even if the peer never closed its end *)
      let finished c =
        Queue.is_empty c.work && out_pending c = 0
        && (c.closing || (!draining && not (Framing.has_line c.framer)))
      in
      let loop_running = ref true in
      while !loop_running do
        if !stop then begin_drain `Signal;
        (* close connections that are done (their framer may still
           hold an unterminated partial line — by then unanswerable) *)
        let closing, live = List.partition finished !conns in
        List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) closing;
        conns := live;
        if !draining && !conns = [] then loop_running := false
        else if !draining && Unix.gettimeofday () > !drain_deadline then begin
          (* a peer that stopped reading cannot hold shutdown hostage:
             force-close whatever could not be flushed in time *)
          List.iter
            (fun c ->
              clear_work c;
              if out_pending c > 0 then incr dropped;
              try Unix.close c.fd with Unix.Unix_error _ -> ())
            !conns;
          conns := [];
          loop_running := false
        end
        else begin
          (* at the admission caps a connection is still read as long
             as it has no parked line: control verbs (health,
             shutdown) must reach the admission loop even when the
             server is saturated. A framed line that survived [admit]
             is necessarily a real request the caps parked — only
             then does reading stop, so the framer backlog stays
             bounded by one scratch-read burst per connection. *)
          let readable_wanted c =
            (not !draining) && (not c.closing)
            && (not (Framing.overflowed c.framer))
            && out_pending c < max_write_buffer
            && ((not (Framing.has_line c.framer))
               || (!inflight < config.max_inflight
                  && c.inflight < config.max_inflight_per_client))
          in
          let read_fds =
            (if (not !draining) && List.length !conns < config.max_clients then [ fd ] else [])
            @ List.filter_map (fun c -> if readable_wanted c then Some c.fd else None) !conns
          in
          let write_fds = List.filter_map (fun c -> if out_pending c > 0 then Some c.fd else None) !conns in
          (* work already in hand (queued items, or framed lines that
             the admission cap will let through) means the select is
             just an I/O poll, not a wait *)
          let work_pending =
            List.exists
              (fun c ->
                (not (Queue.is_empty c.work))
                || (!inflight < config.max_inflight
                   && c.inflight < config.max_inflight_per_client
                   && (not c.reject_sent)
                   && Framing.has_line c.framer))
              !conns
          in
          let timeout = if work_pending then 0.0 else 0.05 in
          (match Unix.select read_fds write_fds [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready_read, ready_write, _ ->
            last_select := Unix.gettimeofday ();
            if List.mem fd ready_read then accept_burst ();
            List.iter
              (fun c -> if List.mem c.fd ready_read then read_conn c)
              !conns;
            List.iter (fun c -> if not c.reject_sent then admit c) !conns;
            trace_inflight ();
            List.iter (service_step config.service_quantum) !conns;
            trace_inflight ();
            (* opportunistic flush for low latency; select-driven flush
               for peers whose buffers were full *)
            List.iter
              (fun c -> if out_pending c > 0 || List.mem c.fd ready_write then flush_conn c)
              !conns)
        end
      done;
      let how = !stopped_by in
      finish (match how with `Signal -> "signal" | `Shutdown -> "shutdown");
      Ok
        { connections = counted Stats.serve_accepts;
          requests = !requests;
          responses = !ok_responses + !error_responses;
          ok_responses = !ok_responses;
          error_responses = !error_responses;
          timeouts = counted Stats.serve_timeouts;
          rejected = counted Stats.serve_rejected;
          dropped = !dropped;
          max_concurrent = !max_concurrent;
          inflight_final = !inflight;
          throttled = counted Stats.serve_throttled;
          health_probes = !health_served;
          pumped = counted Stats.serve_pumped;
          stopped_by = how }
    with Unix.Unix_error (e, fn, _) ->
      finish "error";
      Error (Printf.sprintf "serve: %s: %s" fn (Unix.error_message e)))
