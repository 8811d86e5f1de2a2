(* Deterministic seeded fault injection. See fault.mli for the model. *)

type t = {
  p : float;
  seed : int;
  stall_p : float;
  stall_us : int;
  max_injections : int;
}

exception Injected of { start : int; len : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected { start; len; attempt } ->
      Some (Printf.sprintf "Fault.Injected(start=%d, len=%d, attempt=%d)" start len attempt)
    | _ -> None)

let default = { p = 0.1; seed = 42; stall_p = 0.0; stall_us = 50; max_injections = -1 }

(* ---------------- spec parsing ---------------- *)

let parse_float key v =
  match float_of_string_opt v with
  | Some f when f >= 0.0 && f <= 1.0 -> Ok f
  | Some _ -> Error (Printf.sprintf "fault spec: %s=%s out of [0,1]" key v)
  | None -> Error (Printf.sprintf "fault spec: %s=%s is not a number" key v)

let parse_int key v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "fault spec: %s=%s is not an integer" key v)

let of_spec s =
  let s = String.trim s in
  match String.lowercase_ascii s with
  | "" -> Error "fault spec: empty"
  | "1" | "on" | "true" | "yes" -> Ok default
  | _ ->
    let fields = String.split_on_char ',' s in
    List.fold_left
      (fun acc field ->
        Result.bind acc (fun cfg ->
            let field = String.trim field in
            match String.index_opt field '=' with
            | None -> Error (Printf.sprintf "fault spec: %S is not key=value" field)
            | Some i ->
              let key = String.trim (String.sub field 0 i) in
              let v = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
              (match key with
              | "p" -> Result.map (fun p -> { cfg with p }) (parse_float key v)
              | "stall" -> Result.map (fun stall_p -> { cfg with stall_p }) (parse_float key v)
              | "seed" -> Result.map (fun seed -> { cfg with seed }) (parse_int key v)
              | "stall_us" ->
                Result.bind (parse_int key v) (fun stall_us ->
                    if stall_us < 0 then Error (Printf.sprintf "fault spec: stall_us=%d negative" stall_us)
                    else Ok { cfg with stall_us })
              | "max" -> Result.map (fun max_injections -> { cfg with max_injections }) (parse_int key v)
              | _ ->
                Error
                  (Printf.sprintf "fault spec: unknown key %S (expected p|seed|stall|stall_us|max)" key))))
      (Ok default) fields

let to_spec t =
  Printf.sprintf "p=%g,seed=%d,stall=%g,stall_us=%d,max=%d" t.p t.seed t.stall_p t.stall_us
    t.max_injections

(* ---------------- global configuration ---------------- *)

let state : t option Atomic.t =
  Atomic.make
    (match Sys.getenv_opt "OMPSIM_FAULTS" with
    | None -> None
    | Some s -> (
      match of_spec s with
      | Ok cfg -> Some cfg
      | Error msg ->
        Printf.eprintf "OMPSIM_FAULTS ignored: %s\n%!" msg;
        None))

let get () = Atomic.get state
let set cfg = Atomic.set state cfg
let armed () = get () <> None

let with_faults cfg f =
  let saved = Atomic.exchange state cfg in
  Fun.protect ~finally:(fun () -> Atomic.set state saved) f

(* ---------------- deterministic decisions ---------------- *)

(* splitmix-style finalizer on the native 63-bit int; multiplication
   wraps, which is fine — all that matters is that the map is fixed
   (the odd constants are the murmur3 finalizers truncated to fit) *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x3F51AFD7ED558CC5 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x24CEB9FE1A85EC53 in
  x lxor (x lsr 32)

(* uniform-ish draw in [0,1) from (seed, start, attempt, salt); salt
   decorrelates the failure draw from the stall draw *)
let chance cfg ~start ~attempt ~salt =
  let h = mix (cfg.seed + (0x9E3779B9 * (start + 1)) + (0x85EBCA6B * (attempt + 1)) + salt) in
  float_of_int (h land 0x3FFFFFFF) /. 1073741824.0

let decide cfg ~start ~attempt = cfg.p > 0.0 && chance cfg ~start ~attempt ~salt:0 < cfg.p
let decide_stall cfg ~start ~attempt = cfg.stall_p > 0.0 && chance cfg ~start ~attempt ~salt:1 < cfg.stall_p

(* ---------------- injection ---------------- *)

let budget = Atomic.make 0
let reset_budget () = Atomic.set budget 0

(* the budget is only consumed by decisions that would inject, so a
   spec with max=k injects exactly the first k positive decisions *)
let budget_allows cfg = cfg.max_injections < 0 || Atomic.fetch_and_add budget 1 < cfg.max_injections

let busy_wait_us us =
  if us > 0 then begin
    let until = Obsv.Clock.now_ns () + (us * 1_000) in
    while Obsv.Clock.now_ns () < until do
      Domain.cpu_relax ()
    done
  end

let inject cfg ~start ~len ~attempt =
  if decide_stall cfg ~start ~attempt then begin
    Obsv.Metrics.incr_here Stats.fault_stalls;
    busy_wait_us cfg.stall_us
  end;
  if decide cfg ~start ~attempt && budget_allows cfg then begin
    Obsv.Metrics.incr_here Stats.faults_injected;
    raise (Injected { start; len; attempt })
  end
