type state = Closed | Open | Half_open

type t = {
  threshold : int;
  cooldown_ms : float;
  now_ms : unit -> float;
  mutex : Mutex.t;
  mutable st : state;
  mutable consecutive : int;
  mutable opened_at : float;
  mutable probing : bool;  (* a half-open probe is in flight *)
}

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | _ -> default

let create ?threshold ?cooldown_ms ?now_ms () =
  let threshold =
    match threshold with
    | Some n -> max 1 n
    | None -> env_int "OMPSIM_JIT_BREAKER_THRESHOLD" 3
  in
  let cooldown_ms =
    match cooldown_ms with
    | Some n -> float_of_int (max 0 n)
    | None -> float_of_int (env_int "OMPSIM_JIT_BREAKER_COOLDOWN_MS" 1000)
  in
  let now_ms =
    match now_ms with Some f -> f | None -> fun () -> Unix.gettimeofday () *. 1000.
  in
  { threshold;
    cooldown_ms;
    now_ms;
    mutex = Mutex.create ();
    st = Closed;
    consecutive = 0;
    opened_at = 0.;
    probing = false }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let acquire t =
  locked t @@ fun () ->
  match t.st with
  | Closed -> true
  | Half_open ->
    if t.probing then begin
      Obsv.Metrics.incr_here Stats.breaker_rejects;
      false
    end
    else begin
      t.probing <- true;
      Obsv.Metrics.incr_here Stats.breaker_probes;
      true
    end
  | Open ->
    if t.now_ms () -. t.opened_at >= t.cooldown_ms then begin
      (* cooldown over: this caller becomes the half-open probe *)
      t.st <- Half_open;
      t.probing <- true;
      Obsv.Metrics.incr_here Stats.breaker_probes;
      true
    end
    else begin
      Obsv.Metrics.incr_here Stats.breaker_rejects;
      false
    end

let success t =
  locked t @@ fun () ->
  if t.st <> Closed then Obsv.Metrics.incr_here Stats.breaker_closes;
  t.st <- Closed;
  t.probing <- false;
  t.consecutive <- 0

let open_now t =
  t.st <- Open;
  t.probing <- false;
  t.opened_at <- t.now_ms ();
  Obsv.Metrics.incr_here Stats.breaker_opens

let failure t =
  locked t @@ fun () ->
  t.consecutive <- t.consecutive + 1;
  match t.st with
  | Half_open -> open_now t  (* failed probe: straight back to open *)
  | Closed -> if t.consecutive >= t.threshold then open_now t
  | Open -> ()

let state t = locked t @@ fun () -> t.st
let failures t = locked t @@ fun () -> t.consecutive

let state_name = function Closed -> "closed" | Open -> "open" | Half_open -> "half-open"
