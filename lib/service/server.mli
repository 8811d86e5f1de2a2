(** The compilation-service front end: a line-oriented request
    protocol served over batch files ([trahrhe batch]) or a Unix
    domain socket ([trahrhe serve]), with every plan lookup going
    through a shared {!Cache}.

    {2 Protocol}

    One request per line; blank lines and lines starting with [#] are
    ignored. A request is an operation followed by [key=value] fields
    (no spaces inside a field; the first [=] splits key from value):

    {v
    compile kernel=utma
    compile params=N levels=i=0..N,j=i..N label=tri
    exec kernel=correlation n=40 threads=4 schedule=dynamic:2
    exec params=N=25 levels=i=0..N,j=i..i+1 lanes=8 repeat=3
    health
    shutdown
    v}

    - [kernel=NAME] names a built-in kernel; alternatively
      [params=...] + [levels=...] give an inline nest. [params] is a
      comma-separated list of [NAME] or [NAME=VALUE] (values are
      required for [exec]); [levels] is a comma-separated list of
      [VAR=LOWER..UPPER] with affine bounds over parameters and outer
      iterators — grammar [['-'] term (('+'|'-') term)*] where a term
      is [INT], [IDENT] or [INT*IDENT].
    - [exec] options: [n] (kernel headline size), [threads], [schedule]
      (as in [trahrhe exec -s]), [lanes], [repeat], [retries],
      [native] ([0/1] or [true/false]: route the walk through the
      JIT-specialized shared object, falling back to the interpreted
      walk when none can be attached), [label].
    - [reduce=sum|prod|min|max] executes the region as a parallel
      reduction over the collapsed range instead of the checksum walk:
      per-worker partial accumulators folded by a deterministic combine
      tree, checked exactly against the serial fold. The reduced value
      polynomial is the nest's declared clause when it has one, the
      canonical default otherwise; the value is part of the plan's
      fingerprint, the operator is not, so every op of a nest (and a
      clause-declaring kernel's checksum) runs one plan, one recovery
      and one native object. [sum] reduces in wrapped int64 (and can run
      natively under [native=1]); [prod]/[min]/[max] reduce in exact
      rationals and report the result as a JSON string. Example:
      [exec kernel=utma n=50 threads=4 schedule=dnc:2 reduce=sum].
    - [health] reports liveness and robustness state in one JSON
      line: the compile circuit breaker's state
      ([state]/[consecutive_failures]), and from the process-wide
      counter ledger ({!Stats}, {!Jit.Stats}) its [opens]/
      [rejections]/[probes], the plan cache's counters (including
      [quarantined], [lock_waits], [lock_steals], [janitor_removed]),
      the native backend's served/fallback totals (plus its
      [last_error] when one is recorded) and the [inversion] level
      counts; then the serve loop's current admitted depth
      ([inflight]). Under [serve] it is
      answered at admission time, bypassing the admission cap and the
      rate limiter, so it works exactly when the server is saturated;
      it is deliberately {e not} byte-stable.
    - [shutdown] stops a server loop (and ends a batch early); its
      acknowledgement carries the [cache.hit]/[cache.miss] totals.

    Every request yields exactly one JSON response line. Responses are
    deterministic — they carry no timings and no cache state, so two
    batch runs over the same input produce byte-identical output (the
    CI cache smoke depends on this); hit/miss accounting goes to the
    batch summary on stderr instead. The one exception is the
    [shutdown] acknowledgement, whose cache totals reflect the run
    (tooling that needs byte-stable output should diff response lines
    excluding it). An [exec] with [native=1] reports
    ["native":true|false] — whether the backend actually engaged —
    and, on fallback, ["native_error"] with the reason (including the
    first ~2 KB of the C compiler's stderr on a compile failure). *)

type request =
  | Compile of { label : string; nest : Trahrhe.Nest.t }
  | Exec of {
      label : string;
      nest : Trahrhe.Nest.t;
      param : string -> int;  (** valuation in the nest's own names *)
      opts : Exec.opts;  (** the parser's defaults: 4 threads, [Static], 1 lane, 1 run *)
    }
  | Health
  | Shutdown

(** [parse_request line] is [Ok None] for a blank/comment line,
    [Ok (Some r)] for a well-formed request, [Error msg] otherwise. *)
val parse_request : string -> (request option, string) result

(** [handle cache r] serves one request and returns its JSON response
    line together with whether the request succeeded. [Exec] compiles
    (or fetches) the plan and hands it to {!Exec.run}, which runs the
    collapsed nest [repeat] times on OCaml domains reusing one
    recovery, and checks every run against a serial reference computed
    once. With [opts.native], the recovery
    comes from [native] (default: {!Native.default}) and each chunk's
    checksum is one [walk_hash] call — a single native invocation when
    the backend engaged, the equivalent interpreted fold otherwise.

    [deadline_ms] budgets the whole request, measured from entry: the
    plan and recovery lookup (a cold compile included), the serial
    reference walk (checked every 4096 points) and all [repeat] runs
    share it. When it expires the response is a deterministic
    [status:"error"] line naming the timeout, so the byte-stability
    contract above still holds, and a reference cut short is not
    memoized. Each parallel run is
    one supervised [Par.reduce] region: it injects the armed
    [OMPSIM_FAULTS] configuration, recovers from it, and stops
    launching chunks once the deadline passes; [compile] requests are
    never deadlined (the symbolic pipeline is not cancellable mid-flight). *)
val handle : ?native:Native.t -> ?deadline_ms:int -> Cache.t -> request -> string * bool

(** [run_batch ic oc] reads requests from [ic] (stopping early at
    [shutdown]), serves them on [workers] concurrent admission slots
    (default 4 — the in-flight bound; excess requests queue, which is
    the batch front end's backpressure), and writes all response lines
    to [oc] in input order. Admissions bump the [service.inflight]
    counter and, with tracing on, emit the instantaneous in-flight
    level as Chrome counter samples. A one-line cache/hit summary goes
    to stderr. Returns the exit code: 0 when every request succeeded,
    1 otherwise. *)
val run_batch :
  ?cache:Cache.t -> ?native:Native.t -> ?workers:int -> in_channel -> out_channel -> int

type serve_config = {
  max_clients : int;
      (** connections multiplexed at once (default 64); the listen
          backlog is derived from this, so a connect burst up to the
          cap queues instead of bouncing *)
  max_inflight : int;
      (** admission cap: requests admitted (queued or executing)
          across all connections (default 16). A connection whose
          next framed line the cap parks stops being read — unread
          sockets are the backpressure buffer. Control verbs
          ([health], [shutdown]) are exempt: they are consumed and
          answered even at the cap, so the liveness probe works
          exactly when the server is saturated. *)
  max_inflight_per_client : int;
      (** per-connection admission cap (default 8): one pipelining
          client can hold at most this many of the [max_inflight]
          slots, so a flood cannot monopolize admission. At its cap a
          connection with a parked request line simply stops being
          read (backpressure), it is not sent errors; [health] and
          [shutdown] remain exempt here too. *)
  rate_limit : float option;
      (** requests per second per connection (default [None] =
          unlimited), enforced by a token bucket of capacity
          [rate_burst]. Over-rate requests receive a deterministic
          [status:"error"] line with [error:"rejected:overload"]
          (counted in [throttled] / [serve.throttled]) and the
          connection stays open. [health] and [shutdown] are exempt. *)
  rate_burst : int;
      (** token-bucket capacity for [rate_limit] (default 8): the
          burst a quiet connection may send before pacing applies *)
  request_timeout_ms : int option;
      (** per-request deadline passed to {!handle} (default [None]) *)
  max_line : int;  (** framer line bound (default {!Framing.default_max_line}) *)
  service_quantum : int;
      (** requests served per connection per loop turn (default 4):
          the fairness/throughput dial. A pipelining client gets at
          most this many answers before the loop moves on, and its
          responses batch into one write. *)
}

val default_serve_config : serve_config

type serve_stats = {
  connections : int;  (** accepted over the run ([serve.accept]) *)
  requests : int;  (** admitted requests (= [service.inflight] bumps) *)
  responses : int;  (** response lines emitted, including errors *)
  ok_responses : int;
  error_responses : int;
  timeouts : int;  (** deadline-expired requests ([serve.timeout]) *)
  rejected : int;  (** oversized-line rejections ([serve.rejected]) *)
  throttled : int;
      (** requests refused with [rejected:overload] by the
          per-connection rate limiter ([serve.throttled]) *)
  health_probes : int;
      (** [health] requests answered — not counted in [requests],
          which covers admitted work only *)
  pumped : int;
      (** lines answered from inside another request's exec
          ([serve.pumped]): [health] and warm [compile] on idle
          connections, also counted in [health_probes] or [requests] *)
  dropped : int;
      (** admitted requests or finished responses discarded because
          the peer vanished or the drain deadline passed — 0 in any
          clean run *)
  max_concurrent : int;  (** peak simultaneous connections *)
  inflight_final : int;  (** admission counter at exit — always 0 *)
  stopped_by : [ `Shutdown | `Signal ];
}

(** [serve ?cache ?native ?config ~socket ()] listens on a Unix domain
    socket at path [socket] (replacing a stale socket file) and
    multiplexes up to [config.max_clients] connections over one
    [Unix.select] event loop: nonblocking fds, per-connection
    incremental line framing ({!Framing} — partial reads and pipelined
    requests are first-class), bounded read/write buffers, and at most
    [config.service_quantum] requests served per connection per loop
    turn so a pipelining client cannot starve the rest. Requests execute inline in the loop's
    domain — their parallel regions ride the shared {!Ompsim.Pool} —
    so concurrency buys overlap of client round-trips, not parallel
    request execution. Cheap requests do not wait for a long [exec],
    though: at the exec's safe points ({!Exec.run}'s [poll]), once the
    loop has been away from its [select] for 0.5 ms, it accepts any
    pending connection (up to [max_clients]), reads the new and the
    idle connections (nothing queued, in flight or unflushed) and answers
    [health] and any [compile] whose plan is in the memory tier in
    place, through the same parse, cap and rate-limit code; any other
    line stays framed for the loop, so each connection's response
    order and bytes are unchanged. These answers are counted in
    [pumped]. Their time counts toward the running exec's
    [request_timeout_ms] budget, so one pump answers at most
    [service_quantum] lines per connection; the rest of a pipelined
    burst waits for the loop.

    Returns after a client sends [shutdown], or on SIGINT/SIGTERM;
    both paths drain gracefully: stop accepting and reading, serve
    every admitted request, flush every response (for at most 5 s),
    then unlink the socket, restore the previous signal dispositions,
    and write the accounting summary to stderr.
    Its [connections], [timeouts], [rejected] and [throttled] are the
    loop's deltas of the [serve.*] counters ({!Stats}), so they assume
    one serve loop per process. *)
val serve :
  ?cache:Cache.t ->
  ?native:Native.t ->
  ?config:serve_config ->
  socket:string ->
  unit ->
  (serve_stats, string) result
