module R = Trahrhe.Recovery

type t = {
  dir : string option;
  mutex : Mutex.t;
  tbl : (string, (Jit.Native.handle, string) result) Hashtbl.t;
  flights : Jit.Native.handle Single_flight.t;
  breaker : Jit.Breaker.t;
  mutable last_error : string option;
}

let create ?dir ?breaker () =
  let dir = match dir with Some d -> d | None -> Plan.store_dir () in
  let breaker = match breaker with Some b -> b | None -> Jit.Breaker.create () in
  { dir;
    mutex = Mutex.create ();
    tbl = Hashtbl.create 16;
    flights = Single_flight.create ();
    breaker;
    last_error = None }

let default_t = lazy (create ())
let default () = Lazy.force default_t
let dir t = t.dir
let breaker t = t.breaker

(* one validated handle per plan fingerprint, so a warm request is one
   lookup. On a miss the plan's source is emitted and its object
   single-flighted on the source digest, exactly like plan compiles:
   plans that emit the same C build one object, and a later plan of
   that digest loads it from [dir]. Only plan-shaped failures (the
   emitter rejected the inversion) are cached: those are deterministic, so retrying the same fingerprint
   would fail identically forever. Toolchain failures — missing
   compiler, wedged cc, compile timeout — are NOT cached: they are
   transient, and pinning them would keep a fingerprint on the
   interpreted walk even after the toolchain recovers. Their retry
   cost is bounded by the circuit breaker (a broken toolchain trips it
   within [threshold] attempts, after which rejections are in-memory
   and free), and a breaker rejection itself is likewise never cached
   — that is the breaker talking, not the toolchain. *)
let build t (src : Jit.Emit.source) =
  let key = src.Jit.Emit.digest in
  Mutex.lock t.mutex;
  match Single_flight.join t.flights key with
  | Some fl ->
    let r = Single_flight.await fl ~mutex:t.mutex in
    Mutex.unlock t.mutex;
    r
  | None ->
    let fl = Single_flight.enter t.flights key in
    Mutex.unlock t.mutex;
    let result = Jit.Compile.build ?dir:t.dir ~breaker:t.breaker src in
    Mutex.lock t.mutex;
    Single_flight.publish t.flights key fl result;
    Mutex.unlock t.mutex;
    result

let handle_for t fp inv =
  Mutex.lock t.mutex;
  let cached = Hashtbl.find_opt t.tbl fp in
  Mutex.unlock t.mutex;
  match cached with
  | Some r -> r
  | None ->
    let result = Result.bind (Jit.Compile.emit inv) (build t) in
    Mutex.lock t.mutex;
    (match result with
    | Ok _ -> Hashtbl.replace t.tbl fp result
    | Error e ->
      if Jit.Compile.is_plan_error e then Hashtbl.replace t.tbl fp result;
      t.last_error <- Some e);
    Mutex.unlock t.mutex;
    result

let recovery_explain t (plan : Plan.t) ~param rc =
  if R.overflow_guarded rc then begin
    (* PR-4 overflow mode stays interpreted: int64 C would wrap *)
    Obsv.Metrics.incr_here Jit.Stats.fallbacks;
    (rc, Some "overflow-guarded nest stays interpreted")
  end
  else begin
    match handle_for t plan.Plan.fingerprint plan.Plan.inversion with
    | Error e ->
      Obsv.Metrics.incr_here Jit.Stats.fallbacks;
      (rc, Some e)
    | Ok h ->
      let ps =
        Array.of_list
          (List.map param plan.Plan.inversion.Trahrhe.Inversion.nest.Trahrhe.Nest.params)
      in
      (* cheap end-to-end cross-check before trusting the object *)
      if Jit.Native.trip h ps <> R.trip_count rc then begin
        Obsv.Metrics.incr_here Jit.Stats.fallbacks;
        (rc, Some "native trip-count cross-check mismatch")
      end
      else begin
        Obsv.Metrics.incr_here Stats.native_served;
        ( R.attach_native rc
            { R.n_walk_hash = (fun ~pc ~len -> Jit.Native.walk_hash h ps ~pc ~len);
              n_recover = (fun ~pc idx -> Jit.Native.recover h ps ~pc idx);
              n_reduce = (fun op ~pc ~len -> Jit.Native.reduce h ps op ~pc ~len) },
          None )
      end
  end

let recovery t plan ~param rc = fst (recovery_explain t plan ~param rc)

let last_error t =
  Mutex.lock t.mutex;
  let e = t.last_error in
  Mutex.unlock t.mutex;
  e

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.iter (fun _ r -> match r with Ok h -> Jit.Native.close h | Error _ -> ()) t.tbl;
  Hashtbl.reset t.tbl;
  t.last_error <- None;
  Mutex.unlock t.mutex
