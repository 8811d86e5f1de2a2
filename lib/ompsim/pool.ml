(* Persistent domain pool: per-worker mailboxes + a reusable countdown
   latch. See pool.mli for the contract. *)

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (int -> unit) option;
  mutable stop : bool;
}

(* structured worker failure: which slot raised what, with the
   backtrace captured at the raise site so the re-raise in [run]
   preserves it (Printexc.raise_with_backtrace) instead of resetting
   the trace to the pool's own join code *)
type failure = { slot : int; error : exn; backtrace : Printexc.raw_backtrace }

(* reusable completion latch (the join barrier of a dispatch) *)
type latch = {
  lm : Mutex.t;
  lc : Condition.t;
  mutable pending : int;
  mutable failure : failure option;
}

type pool = {
  mutable workers : worker array;  (* worker j serves slot j+1 *)
  mutable domains : unit Domain.t array;
  latch : latch;
  dispatch : Mutex.t;  (* one dispatch at a time; busy -> spawn fallback *)
}

let the_pool : pool option ref = ref None
let pool_lock = Mutex.create ()

let record_failure l slot e =
  let backtrace = Printexc.get_raw_backtrace () in
  Mutex.lock l.lm;
  if l.failure = None then l.failure <- Some { slot; error = e; backtrace };
  Mutex.unlock l.lm

let arrive l =
  Mutex.lock l.lm;
  l.pending <- l.pending - 1;
  if l.pending = 0 then Condition.broadcast l.lc;
  Mutex.unlock l.lm

let worker_loop latch w slot =
  let continue = ref true in
  while !continue do
    Mutex.lock w.mutex;
    (* obsv: bill the time parked on the mailbox to this slot; the
       clock is only read when the layer is on and a wait is imminent *)
    let idle_from =
      if w.job = None && not w.stop && Obsv.Control.enabled () then Obsv.Clock.now_ns () else 0
    in
    while w.job = None && not w.stop do
      Condition.wait w.cond w.mutex
    done;
    let job = w.job in
    w.job <- None;
    let stop = w.stop in
    Mutex.unlock w.mutex;
    if idle_from <> 0 then
      Obsv.Metrics.add Stats.pool_idle_ns ~slot (Obsv.Clock.now_ns () - idle_from);
    (match job with
    | Some f ->
      Obsv.Metrics.incr Stats.pool_dispatches ~slot;
      if Obsv.Control.enabled () then Obsv.Trace.name_thread (Printf.sprintf "pool worker %d" slot);
      (try f slot with e -> record_failure latch slot e);
      arrive latch
    | None -> ());
    if stop && job = None then continue := false
  done

let fresh_worker () =
  { mutex = Mutex.create (); cond = Condition.create (); job = None; stop = false }

let stop_and_join workers domains =
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      w.stop <- true;
      Condition.signal w.cond;
      Mutex.unlock w.mutex)
    workers;
  Array.iter Domain.join domains

let shutdown_pool p =
  stop_and_join p.workers p.domains;
  p.workers <- [||];
  p.domains <- [||]

let shutdown () =
  Mutex.lock pool_lock;
  let p = !the_pool in
  the_pool := None;
  Mutex.unlock pool_lock;
  match p with Some p -> shutdown_pool p | None -> ()

let at_exit_registered = ref false

(* grow [p] by [extra] workers, all or nothing: when a spawn fails
   (the runtime's domain limit) the workers already spawned are
   stopped and joined, leaving the pool as it was, and the failure is
   re-raised *)
let grow p extra =
  let cur = Array.length p.workers in
  let spawned = ref [] in
  match
    Array.iteri
      (fun i w ->
        let slot = cur + i + 1 in
        spawned := Domain.spawn (fun () -> worker_loop p.latch w slot) :: !spawned)
      extra
  with
  | () ->
    p.workers <- Array.append p.workers extra;
    p.domains <- Array.append p.domains (Array.of_list (List.rev !spawned))
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    stop_and_join (Array.sub extra 0 (List.length !spawned)) (Array.of_list !spawned);
    Printexc.raise_with_backtrace e bt

(* get the pool, growing it to at least [capacity] workers *)
let get ~capacity =
  Mutex.lock pool_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool_lock) @@ fun () ->
  let p =
    match !the_pool with
    | Some p -> p
    | None ->
      let p =
        { workers = [||];
          domains = [||];
          latch = { lm = Mutex.create (); lc = Condition.create (); pending = 0; failure = None };
          dispatch = Mutex.create () }
      in
      the_pool := Some p;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        Stdlib.at_exit shutdown
      end;
      p
  in
  let cur = Array.length p.workers in
  if capacity > cur then grow p (Array.init (capacity - cur) (fun _ -> fresh_worker ()));
  p

let size () =
  Mutex.lock pool_lock;
  let n = match !the_pool with Some p -> Array.length p.workers | None -> 0 in
  Mutex.unlock pool_lock;
  n

let pending () =
  Mutex.lock pool_lock;
  let v =
    match !the_pool with
    | Some p ->
      Mutex.lock p.latch.lm;
      let v = p.latch.pending in
      Mutex.unlock p.latch.lm;
      v
    | None -> 0
  in
  Mutex.unlock pool_lock;
  v

let queued_jobs () =
  Mutex.lock pool_lock;
  let v =
    match !the_pool with
    | Some p ->
      Array.fold_left
        (fun acc w ->
          Mutex.lock w.mutex;
          let q = if w.job <> None then 1 else 0 in
          Mutex.unlock w.mutex;
          acc + q)
        0 p.workers
    | None -> 0
  in
  Mutex.unlock pool_lock;
  v

(* plain spawn/join execution: the fallback for nested regions and the
   reference path benchmarks compare against *)
let run_spawned ~nthreads f =
  let failure = Atomic.make None in
  let guard t () =
    try f t
    with e ->
      let backtrace = Printexc.get_raw_backtrace () in
      Atomic.compare_and_set failure None (Some { slot = t; error = e; backtrace }) |> ignore
  in
  let domains = Array.init (nthreads - 1) (fun t -> Domain.spawn (guard (t + 1))) in
  guard 0 ();
  Array.iter Domain.join domains;
  match Atomic.get failure with
  | Some { error; backtrace; _ } -> Printexc.raise_with_backtrace error backtrace
  | None -> ()

let run ~nthreads f =
  if nthreads <= 0 then invalid_arg "Pool.run";
  if nthreads = 1 then f 0
  else begin
    let p = get ~capacity:(nthreads - 1) in
    if not (Mutex.try_lock p.dispatch) then begin
      (* nested/concurrent parallel region: don't queue behind the
         outer dispatch (deadlock); spawn short-lived domains instead *)
      Obsv.Metrics.incr Stats.pool_fallbacks ~slot:0;
      run_spawned ~nthreads f
    end
    else begin
      let l = p.latch in
      Mutex.lock l.lm;
      l.pending <- nthreads - 1;
      l.failure <- None;
      Mutex.unlock l.lm;
      for j = 0 to nthreads - 2 do
        let w = p.workers.(j) in
        Mutex.lock w.mutex;
        w.job <- Some f;
        Condition.signal w.cond;
        Mutex.unlock w.mutex
      done;
      (try f 0 with e -> record_failure l 0 e);
      Mutex.lock l.lm;
      while l.pending > 0 do
        Condition.wait l.lc l.lm
      done;
      let fail = l.failure in
      Mutex.unlock l.lm;
      Mutex.unlock p.dispatch;
      match fail with
      | Some { error; backtrace; _ } -> Printexc.raise_with_backtrace error backtrace
      | None -> ()
    end
  end
