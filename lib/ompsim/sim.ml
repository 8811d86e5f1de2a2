type overheads = {
  fork_join : float;
  dispatch : float;
  chunk_start : float;
  per_iter : float;
}

let no_overheads = { fork_join = 0.0; dispatch = 0.0; chunk_start = 0.0; per_iter = 0.0 }

type result = {
  makespan : float;
  busy : float array;
  total_work : float;
  chunks_dispatched : int;
  imbalance : float;
}

let prefix_sums costs =
  let n = Array.length costs in
  let p = Array.make (n + 1) 0.0 in
  for q = 0 to n - 1 do
    p.(q + 1) <- p.(q) +. costs.(q)
  done;
  p

let chunk_cost prefix ov start len =
  if len = 0 then 0.0
  else
    ov.chunk_start
    +. (prefix.(start + len) -. prefix.(start))
    +. (ov.per_iter *. float_of_int len)

(* a tiny binary min-heap over (time, thread) for the event simulation *)
module Heap = struct
  type t = { mutable size : int; times : float array; threads : int array }

  let create nthreads =
    { size = 0; times = Array.make nthreads 0.0; threads = Array.make nthreads 0 }

  let swap h a b =
    let t = h.times.(a) in
    h.times.(a) <- h.times.(b);
    h.times.(b) <- t;
    let x = h.threads.(a) in
    h.threads.(a) <- h.threads.(b);
    h.threads.(b) <- x

  let push h time thread =
    let i = ref h.size in
    h.times.(!i) <- time;
    h.threads.(!i) <- thread;
    h.size <- h.size + 1;
    while !i > 0 && h.times.((!i - 1) / 2) > h.times.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    let time = h.times.(0) and thread = h.threads.(0) in
    h.size <- h.size - 1;
    h.times.(0) <- h.times.(h.size);
    h.threads.(0) <- h.threads.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.times.(l) < h.times.(!smallest) then smallest := l;
      if r < h.size && h.times.(r) < h.times.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    (time, thread)
end

let finish ~ov ~total_work ~busy ~chunks_dispatched ~nthreads =
  let makespan = ov.fork_join +. Array.fold_left Float.max 0.0 busy in
  let executed = Array.fold_left ( +. ) 0.0 busy in
  let ideal = ov.fork_join +. (executed /. float_of_int nthreads) in
  { makespan;
    busy;
    total_work;
    chunks_dispatched;
    imbalance = (if executed = 0.0 then 1.0 else makespan /. ideal) }

let run ~costs ~schedule ~nthreads ~overheads:ov =
  if nthreads <= 0 then invalid_arg "Sim.run: nthreads";
  let n = Array.length costs in
  let prefix = prefix_sums costs in
  let total_work = prefix.(n) in
  let busy = Array.make nthreads 0.0 in
  match schedule with
  | Schedule.Static ->
    let blocks = Schedule.static_blocks ~nthreads ~n in
    let dispatched = ref 0 in
    Array.iteri
      (fun t (start, len) ->
        if len > 0 then incr dispatched;
        busy.(t) <- chunk_cost prefix ov start len)
      blocks;
    finish ~ov ~total_work ~busy ~chunks_dispatched:!dispatched ~nthreads
  | Schedule.Static_chunk c ->
    let lists = Schedule.round_robin_chunks ~chunk:c ~nthreads ~n in
    let dispatched = ref 0 in
    Array.iteri
      (fun t chunks ->
        List.iter
          (fun (start, len) ->
            incr dispatched;
            busy.(t) <- busy.(t) +. chunk_cost prefix ov start len)
          chunks)
      lists;
    finish ~ov ~total_work ~busy ~chunks_dispatched:!dispatched ~nthreads
  | Schedule.Work_stealing c ->
    if c <= 0 then invalid_arg "Sim.run: work-stealing chunk";
    (* Same dynamic-style balancing (an idle thread always finds the
       next chunk) but with NO serialized dispatch point: a steal/pop
       still costs [dispatch] time on the acquiring thread, yet threads
       never wait on each other's acquisitions — the contention-free
       counterpart of the Dynamic simulation below. *)
    let heap = Heap.create nthreads in
    for t = 0 to nthreads - 1 do
      Heap.push heap 0.0 t
    done;
    let next = ref 0 in
    let dispatched = ref 0 in
    let finish_time = Array.make nthreads 0.0 in
    while !next < n do
      let time, t = Heap.pop heap in
      let len = min c (n - !next) in
      let done_at = time +. ov.dispatch +. chunk_cost prefix ov !next len in
      incr dispatched;
      next := !next + len;
      finish_time.(t) <- done_at;
      Heap.push heap done_at t
    done;
    let makespan = ov.fork_join +. Array.fold_left Float.max 0.0 finish_time in
    let ideal = ov.fork_join +. (total_work /. float_of_int nthreads) in
    { makespan;
      busy = finish_time;
      total_work;
      chunks_dispatched = !dispatched;
      imbalance = (if total_work = 0.0 then 1.0 else makespan /. ideal) }
  | Schedule.Dnc g ->
    if g <= 0 then invalid_arg "Sim.run: dnc grain";
    (* the divide-and-conquer leaves are a deterministic partition of
       the range ([Schedule.dnc_leaves]); execution is steal-balanced
       with no serialized dispatch point, so simulate like the
       work-stealing engine: each leaf acquisition costs [dispatch] on
       the acquiring thread only. Splitting work itself is folded into
       the same per-leaf dispatch charge. *)
    let heap = Heap.create nthreads in
    for t = 0 to nthreads - 1 do
      Heap.push heap 0.0 t
    done;
    let dispatched = ref 0 in
    let finish_time = Array.make nthreads 0.0 in
    List.iter
      (fun (start, len) ->
        let time, t = Heap.pop heap in
        let done_at = time +. ov.dispatch +. chunk_cost prefix ov start len in
        incr dispatched;
        finish_time.(t) <- done_at;
        Heap.push heap done_at t)
      (Schedule.dnc_leaves ~grain:g ~n);
    let makespan = ov.fork_join +. Array.fold_left Float.max 0.0 finish_time in
    let ideal = ov.fork_join +. (total_work /. float_of_int nthreads) in
    { makespan;
      busy = finish_time;
      total_work;
      chunks_dispatched = !dispatched;
      imbalance = (if total_work = 0.0 then 1.0 else makespan /. ideal) }
  | Schedule.Dynamic c | Schedule.Guided c ->
    if c <= 0 then invalid_arg "Sim.run: dynamic/guided chunk";
    (* Event simulation with a serialized work queue: acquiring a chunk
       takes [dispatch] time on a shared lock, so threads contend when
       chunks are small — the runtime-overhead scalability problem of
       schedule(dynamic) the paper describes in §II. *)
    let guided = match schedule with Schedule.Guided _ -> true | _ -> false in
    let heap = Heap.create nthreads in
    for t = 0 to nthreads - 1 do
      Heap.push heap 0.0 t
    done;
    let lock_free_at = ref 0.0 in
    let next = ref 0 in
    let dispatched = ref 0 in
    let finish_time = Array.make nthreads 0.0 in
    while !next < n do
      let time, t = Heap.pop heap in
      let acquire = Float.max time !lock_free_at in
      lock_free_at := acquire +. ov.dispatch;
      let len =
        if guided then Schedule.next_guided ~chunk:c ~nthreads ~remaining:(n - !next)
        else min c (n - !next)
      in
      let done_at = acquire +. ov.dispatch +. chunk_cost prefix ov !next len in
      incr dispatched;
      next := !next + len;
      busy.(t) <- done_at;
      finish_time.(t) <- done_at;
      Heap.push heap done_at t
    done;
    (* here busy.(t) is the thread's finish time (including idle waits
       on the lock), which is what determines the makespan *)
    let makespan = ov.fork_join +. Array.fold_left Float.max 0.0 finish_time in
    let ideal = ov.fork_join +. (total_work /. float_of_int nthreads) in
    { makespan;
      busy = finish_time;
      total_work;
      chunks_dispatched = !dispatched;
      imbalance = (if total_work = 0.0 then 1.0 else makespan /. ideal) }

let serial ~costs ~overheads:ov =
  let prefix = prefix_sums costs in
  chunk_cost prefix ov 0 (Array.length costs)

let gain ~baseline ~improved = (baseline -. improved) /. baseline

(* ------------------- fault model (Par.reduce's retry) ------------------- *)

let check_fault_args ~p ~retries name =
  if p < 0.0 || p > 1.0 then invalid_arg (name ^ ": p outside [0,1]");
  if retries < 0 then invalid_arg (name ^ ": negative retries")

let expected_attempts ~p ~retries =
  check_fault_args ~p ~retries "Sim.expected_attempts";
  if p >= 1.0 then float_of_int (retries + 1)
  else (1.0 -. (p ** float_of_int (retries + 1))) /. (1.0 -. p)

let completion_probability ~p ~retries =
  check_fault_args ~p ~retries "Sim.completion_probability";
  1.0 -. (p ** float_of_int (retries + 1))

let resilient_overheads ov ~p ~retries =
  let a = expected_attempts ~p ~retries in
  { ov with dispatch = ov.dispatch *. a; chunk_start = ov.chunk_start *. a }
