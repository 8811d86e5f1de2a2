(* work-stealing execution: chunks are dealt round-robin into
   per-worker Chase-Lev deques up front; a worker drains its own deque
   with owner pops (no shared state touched), then turns thief and
   sweeps the other deques until a full sweep finds them all empty.
   Retry outcomes (lost CAS races) mean somebody else made progress, so
   a sweep that saw only Retry/Empty keeps sweeping. *)
(* cached per-worker deques, reused across work-stealing regions so a
   region's setup is a refill of live cells, not an allocation *)
let ws_deque_cache : int Deque.t array Atomic.t = Atomic.make [||]

let run_work_stealing ~nthreads ~chunk ~n ~stop f =
  (* chunks are dealt round-robin by INDEX — chunk [c] covers
     [c*chunk, min ((c+1)*chunk, n)) and belongs to worker
     [c mod nthreads] — so the deques hold unboxed ints and nothing is
     materialized per chunk (the same deal [round_robin_chunks]
     computes, without building the lists). [of_init] in ascending
     order: owner pops front-first, thieves steal the owner's tail. *)
  let nchunks = if n <= 0 then 0 else (n + chunk - 1) / chunk in
  (* per-worker deques persist across regions (like the pool's
     domains): a region takes the cached set, refills in place when
     the capacity fits, and puts the set back when done. The exchange
     makes a concurrent region simply build its own fresh set. *)
  let cached = Atomic.exchange ws_deque_cache [||] in
  let deques =
    Array.init nthreads (fun t ->
        let mine = if nchunks <= t then 0 else 1 + ((nchunks - 1 - t) / nthreads) in
        let deal j = t + (j * nthreads) in
        if t < Array.length cached && Deque.capacity cached.(t) >= mine then begin
          Deque.refill cached.(t) mine deal;
          cached.(t)
        end
        else Deque.of_init ~dummy:0 mine deal)
  in
  let exec t c =
    let start = c * chunk in
    f ~thread:t ~start ~len:(min chunk (n - start))
  in
  Pool.run ~nthreads (fun t ->
      let my = deques.(t) in
      (* owner drain by batches: one bottom-fence per up to 32 chunks.
         A cancelled region keeps popping without executing — the
         deques must still end empty so the region can cache them back
         for a later [refill] (unexecuted chunks surface as coverage
         gaps, which the region re-runs serially). *)
      let buf = Array.make 32 0 in
      let rec drain () =
        let k = Deque.pop_batch my buf in
        if k > 0 then begin
          if not (stop ()) then begin
            Obsv.Metrics.add Stats.ws_local_pops ~slot:t k;
            for i = 0 to k - 1 do
              exec t buf.(i)
            done
          end;
          drain ()
        end
      in
      drain ();
      if nthreads > 1 && not (stop ()) then begin
        let steal_phase () =
          let idle = ref false in
          while (not !idle) && not (stop ()) do
            let progressed = ref false and contended = ref false in
            for i = 1 to nthreads - 1 do
              if not (stop ()) then begin
                let victim = deques.((t + i) mod nthreads) in
                let continue = ref true in
                while !continue do
                  match Deque.steal victim with
                  | Deque.Stolen c ->
                    Obsv.Metrics.incr Stats.ws_steals ~slot:t;
                    progressed := true;
                    exec t c;
                    if stop () then continue := false
                  | Deque.Retry ->
                    Obsv.Metrics.incr Stats.ws_steal_retries ~slot:t;
                    contended := true;
                    continue := false
                  | Deque.Empty -> continue := false
                done
              end
            done;
            if not (!progressed || !contended) then idle := true
          done
        in
        Obsv.Trace.with_span "par.ws.steal" ~args:[ ("slot", Obsv.Trace.Int t) ] steal_phase
      end);
  (* all workers have joined: the deques are quiescent and empty *)
  Atomic.set ws_deque_cache deques

(* divide-and-conquer execution: instead of dealing a precomputed
   chunk list, workers recursively halve the collapsed interval down
   to [grain] iterations, pushing split-tree node ids (see
   [Schedule.dnc_interval]) through the same Chase-Lev deques the ws
   schedule uses. An owner pops depth-first (small, cache-near
   subranges); a thief steals the top — the largest untouched subtree
   — so load balancing is automatic on skewed non-rectangular ranges.
   The split tree depends only on (n, grain), so the executed chunk
   partition is deterministic regardless of timing. Termination is an
   atomic count of live tree nodes: a split nets +1 (one node becomes
   two), resolving a node nets -1; zero pending with an empty sweep
   means the whole tree is accounted for. Tree depth is at most
   [log2 n + 1 <= 63], so capacity 128 deques can never overfill (a
   worker drains its own deque before stealing, and a stolen subtree's
   descent starts from an empty private run). *)
let run_dnc ~nthreads ~grain ~n ~stop f =
  if grain <= 0 then invalid_arg "Par: dnc grain";
  if n > 0 then begin
    let deques = Array.init nthreads (fun _ -> Deque.create ~capacity:128 ~dummy:0) in
    let pending = Atomic.make 1 in
    Deque.push deques.(0) 1;
    Pool.run ~nthreads (fun t ->
        let my = deques.(t) in
        let resolve () = ignore (Atomic.fetch_and_add pending (-1)) in
        (* a cancelled region keeps popping without splitting or
           executing: resolving a node un-pends its entire subtree
           (children were never pushed), so siblings drain fast and
           unexecuted ranges surface as coverage gaps for the
           serial fallback. [f] is the engine's supervised chunk,
           which never raises, so every node is resolved. *)
        let exec_node id =
          if stop () then resolve ()
          else begin
            let start, len = Schedule.dnc_interval ~n id in
            if len <= grain then begin
              Obsv.Metrics.incr Stats.dnc_grain_chunks ~slot:t;
              f ~thread:t ~start ~len;
              resolve ()
            end
            else begin
              Obsv.Metrics.incr Stats.dnc_splits ~slot:t;
              ignore (Atomic.fetch_and_add pending 1);
              Deque.push my ((2 * id) + 1);
              Deque.push my (2 * id)
            end
          end
        in
        let continue = ref true in
        while !continue do
          match Deque.pop my with
          | Some id -> exec_node id
          | None ->
            if Atomic.get pending = 0 then continue := false
            else begin
              let progressed = ref false and contended = ref false in
              for i = 1 to nthreads - 1 do
                if not !progressed then
                  match Deque.steal deques.((t + i) mod nthreads) with
                  | Deque.Stolen id ->
                    Obsv.Metrics.incr Stats.ws_steals ~slot:t;
                    progressed := true;
                    exec_node id
                  | Deque.Retry ->
                    Obsv.Metrics.incr Stats.ws_steal_retries ~slot:t;
                    contended := true
                  | Deque.Empty -> ()
              done;
              if (not (!progressed || !contended)) && Atomic.get pending <> 0 then
                Domain.cpu_relax ()
            end
        done)
  end

(* schedule dispatch. [stop] is the region's cooperative cancellation
   token, polled at chunk-claim granularity on every schedule — once it
   reads true, no further chunk is claimed or executed by this region
   (chunks already being executed finish). *)
let run_schedule ~stop ~nthreads ~schedule ~n f =
  match schedule with
  | Schedule.Static ->
    let blocks = Schedule.static_blocks ~nthreads ~n in
    Pool.run ~nthreads (fun t ->
        let start, len = blocks.(t) in
        if len > 0 && not (stop ()) then f ~thread:t ~start ~len)
  | Schedule.Static_chunk c ->
    if c <= 0 then invalid_arg "Par: static chunk";
    let lists = Schedule.round_robin_chunks ~chunk:c ~nthreads ~n in
    Pool.run ~nthreads (fun t ->
        List.iter
          (fun (start, len) -> if not (stop ()) then f ~thread:t ~start ~len)
          lists.(t))
  | Schedule.Dynamic c ->
    if c <= 0 then invalid_arg "Par: dynamic chunk";
    let next = Atomic.make 0 in
    Pool.run ~nthreads (fun t ->
        let continue = ref true in
        while !continue do
          if stop () then continue := false
          else begin
            let start = Atomic.fetch_and_add next c in
            if start >= n then continue := false
            else f ~thread:t ~start ~len:(min c (n - start))
          end
        done)
  | Schedule.Guided c ->
    if c <= 0 then invalid_arg "Par: guided chunk";
    let next = Atomic.make 0 in
    Pool.run ~nthreads (fun t ->
        let continue = ref true in
        while !continue do
          if stop () then continue := false
          else begin
            (* optimistic guided sizing: read remaining, CAS the claim *)
            let start = Atomic.get next in
            if start >= n then continue := false
            else begin
              let len = Schedule.next_guided ~chunk:c ~nthreads ~remaining:(n - start) in
              if Atomic.compare_and_set next start (start + len) then
                f ~thread:t ~start ~len:(min len (n - start))
            end
          end
        done)
  | Schedule.Work_stealing c ->
    if c <= 0 then invalid_arg "Par: work-stealing chunk";
    run_work_stealing ~nthreads ~chunk:c ~n ~stop f
  | Schedule.Dnc g -> run_dnc ~nthreads ~grain:g ~n ~stop f

(* ---------------------- the region engine ---------------------- *)

type chunk_failure = {
  start : int;
  len : int;
  worker : int;
  attempts : int;
  error : exn;
  backtrace : Printexc.raw_backtrace;
}

type failure_reason = Chunk_failed | Deadline_expired

type region_error = {
  reason : failure_reason;
  failures : chunk_failure list;
  unrecovered : (int * int) list;
}

let describe_error { reason; failures; unrecovered } =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (match reason with
    | Chunk_failed -> "region failed: chunk failure survived retries and serial fallback"
    | Deadline_expired -> "region cancelled: deadline expired");
  List.iter
    (fun { start; len; worker; attempts; error; _ } ->
      Buffer.add_string b
        (Printf.sprintf "\n  chunk [%d,%d) on worker %d after %d attempt%s: %s" start (start + len)
           worker attempts
           (if attempts = 1 then "" else "s")
           (Printexc.to_string error)))
    (List.rev failures);
  if unrecovered <> [] then begin
    Buffer.add_string b "\n  unrecovered:";
    List.iter
      (fun (s, l) -> Buffer.add_string b (Printf.sprintf " [%d,%d)" s (s + l)))
      unrecovered
  end;
  Buffer.contents b

(* exponential retry backoff: ~50us << 2^(attempt-1), capped at 1ms —
   enough to let a transient stall clear without parking a domain *)
let backoff_wait attempt =
  let us = min 1000 (50 lsl min 10 (attempt - 1)) in
  let until = Obsv.Clock.now_ns () + (us * 1_000) in
  while Obsv.Clock.now_ns () < until do
    Domain.cpu_relax ()
  done

(* Partials live in per-worker cells padded 16 slots apart (one writer
   per cell, no locks, no false sharing on the hot path). Each entry is
   [(start, len, partial)] for one successful chunk, so the cells are
   both the reduction's partials and the region's coverage ledger. *)
let stride = 16

(* [cell] split into maximal monotone runs, each pushed onto [acc] in
   ascending order. A worker records its chunks newest first, so one
   that claims increasing starts leaves one descending run; a
   work-stealing thief's steals, taken from victims' tails, leave
   ascending ones. *)
let runs_of acc cell =
  (* [run] holds the current run reversed: ascending when the cell
     descends there ([down]), descending otherwise *)
  let close run down = if down then run else List.rev run in
  let rec go acc run down = function
    | [] -> close run down :: acc
    | ((s, _, _) as c) :: rest -> (
      match run with
      | [ (r, _, _) ] -> go acc (c :: run) ((s : int) < r) rest
      | (r, _, _) :: _ when (s : int) < r = down -> go acc (c :: run) down rest
      | _ -> go (close run down :: acc) [ c ] true rest)
  in
  match cell with [] -> acc | c :: rest -> go acc [ c ] true rest

(* tail-recursive merge of two ascending runs *)
let merge a b =
  let rec go acc a b =
    match (a, b) with
    | [], r | r, [] -> List.rev_append acc r
    | ((x, _, _) as p) :: a', ((y, _, _) as q) :: b' ->
      if (x : int) < y then go (p :: acc) a' b else go (q :: acc) a b'
  in
  go [] a b

(* every recorded chunk, sorted by start — a total order fixed by the
   chunk partition, never by worker arrival. A natural merge sort over
   the cells' runs: the usual one run per worker costs one pass per
   merge level, not a full sort. *)
let collect ~nthreads cells =
  let runs = ref [] in
  for t = 0 to nthreads - 1 do
    runs := runs_of !runs cells.(t * stride)
  done;
  let rec pairs acc = function
    | a :: b :: rest -> pairs (merge a b :: acc) rest
    | rest -> List.rev_append rest acc
  in
  let rec all = function [] -> [] | [ r ] -> r | rs -> all (pairs [] rs) in
  all !runs

(* holes of [0,n) not covered by the sorted disjoint [parts] *)
let uncovered ~n parts =
  let rec go pos = function
    | [] -> if pos < n then [ (pos, n - pos) ] else []
    | (s, l, _) :: rest ->
      if s > pos then (pos, s - pos) :: go (s + l) rest else go (max pos (s + l)) rest
  in
  go 0 parts

(* a binary combine tree over ADJACENT positions of the sorted
   partials: the bracketing depends only on the partial count, so the
   result is bit-for-bit schedule-independent whenever [combine] is
   associative, and equals the serial left fold exactly *)
let combine_partials ~combine = function
  | [] -> None
  | (_, _, v0) :: _ as parts ->
    let arr = Array.make (List.length parts) v0 in
    List.iteri (fun i (_, _, v) -> arr.(i) <- v) parts;
    let fold () =
      let len = ref (Array.length arr) in
      while !len > 1 do
        let half = !len / 2 in
        for i = 0 to half - 1 do
          arr.(i) <- combine arr.(2 * i) arr.((2 * i) + 1)
        done;
        if !len land 1 = 1 then arr.(half) <- arr.(!len - 1);
        len := half + (!len land 1)
      done;
      arr.(0)
    in
    (* the tree applies [combine] once per partial but the first *)
    Obsv.Metrics.add Stats.reduce_combines ~slot:0 (Array.length arr - 1);
    Some
      (Obsv.Trace.with_span "par.reduce.combine"
         ~args:[ ("partials", Obsv.Trace.Int (Array.length arr)) ]
         fold)

let reduce ?(retries = 0) ?deadline_ms ?faults ~nthreads ~schedule ~n ~combine f =
  if nthreads <= 0 then invalid_arg "Par.reduce";
  if retries < 0 then invalid_arg "Par.reduce: negative retries";
  (* [?faults] is itself an option: [~faults:None] explicitly disables
     injection for this region, absence defers to the global config *)
  let faults = match faults with Some given -> given | None -> Fault.get () in
  let stop = Atomic.make false in
  let deadline_hit = Atomic.make false in
  let deadline_ns =
    match deadline_ms with
    | Some ms when ms >= 0 -> Some (Obsv.Clock.now_ns () + (ms * 1_000_000))
    | Some _ -> invalid_arg "Par.reduce: negative deadline"
    | None -> None
  in
  let failures = Atomic.make [] in
  let push_failure cf =
    let rec go () =
      let old = Atomic.get failures in
      if not (Atomic.compare_and_set failures old (cf :: old)) then go ()
    in
    go ()
  in
  let cells = Array.make (nthreads * stride) [] in
  let cancel () =
    if Atomic.compare_and_set stop false true then begin
      Obsv.Metrics.incr_here Stats.regions_cancelled;
      Obsv.Trace.instant "par.cancel"
    end
  in
  let expired () =
    match deadline_ns with
    | Some d when Obsv.Clock.now_ns () > d ->
      Atomic.set deadline_hit true;
      cancel ();
      true
    | _ -> false
  in
  (* whether chunks get spans is decided once, so the trace stays
     balanced even if the switch flips mid-region *)
  let spans = Obsv.Control.enabled () in
  (* one chunk attempt: the injection point, then the body. Synthetic
     faults fire before the body, so a failed attempt has done no work
     and contributes no partial. *)
  let attempt ~thread ~start ~len k =
    (match faults with Some cfg -> Fault.inject cfg ~start ~len ~attempt:k | None -> ());
    if not spans then f ~thread ~start ~len
    else
      Obsv.Trace.with_span "par.chunk"
        ~args:
          [ ("slot", Obsv.Trace.Int thread); ("start", Obsv.Trace.Int start);
            ("len", Obsv.Trace.Int len) ]
        (fun () -> f ~thread ~start ~len)
  in
  let record ~thread ~start ~len v =
    let cell = thread * stride in
    cells.(cell) <- (start, len, v) :: cells.(cell);
    Obsv.Metrics.incr Stats.par_chunks ~slot:thread;
    Obsv.Metrics.add Stats.par_iterations ~slot:thread len;
    Obsv.Metrics.incr Stats.reduce_partials ~slot:thread
  in
  (* cold path: the first attempt failed. A failed attempt is re-run in
     place — safe when chunks are idempotent, exactly the property the
     paper's independent-iterations precondition gives a collapsed
     chunk — up to [retries] times with backoff; then the structured
     failure is captured and the region cancelled. *)
  let retry_loop ~thread ~start ~len first_error =
    let k = ref 0 and running = ref true in
    let error = ref first_error and backtrace = ref (Printexc.get_raw_backtrace ()) in
    while !running do
      if !k < retries && not (Atomic.get stop) then begin
        incr k;
        Obsv.Metrics.incr Stats.chunk_retries ~slot:thread;
        Obsv.Trace.instant "par.retry"
          ~args:[ ("start", Obsv.Trace.Int start); ("attempt", Obsv.Trace.Int !k) ];
        backoff_wait !k;
        match attempt ~thread ~start ~len !k with
        | v ->
          running := false;
          record ~thread ~start ~len v
        | exception e ->
          backtrace := Printexc.get_raw_backtrace ();
          error := e
      end
      else begin
        running := false;
        push_failure
          { start; len; worker = thread; attempts = !k + 1; error = !error;
            backtrace = !backtrace };
        cancel ()
      end
    done
  in
  let supervise ~thread ~start ~len =
    if (not (Atomic.get stop)) && not (expired ()) then
      match attempt ~thread ~start ~len 0 with
      | v -> record ~thread ~start ~len v
      | exception e -> retry_loop ~thread ~start ~len e
  in
  let body () = run_schedule ~stop:(fun () -> Atomic.get stop) ~nthreads ~schedule ~n supervise in
  Obsv.Metrics.incr Stats.par_regions ~slot:0;
  (if not spans then body ()
   else
     Obsv.Trace.with_span "par.region"
       ~args:
         [ ("n", Obsv.Trace.Int n);
           ("threads", Obsv.Trace.Int nthreads);
           ("schedule", Obsv.Trace.Str (Schedule.to_string schedule));
           ("retries", Obsv.Trace.Int retries) ]
       body);
  let parts = collect ~nthreads cells in
  if not (Atomic.get stop) then
    (* never cancelled (a failure or an expired deadline always
       cancels): the schedule loop ran to completion, so every chunk of
       [0,n) was claimed and recorded (retried chunks included) —
       coverage is complete by construction *)
    Ok (combine_partials ~combine parts)
  else begin
    let gaps = uncovered ~n parts in
    let failures = List.rev (Atomic.get failures) in
    if Atomic.get deadline_hit then Error { reason = Deadline_expired; failures; unrecovered = gaps }
    else begin
      (* serial fallback: re-execute only the uncovered ranges, on the
         calling domain, with fault injection suppressed — under the
         transient-fault model a re-run succeeds; a genuinely poisoned
         kernel fails again here and surfaces in the structured error.
         Each recovered range adds one partial keyed by its own start:
         a coarser partition of [0,n), the same fold for any
         associative [combine]. *)
      let leftover = ref [] and fallback_failures = ref [] in
      List.iter
        (fun (start, len) ->
          Obsv.Metrics.incr Stats.serial_fallbacks ~slot:0;
          match
            Obsv.Trace.with_span "par.fallback.serial"
              ~args:[ ("start", Obsv.Trace.Int start); ("len", Obsv.Trace.Int len) ]
              (fun () -> f ~thread:0 ~start ~len)
          with
          | v -> record ~thread:0 ~start ~len v
          | exception e ->
            let backtrace = Printexc.get_raw_backtrace () in
            fallback_failures :=
              { start; len; worker = 0; attempts = 1; error = e; backtrace } :: !fallback_failures;
            leftover := (start, len) :: !leftover)
        gaps;
      if !leftover = [] then Ok (combine_partials ~combine (collect ~nthreads cells))
      else
        Error
          { reason = Chunk_failed;
            failures = failures @ List.rev !fallback_failures;
            unrecovered = List.rev !leftover }
    end
  end

let parallel_for_chunks ~nthreads ~schedule ~n f =
  match reduce ~faults:None ~nthreads ~schedule ~n ~combine:(fun () () -> ()) f with
  | Ok _ -> ()
  | Error { failures; _ } ->
    (* no deadline, so an error always names a failed chunk *)
    let first = List.hd failures in
    Printexc.raise_with_backtrace first.error first.backtrace

let parallel_for ~nthreads ~schedule ~n f =
  parallel_for_chunks ~nthreads ~schedule ~n (fun ~thread:_ ~start ~len ->
      for q = start to start + len - 1 do
        f q
      done)
