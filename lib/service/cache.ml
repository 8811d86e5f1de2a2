(* a bounded LRU over string keys: plans by fingerprint, recoveries by
   {!Exec.params_key}, serial references by {!Exec.reference_key} *)
type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a lru = {
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
}

(* a value memo beside the plans: its LRU, its single-flights and the
   hit/miss counters it books *)
type 'a memo = {
  entries : 'a lru;
  flights : 'a Single_flight.t;
  hits : Obsv.Metrics.t;
  misses : Obsv.Metrics.t;
}

type t = {
  capacity : int;
  dir : string option;
  mutex : Mutex.t;
  plans : Plan.t lru;
  inflight : Plan.t Single_flight.t;
  recoveries : Trahrhe.Recovery.t memo;
  refs : Exec.value option memo;
}

(* ---- startup janitor ----

   A crashed writer leaves its private [.name.pid.ext] temp (ext one
   of tmp, c, so, log) behind forever (the atomic-rename publish
   never happened), a
   kill -9'd lock holder leaves an unlocked [.lock] file, and
   quarantined [.bad] entries accumulate. None of these are live
   state: published entries never start with a dot, live locks resist
   a try-lock, and [.bad] files exist only for the post-mortem window
   until the next startup. *)

let temp_exts = [ "tmp"; "c"; "so"; "log" ]

let pid_dead pid =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | exception Unix.Unix_error _ -> false (* EPERM and friends: alive *)

(* [.{name}.{pid}.{ext}] with a dead pid; fingerprints and salts are
   hex, so the dot-split segments are unambiguous *)
let orphan_temp name =
  String.length name > 1
  && name.[0] = '.'
  &&
  match List.rev (String.split_on_char '.' name) with
  | ext :: pid :: _ when List.mem ext temp_exts -> (
    match int_of_string_opt pid with Some p when p > 0 -> pid_dead p | _ -> false)
  | _ -> false

let sweep_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if orphan_temp name || Filename.check_suffix name ".bad" then (
          match Sys.remove path with
          | () -> acc + 1
          | exception Sys_error _ -> acc)
        else if Filename.check_suffix name ".lock" then
          if Lockfile.try_clean path then acc + 1 else acc
        else acc)
      0 entries

let sweep t =
  match t.dir with
  | None -> 0
  | Some dir ->
    let n = sweep_dir dir in
    Obsv.Metrics.add_here Stats.cache_janitor n;
    n

let new_lru () = { tbl = Hashtbl.create 64; head = None; tail = None }

let new_memo ~hits ~misses =
  { entries = new_lru (); flights = Single_flight.create (); hits; misses }

let create ?(capacity = 256) ?dir () =
  let dir = match dir with Some d -> d | None -> Plan.store_dir () in
  let t =
    { capacity = max 1 capacity;
      dir;
      mutex = Mutex.create ();
      plans = new_lru ();
      inflight = Single_flight.create ();
      recoveries = new_memo ~hits:Stats.recovery_hits ~misses:Stats.recovery_misses;
      refs = new_memo ~hits:Stats.reference_hits ~misses:Stats.reference_misses }
  in
  ignore (sweep t);
  t

let default_cache = lazy (create ())
let default () = Lazy.force default_cache

(* ---- LRU plumbing; every call below holds t.mutex ---- *)

let unlink l node =
  (match node.prev with Some p -> p.next <- node.next | None -> l.head <- node.next);
  (match node.next with Some s -> s.prev <- node.prev | None -> l.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front l node =
  node.next <- l.head;
  (match l.head with Some h -> h.prev <- Some node | None -> l.tail <- Some node);
  l.head <- Some node

let lookup l key =
  match Hashtbl.find_opt l.tbl key with
  | None -> None
  | Some node ->
    unlink l node;
    push_front l node;
    Some node.value

(* true when the insert evicted the least-recent entry *)
let insert t l key value =
  if Hashtbl.mem l.tbl key then false
  else begin
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace l.tbl key node;
    push_front l node;
    match l.tail with
    | Some victim when Hashtbl.length l.tbl > t.capacity ->
      unlink l victim;
      Hashtbl.remove l.tbl victim.key;
      true
    | _ -> false
  end

let record_hit ~disk =
  Obsv.Metrics.incr_here Stats.cache_hits;
  if disk then Obsv.Metrics.incr_here Stats.cache_disk_hits

(* ---- disk tier (no lock held; failures are misses or no-ops) ---- *)

let plan_path dir fp = Filename.concat dir (fp ^ ".plan")
let lock_path dir fp = Filename.concat dir (fp ^ ".lock")
let bad_path dir fp = Filename.concat dir (fp ^ ".bad")

(* a corrupt entry is moved aside, never deleted (the .bad copy is
   the post-mortem evidence; the next startup janitor reclaims it)
   and never re-served *)
let quarantine dir fp =
  let src = plan_path dir fp in
  (try Sys.rename src (bad_path dir fp)
   with Sys_error _ -> ( try Sys.remove src with Sys_error _ -> ()));
  Obsv.Metrics.incr_here Stats.cache_quarantined

let disk_load t fp =
  match t.dir with
  | None -> None
  | Some dir -> (
    match
      let ic = open_in_bin (plan_path dir fp) in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error _ -> None
    | exception End_of_file -> None
    | content -> (
      (* envelope failure = corruption (torn write, bit rot):
         quarantine. A clean envelope around an undecodable payload =
         staleness (old format version, foreign fingerprint): plain
         miss, silently overwritten by the recompile. *)
      match Envelope.unwrap content with
      | Error `Corrupt ->
        quarantine dir fp;
        None
      | Ok payload -> (
        match Plan.decode payload with
        | Ok p when p.Plan.fingerprint = fp -> Some p
        | Ok _ | Error _ -> None)))

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* atomic publish: write a private temp file, then rename into place —
   a concurrent reader sees the old entry or the new one, never a
   torn write (and the CRC envelope catches anything the filesystem
   still manages to tear). Purely best-effort: a read-only dir
   silently disables the tier for this entry. *)
let disk_store t fp plan =
  match t.dir with
  | None -> ()
  | Some dir -> (
    try
      mkdir_p dir;
      let tmp = Filename.concat dir (Printf.sprintf ".%s.%d.tmp" fp (Unix.getpid ())) in
      let oc = open_out_bin tmp in
      (try
         output_string oc (Envelope.wrap (Plan.encode plan));
         close_out oc
       with e ->
         close_out_noerr oc;
         raise e);
      Unix.rename tmp (plan_path dir fp)
    with Sys_error _ | Unix.Unix_error _ -> ())

(* ---- the request path ---- *)

(* the memory-tier hit, under [t.mutex]: [lookup] promotes the entry
   and the hit is booked here, once, for both request paths *)
let warm_hit t fp =
  let plan = lookup t.plans fp in
  if plan <> None then record_hit ~disk:false;
  plan

let find_or_compile ?(compile = Plan.compile) t nest =
  let canonical, renaming, fp = Fingerprint.canonicalize_cached nest in
  let with_renaming = Result.map (fun p -> (p, renaming)) in
  Mutex.lock t.mutex;
  match warm_hit t fp with
  | Some plan ->
    Mutex.unlock t.mutex;
    Ok (plan, renaming)
  | None -> (
    match Single_flight.join t.inflight fp with
    | Some fl ->
      (* single-flight follower: park until the winner publishes *)
      Obsv.Metrics.incr_here Stats.singleflight_waits;
      let r = Single_flight.await fl ~mutex:t.mutex in
      Mutex.unlock t.mutex;
      with_renaming r
    | None ->
      (* single-flight winner: compile with the lock released *)
      let fl = Single_flight.enter t.inflight fp in
      Mutex.unlock t.mutex;
      (* the trace span covers the slow path only — disk probe plus
         compile. A span per warm hit would drown the trace (and cost
         more than the lookup it wraps); hits are counted exactly by
         the metrics either way. *)
      let result, origin =
        Obsv.Trace.with_span "service.cache" @@ fun () ->
        let fresh () =
          match compile canonical with
          | Ok plan ->
            disk_store t fp plan;
            (Ok plan, `Compiled)
          | Error e -> (Error e, `Failed)
        in
        match disk_load t fp with
        | Some plan -> (Ok plan, `Disk)
        | None -> (
          match t.dir with
          | None -> fresh ()
          | Some dir ->
            (* cross-process single-flight: processes sharing this
               store serialize fresh compiles of one fingerprint on
               an advisory file lock. A kill -9'd holder's lock is
               released by the kernel; a live-but-wedged holder is
               bounded by the acquisition timeout, after which we
               proceed without the lock — a stampede, not a hazard,
               because publication stays atomic. *)
            let lk =
              match mkdir_p dir with
              | () -> Lockfile.acquire (lock_path dir fp)
              | exception (Sys_error e | Unix.Unix_error (_, _, e)) ->
                Error (`Unavailable e)
            in
            (match lk with
            | Ok l when Lockfile.contended l -> Obsv.Metrics.incr_here Stats.cache_lock_waits
            | Ok _ -> ()
            | Error `Timeout -> Obsv.Metrics.incr_here Stats.cache_lock_steals
            | Error (`Unavailable _) -> ());
            Fun.protect
              ~finally:(fun () -> match lk with Ok l -> Lockfile.release l | Error _ -> ())
              (fun () ->
                (* double-checked probe: whoever held the lock (or
                   still holds it, on a steal) may have published
                   this entry while we waited *)
                match disk_load t fp with
                | Some plan -> (Ok plan, `Disk)
                | None -> fresh ()))
      in
      Mutex.lock t.mutex;
      (match origin with
      | `Disk -> record_hit ~disk:true
      | `Compiled | `Failed -> Obsv.Metrics.incr_here Stats.cache_misses);
      (match result with
      | Ok plan -> if insert t t.plans fp plan then Obsv.Metrics.incr_here Stats.cache_evictions
      | Error _ -> ());
      (* publish, then forget the flight: a failed compile reaches its
         waiters but poisons nothing — the next request retries *)
      Single_flight.publish t.inflight fp fl result;
      Mutex.unlock t.mutex;
      with_renaming result)

let find_warm t nest =
  let _, _, fp = Fingerprint.canonicalize_cached nest in
  Mutex.lock t.mutex;
  let plan = warm_hit t fp in
  Mutex.unlock t.mutex;
  plan

(* a miss computes once per key, with the lock released: concurrent
   misses on one key park on the first one's flight, as plans do, and
   count as hits (so [misses] counts computations). A computation that
   raises re-raises in its caller and poisons nothing; a parked waiter
   then computes for itself. *)
let memoize t m key compute =
  let hit v =
    Obsv.Metrics.incr_here m.hits;
    v
  in
  let miss () =
    Obsv.Metrics.incr_here m.misses;
    compute ()
  in
  Mutex.lock t.mutex;
  match lookup m.entries key with
  | Some v ->
    Mutex.unlock t.mutex;
    hit v
  | None -> (
    match Single_flight.join m.flights key with
    | Some fl -> (
      let r = Single_flight.await fl ~mutex:t.mutex in
      Mutex.unlock t.mutex;
      match r with Ok v -> hit v | Error _ -> miss ())
    | None ->
      let fl = Single_flight.enter m.flights key in
      Mutex.unlock t.mutex;
      let publish result =
        Mutex.lock t.mutex;
        (match result with Ok v -> ignore (insert t m.entries key v) | Error _ -> ());
        Single_flight.publish m.flights key fl result;
        Mutex.unlock t.mutex
      in
      match miss () with
      | v ->
        publish (Ok v);
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        publish (Error (Printexc.to_string e));
        Printexc.raise_with_backtrace e bt)

(* the memoized value closes over the canonical values, not over
   [param]: an entry keeps no reference into the request that built it *)
let recovery t plan ~param =
  let nest = plan.Plan.inversion.Trahrhe.Inversion.nest in
  let values = List.map (fun p -> (p, param p)) nest.Trahrhe.Nest.params in
  let param x =
    match List.assoc_opt x values with
    | Some v -> v
    | None -> invalid_arg ("unbound parameter " ^ x)
  in
  memoize t t.recoveries (Exec.params_key plan ~param) (fun () -> Plan.recovery plan ~param)

let reference t key compute = memoize t t.refs key compute

let size t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.plans.tbl in
  Mutex.unlock t.mutex;
  n

let capacity t = t.capacity
let dir t = t.dir
