module N = Trahrhe.Nest
module R = Trahrhe.Recovery
module Q = Zmath.Rat
module B = Zmath.Bigint
module Par = Ompsim.Par

type opts = {
  threads : int;
  schedule : Ompsim.Schedule.t;
  lanes : int;
  repeat : int;
  retries : int;
  native : bool;
  reduce : N.red_op option;
}

type value = Int of int | Rat of Q.t

let value_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Rat x, Rat y -> Q.compare x y = 0
  | _ -> false

type failure =
  | Empty_extremum
  | Product_too_large of { bits : int; cap : int }
  | Region of { run : int; error : Par.region_error }
  | Raised of { run : int; exn : exn }
  | Mismatch of { run : int; parallel : value; serial : value }

type outcome = { reference : value; run_times : float array }

(* the exact rational product has no native fold: a [prod] run is
   answered as the interpreted fallback it is *)
let recovery ?native plan ~param rc opts =
  if not opts.native then (rc, None)
  else if opts.reduce = Some N.Prod then begin
    Obsv.Metrics.incr_here Jit.Stats.fallbacks;
    (rc, Some "exact rational product stays interpreted")
  end
  else
    let nt = match native with Some nt -> nt | None -> Native.default () in
    Native.recovery_explain nt plan ~param rc

(* |product| <= bound ^ trip, so trip * ceil(log2 bound) bits hold
   any exact product over the space. Past the cap the rational fold
   is refused before either walk: covariance at n = 50 (573,750 bits
   by this bound) ran out of a 2 GB address space, while
   covariance_reduce at n = 12 needs 7,488 *)
let product_cap_bits = 1 lsl 16

let product_bits rc =
  let bound = R.reduce_value_bound rc in
  if B.compare bound B.one <= 0 then 0
  else begin
    let rec bitlen x n = if B.is_zero x then n else bitlen (fst (B.ediv_rem x B.two)) (n + 1) in
    let per_point = bitlen (B.sub bound B.one) 0 and trip = R.trip_count rc in
    if trip > max_int / per_point then max_int else trip * per_point
  end

(* the extremum of an empty space has no value: min/max carry no
   neutral element *)
let rat_result op = function
  | Some q -> Some q
  | None -> N.op_neutral op

(* [f] with [poll] called after every 4096th point: the serial
   reference's safe points, where [run] also checks its deadline *)
let polled poll f =
  match poll with
  | None -> f
  | Some poll ->
    let k = ref 0 in
    fun idx ->
      f idx;
      incr k;
      if !k land 4095 = 0 then poll ()

(* serial reference: the plain left fold over the canonical nest in
   iteration order — the value every parallel run must equal bit for
   bit. [None] only for min/max over an empty space. Independent of
   the collapsed walk: [Nest.iterate] with exact bounds, and min/max
   in exact rationals. *)
let serial ?poll rc ~nest ~param opts =
  let iterate f = N.iterate nest ~param (polled poll f) in
  match opts.reduce with
  | None ->
    let acc = ref 0 in
    iterate (fun idx -> acc := !acc + R.iter_hash idx);
    Some (Int !acc)
  | Some N.Sum ->
    let acc = ref 0 in
    iterate (fun idx -> acc := !acc + R.reduce_value_int rc idx);
    Some (Int !acc)
  | Some op ->
    let acc = ref None in
    iterate (fun idx ->
        let v = R.reduce_value_rat rc idx in
        acc := Some (match !acc with None -> v | Some a -> N.op_apply op a v));
    Option.map (fun q -> Rat q) (rat_result op !acc)

(* the checksum walk of [len] iterations from [start]: one
   [walk_hash] call (a single native call when the backend engaged),
   or the §VI-A lane walk hashing each lane of its lockstep blocks *)
let checksum_walk rc opts =
  if opts.lanes > 1 && not opts.native then fun ~start ~len ->
    let acc = ref 0 in
    R.walk_lanes rc ~pc:(start + 1) ~len ~vlength:opts.lanes (fun ~base:_ ~count buf ->
        acc := !acc + R.block_hash buf ~count);
    !acc
  else fun ~start ~len -> R.walk_hash rc ~pc:(start + 1) ~len

(* a chunk walked in slices of at most [slice] iterations, each paying
   one more recovery (PAPER.md step 4: recover once, then increment),
   their results folded left in order by the region's own associative
   [combine]. Slot 0 runs on the calling domain and calls [poll] after
   every slice: the region's safe points for its caller. *)
let slice = 1 lsl 16

let sliced ~poll ~combine walk ~thread ~start ~len =
  let tick = if thread = 0 then poll else ignore in
  let stop = start + len in
  let first = min slice len in
  let acc = ref (walk ~start ~len:first) in
  tick ();
  let pos = ref (start + first) in
  while !pos < stop do
    let k = min slice (stop - !pos) in
    acc := combine !acc (walk ~start:!pos ~len:k);
    pos := !pos + k;
    tick ()
  done;
  !acc

let params_key plan ~param =
  let nest = plan.Plan.inversion.Trahrhe.Inversion.nest in
  String.concat "/"
    [ plan.Plan.fingerprint;
      String.concat "," (List.map (fun p -> string_of_int (param p)) nest.N.params) ]

(* the reference depends on the plan, the canonical parameter values
   and the payload only: schedule, threads, lanes, native, repeat and
   retries never change it. The fingerprint covers the clause's value,
   the payload names the operator *)
let reference_key plan ~param opts =
  params_key plan ~param ^ "/"
  ^ match opts.reduce with None -> "checksum" | Some op -> N.op_to_string op

(* one parallel run: every payload, the checksum included, is a
   reduction over the chunk partition — per-worker partials and the
   deterministic combine tree of the supervised [Par.reduce] *)
let parallel ?faults ?deadline_ms ~poll rc opts =
  let n = R.trip_count rc in
  let region combine walk =
    Par.reduce ~retries:opts.retries ?deadline_ms ?faults ~nthreads:opts.threads
      ~schedule:opts.schedule ~n ~combine (sliced ~poll ~combine walk)
  in
  let ints combine walk = Result.map (Option.value ~default:0) (region combine walk) in
  let int_walk op ~start ~len = R.walk_reduce_int rc op ~pc:(start + 1) ~len in
  (* an empty space reduces to [None]: 0 for the sums. Min/max over
     an empty space never get here (the reference rejects them first),
     so their defaults are unreachable. *)
  match opts.reduce with
  | None -> ints ( + ) (checksum_walk rc opts) |> Result.map (fun v -> Int v)
  | Some N.Sum -> ints ( + ) (int_walk N.Sum) |> Result.map (fun v -> Int v)
  | Some ((N.Min | N.Max) as op) when not (R.overflow_guarded rc) ->
    (* exact in native ints below [make]'s headroom; rendered as the
       same rational the serial fold yields *)
    ints (if op = N.Min then Int.min else Int.max) (int_walk op)
    |> Result.map (fun v -> Rat (Q.of_int v))
  | Some op ->
    region (N.op_apply op) (fun ~start ~len -> R.walk_reduce_rat rc op ~pc:(start + 1) ~len)
    |> Result.map (fun o -> Rat (Option.value ~default:Q.zero (rat_result op o)))

(* raised at a safe point of the serial reference once the deadline
   is spent; never escapes [run] *)
exception Expired

let run ?faults ?deadline_ms ?started ?(poll = ignore) ~reference rc opts =
  let started = match started with Some t -> t | None -> Unix.gettimeofday () in
  let trip = R.trip_count rc in
  let run_times = Array.make opts.repeat 0.0 in
  (* the deadline budget covers the reference and all [repeat] runs:
     each gets whatever of it remains *)
  let remaining () =
    Option.map
      (fun ms -> max 0 (ms - int_of_float ((Unix.gettimeofday () -. started) *. 1e3)))
      deadline_ms
  in
  (* spent before run [r] starts: what a region cancelled before its
     first chunk reports *)
  let expired r =
    let unrecovered = if trip > 0 then [ (0, trip) ] else [] in
    Error
      (Region { run = r; error = { Par.reason = Par.Deadline_expired; failures = []; unrecovered } })
  in
  let check () = if remaining () = Some 0 then raise Expired in
  let rec go reference r =
    if r > opts.repeat then Ok { reference; run_times }
    else
      match remaining () with
      | Some 0 -> expired r
      | budget -> (
        let t0 = Unix.gettimeofday () in
        match parallel ?faults ?deadline_ms:budget ~poll rc opts with
        | exception exn -> Error (Raised { run = r; exn })
        | Error error -> Error (Region { run = r; error })
        | Ok v ->
          run_times.(r - 1) <- Unix.gettimeofday () -. t0;
          if value_equal v reference then go reference (r + 1)
          else Error (Mismatch { run = r; parallel = v; serial = reference }))
  in
  let bits = if opts.reduce = Some N.Prod then product_bits rc else 0 in
  if bits > product_cap_bits then Error (Product_too_large { bits; cap = product_cap_bits })
  else
    match
      check ();
      reference (fun () ->
          poll ();
          check ())
    with
    | exception Expired -> expired 1
    | None -> Error Empty_extremum
    | Some reference -> go reference 1
