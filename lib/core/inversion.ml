module P = Polymath.Polynomial
module A = Polymath.Affine
module H = Polymath.Horner
module Bp = Polymath.Bpoly
module B = Zmath.Bigint
module Q = Zmath.Rat

type t = { nest : Nest.t; pc_var : string; ranking : P.t; trip_count : P.t; r_sub : P.t array }

type error =
  | No_samples
  | Sample_budget of { budget : int; sizes : int list }
  | Rank_mismatch of { size : int; points : int; position : int; point : (string * int) list }
  | Trip_mismatch of { size : int; points : int; trip : Q.t }

let error_to_string = function
  | No_samples -> "all sampled parameter valuations yield an empty iteration domain"
  | Sample_budget { budget; sizes } ->
    Printf.sprintf
      "no sample within the %d-point budget: every non-empty sampled parameter valuation (sizes \
       %s) enumerates more points"
      budget
      (String.concat ", " (List.map string_of_int sizes))
  | Rank_mismatch { size; points; position; point } ->
    Printf.sprintf
      "the ranking polynomial misranks iteration %d (%s) of the %d enumerated at sample size %d: \
       its summed counts hold only where every level range is non-empty or exactly empty (upper \
       = lower - 1)"
      position
      (String.concat ", " (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) point))
      points size
  | Trip_mismatch { size; points; trip } ->
    Printf.sprintf
      "the trip count polynomial gives %s at sample size %d, where %d points are enumerated: its \
       summed counts hold only where every level range is non-empty or exactly empty (upper = \
       lower - 1)"
      (Q.to_string trip) size points

(* substituted rankings: r_sub.(k) = ranking[ i_q := tail minimum, q > k ] *)
let substituted_rankings nest ranking =
  let count_levels = Nest.to_count_levels nest in
  let d = Nest.depth nest in
  Array.init d (fun k ->
      let minima = Polyhedral.Lexmin.tail_minima count_levels ~prefix:(k + 1) in
      (* each minimum is affine over i_0..i_k and parameters only, so
         sequential substitution is simultaneous here *)
      List.fold_left (fun p (x, m) -> P.subst x (A.to_poly m) p) ranking minima)

type sample = { param : string -> int; points : int array list }

let sample_budget = 4000

exception Over_budget

let index_of names x = Array.find_index (String.equal x) names

(* Enumerate each sample size within the point budget and check that
   the ranking gives its points the ranks 1..n in order and that the
   trip count is n. Ranks are native-int Horner evaluations where
   [Bpoly.fits_native] proves them exact over the sample's coordinate
   magnitudes, else exact bigint evaluations. *)
let samples ?(sample_sizes = [ 3; 4; 6 ]) inv =
  let nest = inv.nest in
  let vars = Array.of_list (Nest.level_vars nest) in
  let params = Array.of_list nest.Nest.params in
  let d = Array.length vars in
  (* slots: level vars, then params *)
  let names = Array.append vars params in
  let slot x =
    match index_of names x with Some s -> s | None -> invalid_arg ("unknown variable " ^ x)
  in
  let exact = Bp.compile ~slot inv.ranking in
  (* compiled once a sample passes the headroom rule, which also
     bounds every scaled coefficient inside the int range *)
  let horner = lazy (H.compile ~slot inv.ranking) in
  let rec go acc over = function
    | [] -> (
      match (acc, over) with
      | [], [] -> Error No_samples
      | [], sizes -> Error (Sample_budget { budget = sample_budget; sizes = List.rev sizes })
      | s, _ -> Ok (List.rev s))
    | size :: rest -> (
      let values = Array.mapi (fun i _ -> size + (3 * i)) params in
      let param x =
        match index_of params x with
        | Some i -> values.(i)
        | None -> invalid_arg ("unknown parameter " ^ x)
      in
      let points = ref [] and count = ref 0 and largest = Array.make d 1 in
      match
        Nest.iterate nest ~param (fun idx ->
            incr count;
            if !count > sample_budget then raise Over_budget;
            Array.iteri (fun k v -> largest.(k) <- max largest.(k) (abs v)) idx;
            points := idx :: !points)
      with
      | exception Over_budget -> go acc (size :: over) rest
      | exception Invalid_argument _ | () -> (
        match List.rev !points with
        | [] -> go acc over rest
        | points -> (
          let mag =
            Array.init (Array.length names) (fun s ->
                B.of_int (if s < d then largest.(s) else max 1 (abs values.(s - d))))
          in
          let native = Bp.fits_native ~mag [ exact ] in
          let rank idx =
            let lookup s = if s < d then idx.(s) else values.(s - d) in
            if native then H.eval (Lazy.force horner) lookup
            else (* a rank beyond the int range is no position *)
              try Bp.eval exact lookup with Failure _ -> 0
          in
          let rec first_misranked n = function
            | [] -> None
            | idx :: tl -> if rank idx <> n then Some (n, idx) else first_misranked (n + 1) tl
          in
          let n = List.length points in
          match first_misranked 1 points with
          | Some (position, idx) ->
            let point = Array.to_list (Array.mapi (fun k v -> (vars.(k), v)) idx) in
            Error (Rank_mismatch { size; points = n; position; point })
          | None ->
            (* rows of negative extent that come last in the order
               shift no rank, only the total *)
            let trip = P.eval (fun x -> Q.of_int (param x)) inv.trip_count in
            if Q.equal trip (Q.of_int n) then go ({ param; points } :: acc) over rest
            else Error (Trip_mismatch { size; points = n; trip }))))
  in
  go [] [] sample_sizes

let invert ?(pc_var = "pc") ?sample_sizes nest =
  if List.mem pc_var (Nest.level_vars nest) || List.mem pc_var nest.Nest.params then
    invalid_arg ("Inversion.invert: pc variable " ^ pc_var ^ " collides with the nest");
  Obsv.Trace.with_span "pipeline.inversion" @@ fun () ->
  let ranking, trip_count = Ranking.ranking_and_trip nest in
  let inv = { nest; pc_var; ranking; trip_count; r_sub = substituted_rankings nest ranking } in
  (* a single level is recovered by its exact formula alone, so it
     needs no sample; deeper nests must rank one *)
  if Nest.depth nest < 2 then Ok inv
  else
    Result.map
      (fun _ -> inv)
      (Obsv.Trace.with_span "invert.samples" (fun () -> samples ?sample_sizes inv))

let invert_exn ?pc_var ?sample_sizes nest =
  match invert ?pc_var ?sample_sizes nest with
  | Ok t -> t
  | Error e -> failwith (error_to_string e)
