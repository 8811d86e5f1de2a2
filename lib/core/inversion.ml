module P = Polymath.Polynomial
module A = Polymath.Affine
module H = Polymath.Horner
module Bp = Polymath.Bpoly
module B = Zmath.Bigint
module Q = Zmath.Rat
module E = Symx.Expr

type level_recovery =
  | Root of { var : string; expr : E.t; mode : Symx.Cemit.mode }
  | Last of { var : string; poly : P.t }
  | Numeric of { var : string; r_sub_index : int }

type t = {
  nest : Nest.t;
  pc_var : string;
  ranking : P.t;
  trip_count : P.t;
  r_sub : P.t array;
  recoveries : level_recovery array;
}

type error =
  | Degree_too_high of { var : string; degree : int }
  | No_valid_root of { var : string; candidates : int }
  | No_samples
  | Sample_budget of { budget : int; sizes : int list }
  | Rank_mismatch of { size : int; points : int; position : int; point : (string * int) list }

let error_to_string = function
  | Degree_too_high { var; degree } ->
    Printf.sprintf
      "index %s occurs with degree %d > 4 in the ranking polynomial: no closed-form root (paper \
       §IV-B); use binary-search recovery instead"
      var degree
  | No_valid_root { var; candidates } ->
    Printf.sprintf "none of the %d symbolic candidate roots for index %s validated" candidates var
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

(* substituted rankings: r_sub.(k) = ranking[ i_q := tail minimum, q > k ] *)
let substituted_rankings nest ranking =
  let count_levels = Nest.to_count_levels nest in
  let d = Nest.depth nest in
  Array.init d (fun k ->
      let minima = Polyhedral.Lexmin.tail_minima count_levels ~prefix:(k + 1) in
      (* each minimum is affine over i_0..i_k and parameters only, so
         sequential substitution is simultaneous here *)
      List.fold_left (fun p (x, m) -> P.subst x (A.to_poly m) p) ranking minima)

(* sampled concrete instances used to select the convenient root:
   one parameter valuation's points in enumeration order, so the point
   at list position n has rank n + 1 (checked by [build_samples]) *)
type sample = { param : string -> int; points : int array list }

let sample_budget = 4000

exception Over_budget

let index_of names x = Array.find_index (String.equal x) names

(* the expression is staged once; each parameter valuation then fills
   a template of slots: pc, the k outer level indices, then the params
   (only those the root reads, since [param] need not know the others) *)
let stage_root nest ~pc_var ~k expr =
  let vars = Array.of_list (Nest.level_vars nest) and params = Array.of_list nest.Nest.params in
  let names = Array.concat [ [| pc_var |]; Array.sub vars 0 k; params ] in
  let slot x =
    match index_of names x with Some s -> s | None -> invalid_arg ("unknown variable " ^ x)
  in
  let eval = E.compile_complex ~slot expr and used = E.free_vars expr in
  let re n = { Complex.re = float_of_int n; im = 0.0 } in
  fun ~param ->
    let template = Array.make (Array.length names) Complex.zero in
    Array.iteri (fun i p -> if List.mem p used then template.(k + 1 + i) <- re (param p)) params;
    fun idx pc ->
      let env = Array.copy template in
      env.(0) <- re pc;
      for j = 0 to k - 1 do
        env.(j + 1) <- re idx.(j)
      done;
      eval env

(* Enumerate each sample size within the point budget and check that
   [ranking] gives its points the ranks 1..n in order; also returns
   the sizes dropped for exceeding the budget. Ranks are
   native-int Horner evaluations where [Bpoly.fits_native] proves them
   exact over the sample's coordinate magnitudes, else exact bigint
   evaluations. *)
let build_samples nest ranking ~sample_sizes =
  let vars = Array.of_list (Nest.level_vars nest) in
  let params = Array.of_list nest.Nest.params in
  let d = Array.length vars in
  (* slots: level vars, then params *)
  let names = Array.append vars params in
  let slot x =
    match index_of names x with Some s -> s | None -> invalid_arg ("unknown variable " ^ x)
  in
  let exact = Bp.compile ~slot ranking in
  (* compiled once a sample passes the headroom rule, which also
     bounds every scaled coefficient inside the int range *)
  let horner = lazy (H.compile ~slot ranking) in
  let rec go acc over = function
    | [] -> Ok (List.rev acc, List.rev over)
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
          match first_misranked 1 points with
          | None -> go ({ param; points } :: acc) over rest
          | Some (position, idx) ->
            let point = Array.to_list (Array.mapi (fun k v -> (vars.(k), v)) idx) in
            Error (Rank_mismatch { size; points = List.length points; position; point }))))
  in
  go [] [] sample_sizes

(* Does floor of candidate [expr] reproduce index k on every sampled
   iteration? Tolerates tiny float noise the same way the generated C
   does (plus a one-ulp nudge before floor). *)
let candidate_valid nest ~pc_var ~k expr samples =
  let root = stage_root nest ~pc_var ~k expr in
  List.for_all
    (fun { param; points } ->
      let root = root ~param in
      let rec all_valid rank = function
        | [] -> true
        | idx :: rest ->
          let z = root idx rank in
          Float.is_finite z.Complex.re
          && Float.abs z.Complex.im <= 1e-6 *. Float.max 1.0 (Float.abs z.Complex.re)
          && int_of_float (Float.floor (z.Complex.re +. 1e-9)) = idx.(k)
          && all_valid (rank + 1) rest
      in
      all_valid 1 points)
    samples

(* expression size, for preferring the simplest valid root *)
let rec expr_size = function
  | E.Const _ | E.I | E.Var _ -> 1
  | E.Sum es | E.Prod es -> List.fold_left (fun a e -> a + expr_size e) 1 es
  | E.Pow (b, _) -> 1 + expr_size b

(* Certify a numeric level on the sampled iterations: for a spread of
   sampled (prefix, rank) pairs, isolate the root of
   [r_sub.(k) - rank] over exact rationals and check the certified
   enclosure lands in [ik, ik+1) — the continuous root of the monotone
   substituted ranking always lives there when the level is sound. *)
let numeric_valid nest ~pc_var ~k u levels samples =
  let vars = Array.of_list (Nest.level_vars nest) in
  Obsv.Trace.with_span "invert.isolate" @@ fun () ->
  List.for_all
    (fun { param; points } ->
      let stride = max 1 (List.length points / 32) in
      List.for_all
        (fun (n, idx) ->
          n mod stride <> 0
          ||
          let env x =
            if x = pc_var then Q.of_int (n + 1)
            else begin
              let rec find j =
                if j >= k then Q.of_int (param x)
                else if vars.(j) = x then Q.of_int idx.(j)
                else find (j + 1)
              in
              find 0
            end
          in
          let p = Rootsolve.Isolate.of_univariate u ~env in
          let lo = P.eval env (A.to_poly levels.(k).Nest.lower) in
          let hi = P.eval env (A.to_poly levels.(k).Nest.upper) in
          match Rootsolve.Isolate.isolate p ~lo ~hi with
          | Error _ -> false
          | Ok enc ->
            let ik = Q.of_int idx.(k) and ik1 = Q.of_int (idx.(k) + 1) in
            Q.compare enc.Rootsolve.Isolate.enc_lo ik1 <= 0
            && Q.compare enc.Rootsolve.Isolate.enc_hi ik >= 0)
        (List.mapi (fun n idx -> (n, idx)) points))
    samples

let force_numeric_default () =
  match Sys.getenv_opt "OMPSIM_FORCE_NUMERIC" with
  | Some "1" | Some "true" -> true
  | _ -> false

let invert ?(pc_var = "pc") ?(sample_sizes = [ 3; 4; 6 ]) ?force_numeric nest =
  if List.mem pc_var (Nest.level_vars nest) || List.mem pc_var nest.Nest.params then
    invalid_arg ("Inversion.invert: pc variable " ^ pc_var ^ " collides with the nest");
  let force_numeric =
    match force_numeric with Some b -> b | None -> force_numeric_default ()
  in
  Obsv.Trace.with_span "pipeline.inversion" @@ fun () ->
  let ranking, trip_count = Ranking.ranking_and_trip nest in
  let r_sub = substituted_rankings nest ranking in
  let d = Nest.depth nest in
  let vars = Array.of_list (Nest.level_vars nest) in
  let levels = Array.of_list nest.Nest.levels in
  (* samples only matter where there is a candidate root to select or a
     numeric certificate to check; deep nests whose domains are too
     large to enumerate must still invert (their levels are all exact
     or numeric, both certified at runtime) *)
  let exception Fail of error in
  let samples =
    lazy
      (match
         Obsv.Trace.with_span "invert.samples" (fun () ->
             build_samples nest ranking ~sample_sizes)
       with
      | Ok s -> s
      | Error e -> raise (Fail e))
  in
  try
    let recoveries =
      Array.init d (fun k ->
          let var = vars.(k) in
          if k = d - 1 then begin
            (* ik = lb + pc - r(prefix, lb): exact integer polynomial *)
            let lb = A.to_poly levels.(k).Nest.lower in
            let rank_at_lb = P.subst var lb r_sub.(k) in
            let poly = P.add lb (P.sub (P.var pc_var) rank_at_lb) in
            Last { var; poly }
          end
          else begin
            let equation = P.sub r_sub.(k) (P.var pc_var) in
            let u = Rootsolve.Solver.of_poly ~unknown:var equation in
            let deg = Rootsolve.Solver.degree u in
            if deg < 1 then raise (Fail (No_valid_root { var; candidates = 0 }));
            let numeric () =
              if not (numeric_valid nest ~pc_var ~k u levels (fst (Lazy.force samples))) then
                raise (Fail (No_valid_root { var; candidates = 0 }));
              Numeric { var; r_sub_index = k }
            in
            if deg > 4 || force_numeric then numeric ()
            else begin
              match Rootsolve.Solver.candidates u with
              | exception Rootsolve.Solver.Unsupported_degree _ -> numeric ()
              | cands -> begin
                let samples =
                  match Lazy.force samples with
                  | [], [] -> raise (Fail No_samples)
                  | [], sizes -> raise (Fail (Sample_budget { budget = sample_budget; sizes }))
                  | s, _ -> s
                in
                let valid =
                  List.filter (fun e -> candidate_valid nest ~pc_var ~k e samples) cands
                in
                match
                  List.sort
                    (fun a b ->
                      (* prefer real-emittable, then structurally smaller *)
                      let ma = Symx.Cemit.classify a and mb = Symx.Cemit.classify b in
                      if ma <> mb then if ma = Symx.Cemit.Real then -1 else 1
                      else compare (expr_size a) (expr_size b))
                    valid
                with
                | [] -> raise (Fail (No_valid_root { var; candidates = List.length cands }))
                | best :: _ ->
                  (* expand polynomial subtrees so the emitted C shows the
                     flat discriminants the paper prints *)
                  let best = Symx.Simplify.normalize best in
                  Root { var; expr = best; mode = Symx.Cemit.classify best }
              end
            end
          end)
    in
    Ok { nest; pc_var; ranking; trip_count; r_sub; recoveries }
  with Fail e -> Error e

let invert_exn ?pc_var ?sample_sizes ?force_numeric nest =
  match invert ?pc_var ?sample_sizes ?force_numeric nest with
  | Ok t -> t
  | Error e -> failwith (error_to_string e)
