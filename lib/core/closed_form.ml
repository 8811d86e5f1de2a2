module P = Polymath.Polynomial
module E = Symx.Expr

type level =
  | Root of { var : string; expr : E.t; mode : Symx.Cemit.mode }
  | Last of { var : string; poly : P.t }
  | Numeric of { var : string; r_sub_index : int }

type t = { inversion : Inversion.t; levels : level array }

type error = Inversion of Inversion.error | No_valid_root of { var : string; candidates : int }

let error_to_string = function
  | Inversion e -> Inversion.error_to_string e
  | No_valid_root { var; candidates } ->
    Printf.sprintf "none of the %d symbolic candidate roots for index %s validated" candidates var

(* the expression is staged once; each parameter valuation then fills
   a template of slots: pc, the k outer level indices, then the params
   (only those the root reads, since [param] need not know the others) *)
let stage_root nest ~pc_var ~k expr =
  let vars = Array.of_list (Nest.level_vars nest) and params = Array.of_list nest.Nest.params in
  let names = Array.concat [ [| pc_var |]; Array.sub vars 0 k; params ] in
  let slot x =
    match Array.find_index (String.equal x) names with
    | Some s -> s
    | None -> invalid_arg ("unknown variable " ^ x)
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

(* Does floor of candidate [expr] reproduce index k on every sampled
   iteration? Tolerates tiny float noise the same way the generated C
   does (plus a one-ulp nudge before floor). *)
let candidate_valid nest ~pc_var ~k expr samples =
  let root = stage_root nest ~pc_var ~k expr in
  List.for_all
    (fun { Inversion.param; points } ->
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

let select ?sample_sizes (inv : Inversion.t) =
  let nest = inv.Inversion.nest and pc_var = inv.Inversion.pc_var in
  let d = Nest.depth nest in
  let vars = Array.of_list (Nest.level_vars nest) in
  let exception Fail of error in
  (* the samples {!Inversion.invert} checked, enumerated again: only
     a level with a root to select reads them *)
  let samples =
    lazy
      (match Inversion.samples ?sample_sizes inv with
      | Ok s -> s
      | Error e -> raise (Fail (Inversion e)))
  in
  let level k =
    let var = vars.(k) in
    let r_sub = inv.Inversion.r_sub.(k) in
    if k = d - 1 then Last { var; poly = Inversion.innermost inv }
    else begin
      let u = Rootsolve.Solver.of_poly ~unknown:var (P.sub r_sub (P.var pc_var)) in
      let deg = Rootsolve.Solver.degree u in
      if deg < 1 then raise (Fail (No_valid_root { var; candidates = 0 }));
      (* no radical closed form: the printed search is exact by
         construction, so it needs no certificate *)
      let numeric = Numeric { var; r_sub_index = k } in
      if deg > 4 then numeric
      else begin
        match Rootsolve.Solver.candidates u with
        | exception Rootsolve.Solver.Unsupported_degree _ -> numeric
        | cands -> (
          let samples = Lazy.force samples in
          let valid = List.filter (fun e -> candidate_valid nest ~pc_var ~k e samples) cands in
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
            Root { var; expr = best; mode = Symx.Cemit.classify best })
      end
    end
  in
  try Ok { inversion = inv; levels = Array.init d level } with Fail e -> Error e

let select_exn ?sample_sizes inv =
  match select ?sample_sizes inv with Ok t -> t | Error e -> failwith (error_to_string e)

let invert ?pc_var ?sample_sizes nest =
  match Inversion.invert ?pc_var ?sample_sizes nest with
  | Error e -> Error (Inversion e)
  | Ok inv -> select ?sample_sizes inv

let invert_exn ?pc_var ?sample_sizes nest =
  match invert ?pc_var ?sample_sizes nest with
  | Ok t -> t
  | Error e -> failwith (error_to_string e)

let pp fmt t =
  Array.iter
    (function
      | Root { var; expr; mode } ->
        Format.fprintf fmt "%s = floor(%s)   [%s]@\n" var (E.to_string expr)
          (match mode with Symx.Cemit.Real -> "real" | Symx.Cemit.Complex -> "complex")
      | Last { var; poly } -> Format.fprintf fmt "%s = %s   [exact]@\n" var (P.to_string poly)
      | Numeric { var; r_sub_index } ->
        Format.fprintf fmt "%s = search on r_sub_%d   [no radical closed form at this degree]@\n"
          var r_sub_index)
    t.levels

(* level k's index from the recovered prefix and pc *)
type evaluator = (int array -> int -> int) array

let make t ~param =
  let inv = t.inversion in
  let rc = Recovery.make inv ~param in
  let nest = inv.Inversion.nest and pc_var = inv.Inversion.pc_var in
  let level k = function
    | Root { expr; _ } ->
      let root = stage_root nest ~pc_var ~k expr ~param in
      fun idx pc -> int_of_float (Float.floor (root idx pc).Complex.re)
    | Last _ ->
      fun idx pc ->
        let lb = Recovery.lower_bound rc ~level:k idx in
        lb + pc - Recovery.rank_prefix rc ~level:k lb idx
    | Numeric _ ->
      (* largest v with rank_prefix v <= pc, as the emitted C finds it *)
      fun idx pc ->
        let a = ref (Recovery.lower_bound rc ~level:k idx)
        and b = ref (Recovery.upper_bound rc ~level:k idx - 1) in
        while !a < !b do
          let mid = !a + ((!b - !a + 1) / 2) in
          if Recovery.rank_prefix rc ~level:k mid idx <= pc then a := mid else b := mid - 1
        done;
        !a
  in
  Array.mapi level t.levels

let recover t pc =
  let idx = Array.make (Array.length t) 0 in
  Array.iteri (fun k level -> idx.(k) <- level idx pc) t;
  idx
