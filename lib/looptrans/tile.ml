module A = Polymath.Affine
module Q = Zmath.Rat
module B = Zmath.Bigint

type t = {
  original : Trahrhe.Nest.t;
  tile_nest : Trahrhe.Nest.t;
  size : int;
  derived_params : (string * string) list;
}

let tile_var v = v ^ "t"

let int_coeff ~what c =
  if not (Q.is_integer c) then
    invalid_arg (Printf.sprintf "Tile.tile: non-integer coefficient in %s" what);
  B.to_int_exn (Q.num c)

(* tile-space bound: substitute original iterators by their tile-extreme
   position (base or top, by coefficient sign), parameters P by size*Pt
   (P assumed divisible by the tile size), then divide by the size with
   a floor (lower) or last-point floor + 1 (exclusive upper). *)
let tile_bound ~kind ~size ~is_param bound =
  let terms = A.terms bound in
  let shifted_const =
    List.fold_left
      (fun acc (v, c) ->
        if is_param v then acc
        else begin
          let cq = int_coeff ~what:("coefficient of " ^ v) c in
          let extreme =
            match kind with
            | `Lower_min -> if cq >= 0 then 0 else size - 1
            | `Upper_max -> if cq >= 0 then size - 1 else 0
          in
          acc + (cq * extreme)
        end)
      0 terms
  in
  let c0 = int_coeff ~what:"constant term" (A.const_part bound) + shifted_const in
  let tile_terms =
    List.map
      (fun (v, c) ->
        let cq = int_coeff ~what:"coefficient" c in
        ((if is_param v then v ^ "t" else tile_var v), Q.of_int cq))
      terms
  in
  let const =
    let floor_div x = if x >= 0 then x / size else -(((-x) + size - 1) / size) in
    match kind with
    | `Lower_min -> floor_div c0
    | `Upper_max -> floor_div (c0 - 1) + 1
  in
  A.make tile_terms (Q.of_int const)

let tile (nest : Trahrhe.Nest.t) ~size =
  if size <= 0 then invalid_arg "Tile.tile: size must be positive";
  let is_param v = List.mem v nest.Trahrhe.Nest.params in
  let tile_levels =
    List.map
      (fun (l : Trahrhe.Nest.level) ->
        { Trahrhe.Nest.var = tile_var l.var;
          lower = tile_bound ~kind:`Lower_min ~size ~is_param l.lower;
          upper = tile_bound ~kind:`Upper_max ~size ~is_param l.upper })
      nest.Trahrhe.Nest.levels
  in
  let derived_params = List.map (fun p -> (p, p ^ "t")) nest.Trahrhe.Nest.params in
  { original = nest;
    tile_nest = Trahrhe.Nest.make ~params:(List.map snd derived_params) tile_levels;
    size;
    derived_params }

let bound_c ~ty a = Symx.Cemit.emit_poly_int (A.to_poly a) ~ty

let intra_bounds t ~ty =
  List.map
    (fun (l : Trahrhe.Nest.level) ->
      let vt = tile_var l.var in
      let base = Printf.sprintf "(%s)*%d" vt t.size in
      let lo = bound_c ~ty l.lower and up = bound_c ~ty l.upper in
      ( l.var,
        Printf.sprintf "(%s > %s ? %s : %s)" lo base lo base,
        Printf.sprintf "(%s < %s + %d ? %s : %s + %d)" up base t.size up base t.size ))
    t.original.Trahrhe.Nest.levels

let emit_intra t ~ty ~body =
  let bounds = intra_bounds t ~ty in
  let rec loops = function
    | [] -> body
    | (v, lo, up) :: rest ->
      [ Codegen.C_ast.For
          { init = Printf.sprintf "%s %s = %s" ty v lo;
            cond = Printf.sprintf "%s < %s" v up;
            step = v ^ "++";
            body = loops rest } ]
  in
  loops bounds

let collapse_tiles ?(config = Codegen.Schemes.default_config) t ~body =
  let ty = config.Codegen.Schemes.counter_ty in
  let forms = Trahrhe.Closed_form.invert_exn t.tile_nest in
  (* derived parameters: Pt = P / size (P assumed divisible) *)
  let derived_decls =
    List.map
      (fun (p, pt) ->
        Codegen.C_ast.Decl
          { ty; name = pt; init = Some (Printf.sprintf "%s / %d" p t.size) })
      t.derived_params
  in
  derived_decls
  @ Codegen.Schemes.per_thread ~config forms ~body:(emit_intra t ~ty ~body)

let iterate t ~param f =
  List.iter
    (fun (p, _) ->
      if param p mod t.size <> 0 then
        invalid_arg
          (Printf.sprintf "Tile.iterate: parameter %s = %d is not a multiple of the tile size %d"
             p (param p) t.size))
    t.derived_params;
  let tparam x =
    match List.find_opt (fun (_, pt) -> pt = x) t.derived_params with
    | Some (p, _) -> param p / t.size
    | None -> param x
  in
  let levels = Array.of_list t.original.Trahrhe.Nest.levels in
  let d = Array.length levels in
  let orig_idx = Array.make d 0 in
  let eval_bound k a =
    let v =
      A.eval
        (fun x ->
          let rec find j =
            if j >= k then Q.of_int (param x)
            else if levels.(j).Trahrhe.Nest.var = x then Q.of_int orig_idx.(j)
            else find (j + 1)
          in
          find 0)
        a
    in
    B.to_int_exn (Q.to_bigint_exn v)
  in
  Trahrhe.Nest.iterate t.tile_nest ~param:tparam (fun tidx ->
      let rec go k =
        if k = d then f (Array.copy orig_idx)
        else begin
          let lo = max (eval_bound k levels.(k).Trahrhe.Nest.lower) (tidx.(k) * t.size) in
          let hi =
            min (eval_bound k levels.(k).Trahrhe.Nest.upper) ((tidx.(k) * t.size) + t.size)
          in
          for v = lo to hi - 1 do
            orig_idx.(k) <- v;
            go (k + 1)
          done
        end
      in
      go 0)
