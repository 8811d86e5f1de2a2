open C_ast
module P = Polymath.Polynomial
module E = Symx.Expr
module Cemit = Symx.Cemit

let disjoint_vars a b =
  List.for_all (fun v -> not (List.mem v b)) a

(* the printed recovery of one inversion: its selected closed forms *)
let forms inv =
  match Trahrhe.Closed_form.select inv with
  | Ok forms -> forms
  | Error e -> failwith (Trahrhe.Closed_form.error_to_string e)

let reshape ?(config = Schemes.default_config) (r : Trahrhe.Reshape.t) ~body =
  let ty = config.Schemes.counter_ty in
  let source = Trahrhe.Reshape.source r in
  let target = Trahrhe.Reshape.target r in
  let svars = Trahrhe.Nest.level_vars source.Trahrhe.Inversion.nest in
  let tvars = Trahrhe.Nest.level_vars target.Trahrhe.Inversion.nest in
  if not (disjoint_vars svars tvars) then
    invalid_arg "Xforms.reshape: source and target iterator names must be disjoint";
  let pc = source.Trahrhe.Inversion.pc_var in
  let decls =
    List.map (fun v -> Decl { ty; name = v; init = None }) (svars @ tvars)
    @ [ Decl { ty; name = pc; init = None };
        Decl { ty = "int"; name = "first_iteration"; init = Some "1" } ]
  in
  let target_depth = Trahrhe.Nest.depth target.Trahrhe.Inversion.nest in
  let pragma =
    Pragma
      (Printf.sprintf
         "omp parallel for collapse(%d) private(%s, %s) firstprivate(first_iteration) \
          schedule(%s)"
         target_depth
         (String.concat ", " (svars @ config.Schemes.extra_private))
         pc config.Schemes.schedule)
  in
  (* the target nest is rectangular-collapsible by OpenMP itself; its
     rank polynomial gives the fused rank of the current iteration *)
  let recovery =
    If
      { cond = "first_iteration";
        then_ =
          Assign (pc, Cemit.emit_poly_int target.Trahrhe.Inversion.ranking ~ty)
          :: Schemes.recovery_stmts ~config (forms source)
          @ [ Assign ("first_iteration", "0") ];
        else_ = [] }
  in
  let inner = (recovery :: body) @ Schemes.increment_stmts ~config source in
  let rec loops = function
    | [] -> inner
    | (l : Trahrhe.Nest.level) :: rest ->
      [ For
          { init = Printf.sprintf "%s = %s" l.var (Cemit.emit_poly_int (Polymath.Affine.to_poly l.lower) ~ty);
            cond =
              Printf.sprintf "%s < %s" l.var
                (Cemit.emit_poly_int (Polymath.Affine.to_poly l.upper) ~ty);
            step = l.var ^ "++";
            body = loops rest } ]
  in
  decls @ [ pragma ] @ loops target.Trahrhe.Inversion.nest.Trahrhe.Nest.levels

let fused ?(config = Schemes.default_config) (f : Trahrhe.Fusion.t) ~bodies =
  let ty = config.Schemes.counter_ty in
  let segs = Trahrhe.Fusion.segments f in
  if List.length segs <> List.length bodies then
    invalid_arg "Xforms.fused: one body per segment required";
  let all_vars =
    List.concat_map
      (fun (s : Trahrhe.Fusion.segment) -> Trahrhe.Nest.level_vars s.inversion.Trahrhe.Inversion.nest)
      segs
  in
  if List.length (List.sort_uniq compare all_vars) <> List.length all_vars then
    invalid_arg "Xforms.fused: iterator names must be distinct across segments";
  let pc = (List.hd segs).Trahrhe.Fusion.inversion.Trahrhe.Inversion.pc_var in
  let offset_plus_trip (s : Trahrhe.Fusion.segment) =
    P.add s.offset s.inversion.Trahrhe.Inversion.trip_count
  in
  let shifted_recovery (s : Trahrhe.Fusion.segment) =
    (* recover from the segment-local rank pc - offset *)
    let selected = forms s.inversion in
    let local = P.sub (P.var pc) s.offset in
    let shifted =
      { Trahrhe.Closed_form.levels =
          Array.map
            (function
              | Trahrhe.Closed_form.Root { var; expr; mode } ->
                Trahrhe.Closed_form.Root
                  { var; expr = E.subst pc (E.of_poly local) expr; mode }
              | Trahrhe.Closed_form.Last { var; poly } ->
                Trahrhe.Closed_form.Last { var; poly = P.subst pc local poly }
              | Trahrhe.Closed_form.Numeric _ as r ->
                (* the emitted binary search compares the offset-shifted
                   r_sub below against the global pc directly:
                   r + offset <= pc  <=>  r <= pc - offset *)
                r)
            selected.Trahrhe.Closed_form.levels;
        inversion =
          { s.inversion with
            (* guards compare local rank against r_sub: shift them too
               by adding the offset to the substituted rankings *)
            Trahrhe.Inversion.r_sub =
              Array.map (fun r -> P.add r s.offset) s.inversion.Trahrhe.Inversion.r_sub } }
    in
    Schemes.recovery_stmts ~config shifted
  in
  let first_point_assigns (s : Trahrhe.Fusion.segment) =
    let nest = s.inversion.Trahrhe.Inversion.nest in
    Polyhedral.Lexmin.first_point (Trahrhe.Nest.to_count_levels nest)
    |> List.map (fun (v, m) ->
           Assign (v, Cemit.emit_poly_int (Polymath.Affine.to_poly m) ~ty))
  in
  (* dispatch: if (first_iteration) pick the segment by offset ranges *)
  let rec dispatch = function
    | [] -> []
    | s :: rest ->
      let cond =
        Printf.sprintf "%s <= %s" pc (Cemit.emit_poly_int (offset_plus_trip s) ~ty)
      in
      if rest = [] then shifted_recovery s
      else [ If { cond; then_ = shifted_recovery s; else_ = dispatch rest } ]
  in
  (* per-iteration body: segment selection + body + §V increment, and
     on crossing a boundary, seed the next segment's first point *)
  let rec exec segs bodies =
    match (segs, bodies) with
    | [], [] -> []
    | (s : Trahrhe.Fusion.segment) :: rest, body :: bodies_rest ->
      let boundary = Cemit.emit_poly_int (offset_plus_trip s) ~ty in
      let advance =
        match rest with
        | [] -> Schemes.increment_stmts ~config s.inversion
        | next :: _ ->
          [ If
              { cond = Printf.sprintf "%s == %s" pc boundary;
                then_ = first_point_assigns next;
                else_ = Schemes.increment_stmts ~config s.inversion } ]
      in
      let here = body @ advance in
      if rest = [] then here
      else
        [ If
            { cond = Printf.sprintf "%s <= %s" pc boundary;
              then_ = here;
              else_ = exec rest bodies_rest } ]
    | _ -> assert false
  in
  let decls =
    List.map (fun v -> Decl { ty; name = v; init = None }) all_vars
    @ [ Decl { ty = "int"; name = "first_iteration"; init = Some "1" } ]
  in
  let pragma =
    Pragma
      (Printf.sprintf "omp parallel for private(%s) firstprivate(first_iteration) schedule(%s)"
         (String.concat ", " (all_vars @ config.Schemes.extra_private))
         config.Schemes.schedule)
  in
  let loop =
    For
      { init = Printf.sprintf "%s %s = 1" ty pc;
        cond = Printf.sprintf "%s <= %s" pc (Cemit.emit_poly_int (Trahrhe.Fusion.total_trip f) ~ty);
        step = pc ^ "++";
        body =
          If { cond = "first_iteration"; then_ = dispatch segs @ [ Assign ("first_iteration", "0") ]; else_ = [] }
          :: exec segs bodies }
  in
  decls @ [ pragma; loop ]
