open C_ast
module A = Polymath.Affine

type level_stmts = { pre : stmt list; post : stmt list }

let sink ?(config = Schemes.default_config) (nest : Trahrhe.Nest.t) ~levels ~innermost =
  let ty = config.Schemes.counter_ty in
  let nest_levels = Array.of_list nest.Trahrhe.Nest.levels in
  let d = Array.length nest_levels in
  if List.length levels <> d - 1 then
    invalid_arg "Imperfect.sink: need pre/post statements for every non-innermost level";
  let bound_expr a = Symx.Cemit.emit_poly_int (A.to_poly a) ~ty in
  (* guard: iterators deeper than level k all at first (resp. last)
     position of their range *)
  let guard ~at_first k =
    List.init
      (d - 1 - k)
      (fun off ->
        let l = nest_levels.(k + 1 + off) in
        if at_first then Printf.sprintf "%s == %s" l.Trahrhe.Nest.var (bound_expr l.Trahrhe.Nest.lower)
        else Printf.sprintf "%s == (%s) - 1" l.Trahrhe.Nest.var (bound_expr l.Trahrhe.Nest.upper))
    |> String.concat " && "
  in
  let pres =
    List.mapi
      (fun k (ls : level_stmts) ->
        if ls.pre = [] then []
        else [ If { cond = guard ~at_first:true k; then_ = ls.pre; else_ = [] } ])
      levels
    |> List.concat
  in
  let posts =
    List.mapi (fun k (ls : level_stmts) -> (k, ls.post)) levels
    |> List.rev
    |> List.concat_map (fun (k, post) ->
           if post = [] then []
           else [ If { cond = guard ~at_first:false k; then_ = post; else_ = [] } ])
  in
  pres @ innermost @ posts

let collapse ?(config = Schemes.default_config) (forms : Trahrhe.Closed_form.t) ~levels ~innermost =
  let body =
    sink ~config forms.Trahrhe.Closed_form.inversion.Trahrhe.Inversion.nest ~levels ~innermost
  in
  Schemes.per_thread ~config forms ~body
