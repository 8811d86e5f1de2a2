open C_ast
module P = Polymath.Polynomial
module A = Polymath.Affine
module Cemit = Symx.Cemit

type config = {
  counter_ty : string;
  schedule : string;
  extra_private : string list;
  guarded : bool;
  declare_indices : bool;
}

let default_config =
  { counter_ty = "long";
    schedule = "static";
    extra_private = [];
    guarded = false;
    declare_indices = true }

let trip_count_expr (inv : Trahrhe.Inversion.t) ~ty =
  Cemit.emit_poly_int inv.Trahrhe.Inversion.trip_count ~ty

let bound_expr ~ty a = Cemit.emit_poly_int (A.to_poly a) ~ty

let nest_levels (inv : Trahrhe.Inversion.t) =
  Array.of_list inv.Trahrhe.Inversion.nest.Trahrhe.Nest.levels

(* exact adjustment of one floored index (library extension):
   clamp into bounds, then nudge until
   r_sub(prefix, v) <= pc < r_sub(prefix, v+1) *)
let guard_stmts ~ty (inv : Trahrhe.Inversion.t) k =
  let levels = nest_levels inv in
  let l = levels.(k) in
  let v = l.Trahrhe.Nest.var in
  let pc = inv.Trahrhe.Inversion.pc_var in
  let r_sub = inv.Trahrhe.Inversion.r_sub.(k) in
  let r_at_next = P.subst v (P.add (P.var v) P.one) r_sub in
  let lb = Printf.sprintf "lb_%s" v and ub = Printf.sprintf "ub_%s" v in
  [ Comment (Printf.sprintf "exact adjustment of %s against the ranking" v);
    Block
      [ Decl { ty; name = lb; init = Some (bound_expr ~ty l.Trahrhe.Nest.lower) };
        Decl
          { ty;
            name = ub;
            init = Some (Printf.sprintf "(%s) - 1" (bound_expr ~ty l.Trahrhe.Nest.upper)) };
        Raw (Printf.sprintf "if (%s < %s) %s = %s;" v lb v lb);
        Raw (Printf.sprintf "if (%s > %s) %s = %s;" v ub v ub);
        While
          { cond = Printf.sprintf "%s < %s && %s <= %s" v ub (Cemit.emit_poly_int r_at_next ~ty) pc;
            body = [ Raw (v ^ "++;") ] };
        While
          { cond = Printf.sprintf "%s > %s && %s > %s" v lb (Cemit.emit_poly_int r_sub ~ty) pc;
            body = [ Raw (v ^ "--;") ] } ] ]

(* exact recovery of level k: the largest v in [lower, upper) with
   r_sub_k(prefix, v) <= pc, by bracketed binary search over the
   monotone substituted ranking *)
let search_stmts ?(config = default_config) (inv : Trahrhe.Inversion.t) k =
  let ty = config.counter_ty in
  let l = (nest_levels inv).(k) in
  let var = l.Trahrhe.Nest.var in
  let pc = inv.Trahrhe.Inversion.pc_var in
  let r_sub = inv.Trahrhe.Inversion.r_sub.(k) in
  let a = Printf.sprintf "nlo_%s" var
  and b = Printf.sprintf "nhi_%s" var
  and mid = Printf.sprintf "nmid_%s" var in
  let r_at_mid = P.subst var (P.var mid) r_sub in
  [ Comment (Printf.sprintf "exact recovery of %s: binary search on the monotone ranking" var);
    Block
      [ Decl { ty; name = a; init = Some (bound_expr ~ty l.Trahrhe.Nest.lower) };
        Decl
          { ty; name = b; init = Some (Printf.sprintf "(%s) - 1" (bound_expr ~ty l.Trahrhe.Nest.upper)) };
        While
          { cond = Printf.sprintf "%s < %s" a b;
            body =
              [ Decl { ty; name = mid; init = Some (Printf.sprintf "%s + (%s - %s + 1) / 2" a b a) };
                Raw
                  (Printf.sprintf "if (%s <= %s) %s = %s; else %s = %s - 1;"
                     (Cemit.emit_poly_int r_at_mid ~ty) pc a mid b mid) ] };
        Raw (Printf.sprintf "%s = %s;" var a) ] ]

let recovery_stmts ?(config = default_config) (forms : Trahrhe.Closed_form.t) =
  let ty = config.counter_ty and inv = forms.Trahrhe.Closed_form.inversion in
  Array.to_list forms.Trahrhe.Closed_form.levels
  |> List.mapi (fun k r ->
         match r with
         | Trahrhe.Closed_form.Root { var; expr; mode } ->
           Assign (var, Cemit.emit_floor ~mode expr)
           :: (if config.guarded then guard_stmts ~ty inv k else [])
         | Trahrhe.Closed_form.Last { var; poly } ->
           [ Assign (var, Cemit.emit_poly_int poly ~ty) ]
         | Trahrhe.Closed_form.Numeric { r_sub_index; _ } ->
           (* no radical closed form at this degree; the search is exact
              by construction, so the guarded config adds nothing *)
           search_stmts ~config inv r_sub_index)
  |> List.concat

let exhausted ~ty (l : Trahrhe.Nest.level) = Printf.sprintf "%s >= %s" l.var (bound_expr ~ty l.upper)

(* advance level q, or the nearest outer level that is not exhausted,
   then reset level q+1 to its lower bound; an empty row at level q+1
   resumes the advance at level q, so the indices never stand on an
   empty row. Every loop also stops once level 0 leaves its range, the
   end of the space. *)
let carry_stmts ?(config = default_config) (inv : Trahrhe.Inversion.t) q =
  let ty = config.counter_ty in
  let levels = nest_levels inv in
  let l0 = levels.(0) in
  let in_space = Printf.sprintf "%s < %s" l0.var (bound_expr ~ty l0.upper) in
  let rec carry q =
    let l = levels.(q) and next = levels.(q + 1) in
    [ Do_while
        { body =
            Raw (l.var ^ "++;")
            :: (if q = 0 then [] else [ If { cond = exhausted ~ty l; then_ = carry (q - 1); else_ = [] } ])
            @ [ Assign (next.var, bound_expr ~ty next.lower) ];
          cond = Printf.sprintf "%s && %s" (exhausted ~ty next) in_space } ]
  in
  carry q

let increment_stmts ?(config = default_config) (inv : Trahrhe.Inversion.t) =
  let levels = nest_levels inv in
  let d = Array.length levels in
  let l = levels.(d - 1) in
  Raw (l.var ^ "++;")
  :: (if d = 1 then []
      else
        [ If
            { cond = exhausted ~ty:config.counter_ty l;
              then_ = carry_stmts ~config inv (d - 2);
              else_ = [] } ])

let index_decls ~config (inv : Trahrhe.Inversion.t) =
  if not config.declare_indices then []
  else
    List.map
      (fun v -> Decl { ty = config.counter_ty; name = v; init = None })
      (Trahrhe.Nest.level_vars inv.Trahrhe.Inversion.nest)

let private_clause ~config (inv : Trahrhe.Inversion.t) =
  String.concat ", " (Trahrhe.Nest.level_vars inv.Trahrhe.Inversion.nest @ config.extra_private)

let pc_loop ~config (inv : Trahrhe.Inversion.t) ?(step) body =
  let ty = config.counter_ty in
  let pc = inv.Trahrhe.Inversion.pc_var in
  let step = match step with None -> pc ^ "++" | Some s -> s in
  For
    { init = Printf.sprintf "%s %s = 1" ty pc;
      cond = Printf.sprintf "%s <= %s" pc (trip_count_expr inv ~ty);
      step;
      body }

let naive ?(config = default_config) forms ~body =
  let inv = forms.Trahrhe.Closed_form.inversion in
  Obsv.Trace.with_span "pipeline.codegen" ~args:[ ("scheme", Obsv.Trace.Str "naive") ]
  @@ fun () ->
  index_decls ~config inv
  @ [ Pragma
        (Printf.sprintf "omp parallel for private(%s) schedule(%s)" (private_clause ~config inv)
           config.schedule);
      pc_loop ~config inv (recovery_stmts ~config forms @ body) ]

let per_thread ?(config = default_config) forms ~body =
  let inv = forms.Trahrhe.Closed_form.inversion in
  Obsv.Trace.with_span "pipeline.codegen" ~args:[ ("scheme", Obsv.Trace.Str "per-thread") ]
  @@ fun () ->
  index_decls ~config inv
  @ [ Decl { ty = "int"; name = "first_iteration"; init = Some "1" };
      Pragma
        (Printf.sprintf
           "omp parallel for private(%s) firstprivate(first_iteration) schedule(%s)"
           (private_clause ~config inv) config.schedule);
      pc_loop ~config inv
        (If
           { cond = "first_iteration";
             then_ = recovery_stmts ~config forms @ [ Assign ("first_iteration", "0") ];
             else_ = [] }
        :: (body @ increment_stmts ~config inv)) ]

let chunked ?(config = default_config) ~chunk forms ~body =
  let inv = forms.Trahrhe.Closed_form.inversion in
  Obsv.Trace.with_span "pipeline.codegen" ~args:[ ("scheme", Obsv.Trace.Str "chunked") ]
  @@ fun () ->
  let pc = inv.Trahrhe.Inversion.pc_var in
  index_decls ~config inv
  @ [ Pragma
        (Printf.sprintf "omp parallel for private(%s) schedule(static, %d)"
           (private_clause ~config inv) chunk);
      pc_loop ~config inv
        (If
           { cond = Printf.sprintf "(%s - 1) %% %d == 0" pc chunk;
             then_ = recovery_stmts ~config forms;
             else_ = [] }
        :: (body @ increment_stmts ~config inv)) ]

let simd ?(config = default_config) ~vlength forms ~body_of =
  let inv = forms.Trahrhe.Closed_form.inversion in
  Obsv.Trace.with_span "pipeline.codegen" ~args:[ ("scheme", Obsv.Trace.Str "simd") ]
  @@ fun () ->
  let ty = config.counter_ty in
  let pc = inv.Trahrhe.Inversion.pc_var in
  let vars = Trahrhe.Nest.level_vars inv.Trahrhe.Inversion.nest in
  let buf v = "T_" ^ v in
  let trip = trip_count_expr inv ~ty in
  let upper = Printf.sprintf "(%s + %d - 1 < %s ? %s + %d - 1 : %s)" pc vlength trip pc vlength trip in
  let buffers =
    List.map (fun v -> Decl { ty; name = Printf.sprintf "%s[%d]" (buf v) vlength; init = None }) vars
  in
  let privates =
    String.concat ", " (vars @ List.map buf vars @ [ "v" ] @ config.extra_private)
  in
  index_decls ~config inv
  @ [ Decl { ty; name = "v"; init = None };
      Decl { ty = "int"; name = "first_iteration"; init = Some "1" } ]
  @ buffers
  @ [ Pragma
        (Printf.sprintf
           "omp parallel for private(%s) firstprivate(first_iteration) schedule(%s)" privates
           config.schedule);
      pc_loop ~config inv ~step:(Printf.sprintf "%s += %d" pc vlength)
        ([ If
             { cond = "first_iteration";
               then_ = recovery_stmts ~config forms @ [ Assign ("first_iteration", "0") ];
               else_ = [] };
           For
             { init = Printf.sprintf "v = %s" pc;
               cond = Printf.sprintf "v <= %s" upper;
               step = "v++";
               body =
                 List.map
                   (fun x -> Assign (Printf.sprintf "%s[v - %s]" (buf x) pc, x))
                   vars
                 @ increment_stmts ~config inv };
           Pragma "omp simd";
           For
             { init = Printf.sprintf "v = %s" pc;
               cond = Printf.sprintf "v <= %s" upper;
               step = "v++";
               body = body_of (fun x -> Printf.sprintf "%s[v - %s]" (buf x) pc) } ]) ]

let gpu_warp ?(config = default_config) ~warp forms ~body =
  let inv = forms.Trahrhe.Closed_form.inversion in
  Obsv.Trace.with_span "pipeline.codegen" ~args:[ ("scheme", Obsv.Trace.Str "gpu-warp") ]
  @@ fun () ->
  let ty = config.counter_ty in
  let pc = inv.Trahrhe.Inversion.pc_var in
  let trip = trip_count_expr inv ~ty in
  index_decls ~config inv
  @ [ Decl { ty; name = "thread"; init = None };
      Decl { ty; name = "inc"; init = None };
      Comment (Printf.sprintf "emulation of one warp of %d threads, memory-coalesced" warp);
      For
        { init = "thread = 0";
          cond = Printf.sprintf "thread < %d" warp;
          step = "thread++";
          body =
            [ For
                { init = Printf.sprintf "%s %s = thread + 1" ty pc;
                  cond = Printf.sprintf "%s <= %s" pc trip;
                  step = Printf.sprintf "%s += %d" pc warp;
                  body =
                    If
                      { cond = Printf.sprintf "%s == thread + 1" pc;
                        then_ = recovery_stmts ~config forms;
                        else_ = [] }
                    :: body
                    @ [ For
                          { init = "inc = 0";
                            cond = Printf.sprintf "inc < %d" warp;
                            step = "inc++";
                            body = increment_stmts ~config inv } ] } ] } ]

let original ?(config = default_config) (nest : Trahrhe.Nest.t) ~parallel ~schedule ~body =
  let ty = config.counter_ty in
  let rec loops = function
    | [] -> body
    | (l : Trahrhe.Nest.level) :: rest ->
      [ For
          { init = Printf.sprintf "%s = %s" l.var (bound_expr ~ty l.lower);
            cond = Printf.sprintf "%s < %s" l.var (bound_expr ~ty l.upper);
            step = l.var ^ "++";
            body = loops rest } ]
  in
  let decls =
    if config.declare_indices then
      List.map (fun v -> Decl { ty; name = v; init = None }) (Trahrhe.Nest.level_vars nest)
    else []
  in
  let pragma =
    if parallel then begin
      match Trahrhe.Nest.level_vars nest with
      | _outer :: privates when privates <> [] || config.extra_private <> [] ->
        [ Pragma
            (Printf.sprintf "omp parallel for private(%s) schedule(%s)"
               (String.concat ", " (privates @ config.extra_private))
               schedule) ]
      | _ -> [ Pragma (Printf.sprintf "omp parallel for schedule(%s)" schedule) ]
    end
    else []
  in
  decls @ pragma @ loops nest.Trahrhe.Nest.levels
