module A = Polymath.Affine
module P = Polymath.Polynomial
module Q = Zmath.Rat

type level = { var : string; lo : A.t; hi : A.t }

let count_inner levels =
  (* innermost-first accumulation: inner_k = sum over level k+1 of inner_{k+1} *)
  let rec go = function
    | [] -> [ P.one ]
    | l :: rest ->
      let inner = go rest in
      let below = List.hd inner in
      let here =
        Polymath.Summation.sum ~var:l.var below ~lo:(A.to_poly l.lo) ~hi:(A.to_poly l.hi)
      in
      here :: inner
  in
  match levels with
  | [] -> [ P.one ]
  | _ :: rest -> go rest

let count_with_inner levels =
  let inner = count_inner levels in
  match levels with
  | [] -> (P.one, inner)
  | l :: _ ->
    let below = List.hd inner in
    (Polymath.Summation.sum ~var:l.var below ~lo:(A.to_poly l.lo) ~hi:(A.to_poly l.hi), inner)

let count levels = fst (count_with_inner levels)

let to_polyhedron levels =
  Polyhedron.make
    (List.concat_map
       (fun l ->
         [ Constraint.ge (A.var l.var) l.lo; Constraint.le (A.var l.var) l.hi ])
       levels)

let of_polyhedron p ~order ~params =
  ignore params;
  (* innermost-first: extract this variable's bounds, then eliminate it
     and recurse on the outer variables *)
  let rec go p = function
    | [] -> Ok []
    | inner :: outer_rev -> (
      let lowers, uppers, _rest = Fourier_motzkin.bounds_for inner p in
      (* prune trivially redundant bounds: among bounds with identical
         variable terms, only the largest lower / smallest upper binds *)
      let prune keep bounds =
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun a ->
            let key = A.terms a in
            match Hashtbl.find_opt tbl key with
            | Some best when not (keep (A.const_part a) (A.const_part best)) -> ()
            | _ -> Hashtbl.replace tbl key a)
          bounds;
        Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
      in
      let gt a b = Zmath.Rat.compare a b > 0 and lt a b = Zmath.Rat.compare a b < 0 in
      match (prune gt lowers, prune lt uppers) with
      | [], _ -> Error (Printf.sprintf "variable %s has no lower bound" inner)
      | _, [] -> Error (Printf.sprintf "variable %s has no upper bound" inner)
      | [ lo ], [ hi ] -> (
        match go (Fourier_motzkin.eliminate inner p) outer_rev with
        | Error _ as e -> e
        | Ok outer_levels -> Ok (outer_levels @ [ { var = inner; lo; hi } ]))
      | ls, us ->
        Error
          (Printf.sprintf
             "variable %s needs max/min bounds (%d lower, %d upper): outside the Fig. 5 model"
             inner (List.length ls) (List.length us)))
  in
  go p (List.rev order)

let enumerate levels ~param =
  let eval_bound env a =
    let v = A.eval (fun x -> match List.assoc_opt x env with Some n -> Q.of_int n | None -> Q.of_int (param x)) a in
    if not (Q.is_integer v) then invalid_arg "Count.enumerate: non-integer bound";
    Zmath.Bigint.to_int_exn (Q.num v)
  in
  let rec go env = function
    | [] -> [ List.rev env ]
    | l :: rest ->
      let lo = eval_bound env l.lo and hi = eval_bound env l.hi in
      let points = ref [] in
      for i = lo to hi do
        points := go ((l.var, i) :: env) rest :: !points
      done;
      List.concat (List.rev !points)
  in
  go [] levels
