module A = Polymath.Affine
module P = Polymath.Polynomial
module Q = Zmath.Rat

type level = { var : string; lower : A.t; upper : A.t }

type red_op = Sum | Prod | Min | Max

type reduction = { op : red_op; value : P.t }

type t = { params : string list; levels : level list; reduce : reduction option }

let op_to_string = function Sum -> "sum" | Prod -> "prod" | Min -> "min" | Max -> "max"

let op_of_string = function
  | "sum" | "+" -> Some Sum
  | "prod" | "*" -> Some Prod
  | "min" -> Some Min
  | "max" -> Some Max
  | _ -> None

let op_apply op a b =
  match op with Sum -> Q.add a b | Prod -> Q.mul a b | Min -> Q.min a b | Max -> Q.max a b

let op_neutral = function Sum -> Some Q.zero | Prod -> Some Q.one | Min | Max -> None

let make ~params ?reduce levels =
  let seen = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace seen p ()) params;
  List.iter
    (fun l ->
      if Hashtbl.mem seen l.var && not (List.mem l.var params) then
        invalid_arg ("Nest.make: duplicate iterator " ^ l.var);
      if List.mem l.var params then invalid_arg ("Nest.make: iterator shadows parameter " ^ l.var);
      let outer_ok x = Hashtbl.mem seen x in
      List.iter
        (fun bound ->
          List.iter
            (fun x ->
              if not (outer_ok x) then
                invalid_arg
                  (Printf.sprintf "Nest.make: bound of %s mentions %s which is not an outer iterator or parameter"
                     l.var x))
            (A.vars bound))
        [ l.lower; l.upper ];
      Hashtbl.replace seen l.var ())
    levels;
  if levels = [] then invalid_arg "Nest.make: empty nest";
  (match reduce with
  | None -> ()
  | Some r ->
    List.iter
      (fun x ->
        if not (Hashtbl.mem seen x) then
          invalid_arg
            (Printf.sprintf
               "Nest.make: reduction value mentions %s which is not an iterator or parameter" x))
      (P.vars r.value);
    List.iter
      (fun (c, _) ->
        if not (Q.is_integer c) then
          invalid_arg "Nest.make: reduction value must have integer coefficients")
      (P.terms r.value));
  { params; levels; reduce }

let depth n = List.length n.levels
let level_vars n = List.map (fun l -> l.var) n.levels

let with_reduce n reduce = make ~params:n.params ?reduce n.levels

(* a canonical integer-valued payload when a nest carries no declared
   reduction clause: 1 + sum_k (k+1)*x_k, injective enough to make
   schedule bugs visible and always >= 1 on non-negative domains (so
   products stay informative) *)
let default_reduce_value n =
  List.fold_left P.add (P.const Q.one)
    (List.mapi (fun k v -> P.scale (Q.of_int (k + 1)) (P.var v)) (level_vars n))

let with_reduce_op n = function
  | None -> n
  | Some op ->
    let value = match n.reduce with Some r -> r.value | None -> default_reduce_value n in
    with_reduce n (Some { op; value })

let prefix n c =
  if c < 1 || c > depth n then invalid_arg "Nest.prefix";
  (* the reduction value may mention inner iterators being dropped;
     the prefix drives counting machinery where the clause is moot *)
  { n with levels = List.filteri (fun i _ -> i < c) n.levels; reduce = None }

let to_count_levels n =
  List.map
    (fun l ->
      { Polyhedral.Count.var = l.var; lo = l.lower; hi = A.add_const Q.minus_one l.upper })
    n.levels

let max_dependence_degree n =
  (* dependence is transitive: dep(k) = {k} U deps of every index
     appearing in the bounds of level k; the degree of index x is the
     number of levels whose dependence set contains x *)
  let deps = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let direct =
        List.sort_uniq String.compare (A.vars l.lower @ A.vars l.upper)
        |> List.filter (fun x -> not (List.mem x n.params))
      in
      let closure =
        List.fold_left
          (fun acc x -> acc @ (match Hashtbl.find_opt deps x with Some s -> s | None -> []))
          direct direct
        |> List.sort_uniq String.compare
      in
      Hashtbl.replace deps l.var (l.var :: closure))
    n.levels;
  let count_of x =
    List.fold_left
      (fun acc l ->
        match Hashtbl.find_opt deps l.var with
        | Some s when List.mem x s -> acc + 1
        | _ -> acc)
      0 n.levels
  in
  List.fold_left (fun acc l -> max acc (count_of l.var)) 0 n.levels

let is_rectangular n =
  List.for_all
    (fun l ->
      List.for_all (fun x -> List.mem x n.params) (A.vars l.lower)
      && List.for_all (fun x -> List.mem x n.params) (A.vars l.upper))
    n.levels

let iterate n ~param f =
  let d = depth n in
  let idx = Array.make d 0 in
  let levels = Array.of_list n.levels in
  let vars = Array.of_list (level_vars n) in
  let env k x =
    let rec find j = if j >= k then Q.of_int (param x) else if vars.(j) = x then Q.of_int idx.(j) else find (j + 1) in
    find 0
  in
  let eval_bound k a =
    let v = A.eval (env k) a in
    if not (Q.is_integer v) then invalid_arg "Nest.iterate: non-integer bound";
    Zmath.Bigint.to_int_exn (Q.num v)
  in
  let rec go k =
    if k = d then f (Array.copy idx)
    else begin
      let lo = eval_bound k levels.(k).lower and hi = eval_bound k levels.(k).upper in
      for i = lo to hi - 1 do
        idx.(k) <- i;
        go (k + 1)
      done
    end
  in
  go 0

let pp fmt n =
  List.iter
    (fun l ->
      Format.fprintf fmt "for (%s = %s; %s < %s; %s++)@\n" l.var (A.to_string l.lower) l.var
        (A.to_string l.upper) l.var)
    n.levels
