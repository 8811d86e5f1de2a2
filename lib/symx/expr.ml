module Q = Zmath.Rat

type t =
  | Const of Q.t
  | I
  | Var of string
  | Sum of t list
  | Prod of t list
  | Pow of t * Q.t

let zero = Const Q.zero
let one = Const Q.one
let of_rat c = Const c
let of_int n = Const (Q.of_int n)
let var x = Var x

let sum es =
  let rec flatten acc c = function
    | [] -> (acc, c)
    | Const k :: rest -> flatten acc (Q.add c k) rest
    | Sum inner :: rest ->
      let acc, c = flatten acc c inner in
      flatten acc c rest
    | e :: rest -> flatten (e :: acc) c rest
  in
  let terms, c = flatten [] Q.zero es in
  let terms = List.rev terms in
  let terms = if Q.is_zero c then terms else terms @ [ Const c ] in
  match terms with [] -> zero | [ e ] -> e | l -> Sum l

let add a b = sum [ a; b ]

let prod es =
  let rec flatten acc c = function
    | [] -> (acc, c)
    | Const k :: rest -> flatten acc (Q.mul c k) rest
    | Prod inner :: rest ->
      let acc, c = flatten acc c inner in
      flatten acc c rest
    | e :: rest -> flatten (e :: acc) c rest
  in
  let factors, c = flatten [] Q.one es in
  if Q.is_zero c then zero
  else begin
    let factors = List.rev factors in
    let factors = if Q.equal c Q.one then factors else Const c :: factors in
    match factors with [] -> one | [ e ] -> e | l -> Prod l
  end

let mul a b = prod [ a; b ]
let neg e = mul (Const Q.minus_one) e
let sub a b = add a (neg b)

let rec pow e k =
  if Q.is_zero k then one
  else if Q.equal k Q.one then e
  else
    match e with
    | Const c when Q.is_integer k && not (Q.is_zero c) ->
      Const (Q.pow c (Zmath.Bigint.to_int_exn (Q.num k)))
    (* collapse (b^k')^k only for integer k: then principal-branch
       evaluation satisfies (z^a)^n = z^(a*n) exactly *)
    | Pow (b, k') when Q.is_integer k -> pow b (Q.mul k k')
    | _ -> Pow (e, k)

let sqrt e = pow e Q.half
let cbrt e = pow e (Q.of_ints 1 3)
let inv e = pow e Q.minus_one
let div a b = mul a (inv b)

let of_poly p =
  sum
    (List.map
       (fun (c, m) ->
         prod
           (Const c
           :: List.map (fun (x, e) -> pow (Var x) (Q.of_int e)) (Polymath.Monomial.to_list m)))
       (Polymath.Polynomial.terms p))

let rec subst x e' e =
  match e with
  | Var y when y = x -> e'
  | Const _ | I | Var _ -> e
  | Sum es -> sum (List.map (subst x e') es)
  | Prod es -> prod (List.map (subst x e') es)
  | Pow (b, k) -> pow (subst x e' b) k

let free_vars e =
  let rec go acc = function
    | Var x -> x :: acc
    | Const _ | I -> acc
    | Sum es | Prod es -> List.fold_left go acc es
    | Pow (b, _) -> go acc b
  in
  List.sort_uniq String.compare (go [] e)

(* [cpow k] is [z -> z^k], with every test on [k] made once *)
let cpow (k : Q.t) : Complex.t -> Complex.t =
  if Q.is_integer k then begin
    (* exact integer powers avoid log-branch noise for negative reals *)
    let n = Zmath.Bigint.to_int_exn (Q.num k) in
    if n = 0 then fun _ -> Complex.one
    else begin
      let rec go acc b n =
        if n = 0 then acc
        else go (if n land 1 = 1 then Complex.mul acc b else acc) (Complex.mul b b) (n lsr 1)
      in
      fun z ->
        let p = go Complex.one z (abs n) in
        if n > 0 then p else Complex.div Complex.one p
    end
  end
  else begin
    (* match C's sqrt/csqrt accuracy (correctly rounded on the reals):
       boundary iterations rely on sqrt of a perfect square being exact *)
    let csqrt z =
      if z.Complex.im = 0.0 && z.Complex.re >= 0.0 then
        { Complex.re = Float.sqrt z.Complex.re; im = 0.0 }
      else Complex.sqrt z
    in
    let at_zero = if Q.sign k > 0 then Complex.zero else { Complex.re = infinity; im = 0.0 } in
    let pow =
      if Q.equal k Q.half then csqrt
      else if Q.equal k (Q.of_ints (-1) 2) then fun z -> Complex.div Complex.one (csqrt z)
      else begin
        let kf = { Complex.re = Q.to_float k; im = 0.0 } in
        fun z -> Complex.pow z kf
      end
    in
    fun z -> if z = Complex.zero then at_zero else pow z
  end

(* staged once per expression: constants converted and exponents
   tested at staging time, variables read by slot *)
let rec compile_complex ~slot = function
  | Const c ->
    let z = { Complex.re = Q.to_float c; im = 0.0 } in
    fun _ -> z
  | I -> fun _ -> Complex.i
  | Var x ->
    let s = slot x in
    fun a -> a.(s)
  | Sum es ->
    let fs = List.map (compile_complex ~slot) es in
    fun a -> List.fold_left (fun acc f -> Complex.add acc (f a)) Complex.zero fs
  | Prod es ->
    let fs = List.map (compile_complex ~slot) es in
    fun a -> List.fold_left (fun acc f -> Complex.mul acc (f a)) Complex.one fs
  | Pow (b, k) ->
    let fb = compile_complex ~slot b and pow = cpow k in
    fun a -> pow (fb a)

let eval_complex env e =
  let vars = Array.of_list (free_vars e) in
  let slot x = Option.get (Array.find_index (String.equal x) vars) in
  compile_complex ~slot e (Array.map env vars)

let rec contains_fractional_pow = function
  | Const _ | I | Var _ -> false
  | Sum es | Prod es -> List.exists contains_fractional_pow es
  | Pow (b, k) -> (not (Q.is_integer k)) || contains_fractional_pow b

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Q.equal x y
  | I, I -> true
  | Var x, Var y -> x = y
  | Sum xs, Sum ys | Prod xs, Prod ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Pow (x, j), Pow (y, k) -> Q.equal j k && equal x y
  | _ -> false

let rec to_string e =
  let atom e =
    match e with
    | Const c when Q.sign c >= 0 && Q.is_integer c -> to_string e
    | Var _ | I -> to_string e
    | _ -> "(" ^ to_string e ^ ")"
  in
  match e with
  | Const c -> Q.to_string c
  | I -> "I"
  | Var x -> x
  | Sum es -> String.concat " + " (List.map to_string es)
  | Prod es -> String.concat "*" (List.map atom es)
  | Pow (b, k) ->
    if Q.equal k Q.half then "sqrt(" ^ to_string b ^ ")"
    else atom b ^ "^(" ^ Q.to_string k ^ ")"

let pp fmt e = Format.pp_print_string fmt (to_string e)
