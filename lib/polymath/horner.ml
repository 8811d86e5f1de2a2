module Q = Zmath.Rat
module P = Polynomial

type node =
  | Const of int
  | Sum of { slot : int; coeffs : node array }
      (* sum_e coeffs.(e) * slot^e, evaluated by Horner's rule;
         the coefficient nodes are free of [slot] *)

type t = { den : int; node : node }

let compile ~slot p =
  let den = Zmath.Bigint.to_int_exn (P.denominator_lcm p) in
  let scaled = P.scale (Q.of_int den) p in
  let const_exn q = Zmath.Bigint.to_int_exn (Q.to_bigint_exn q) in
  let rec go p =
    match P.vars p with
    | [] ->
      Const (match P.is_const p with Some c -> const_exn c | None -> 0)
    | x0 :: rest ->
      (* lower outer (small-slot) variables first so that inner-slot
         sub-polynomials sit near the leaves and steppers along inner
         slots stay shallow *)
      let x = List.fold_left (fun best v -> if slot v < slot best then v else best) x0 rest in
      let uni = P.as_univariate x p in
      let deg = match uni with (e, _) :: _ -> e | [] -> 0 in
      let coeffs = Array.make (deg + 1) (Const 0) in
      List.iter (fun (e, c) -> coeffs.(e) <- go c) uni;
      Sum { slot = slot x; coeffs }
  in
  { den; node = go scaled }

let rec eval_node lookup = function
  | Const c -> c
  | Sum { slot; coeffs } ->
    let x = lookup slot in
    let acc = ref 0 in
    for e = Array.length coeffs - 1 downto 0 do
      acc := (!acc * x) + eval_node lookup coeffs.(e)
    done;
    !acc

let eval t lookup =
  let v = eval_node lookup t.node in
  if t.den = 1 then v
  else begin
    assert (v mod t.den = 0);
    v / t.den
  end

let rec degree_in_slot_node s = function
  | Const _ -> 0
  | Sum { slot; coeffs } ->
    let inner = Array.fold_left (fun acc c -> max acc (degree_in_slot_node s c)) 0 coeffs in
    if slot = s then Array.length coeffs - 1 + inner else inner

let degree_in_slot t s = degree_in_slot_node s t.node

let rec degree_node = function
  | Const _ -> 0
  | Sum { coeffs; _ } ->
    let d = ref 0 in
    Array.iteri (fun e c -> if c <> Const 0 then d := max !d (e + degree_node c)) coeffs;
    !d

let degree t = degree_node t.node

module Stepper = struct
  type horner = t

  type t = { diffs : int array; mutable pos : int }
  (* diffs.(k) = Delta^k f at the current position; diffs.(0) is the
     value itself *)

  let make (h : horner) ~slot ~start ~lookup =
    let d = degree_in_slot h slot in
    let samples =
      Array.init (d + 1) (fun i ->
          eval h (fun s -> if s = slot then start + i else lookup s))
    in
    (* in-place forward differences *)
    for k = 1 to d do
      for i = d downto k do
        samples.(i) <- samples.(i) - samples.(i - 1)
      done
    done;
    { diffs = samples; pos = start }

  let value st = st.diffs.(0)
  let arg st = st.pos

  let step st =
    (* Delta^k f(v+1) = Delta^k f(v) + Delta^(k+1) f(v); updating in
       ascending k order uses each old higher difference exactly once *)
    let diffs = st.diffs in
    for k = 0 to Array.length diffs - 2 do
      diffs.(k) <- diffs.(k) + diffs.(k + 1)
    done;
    st.pos <- st.pos + 1
end
