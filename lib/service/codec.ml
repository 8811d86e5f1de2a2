module Q = Zmath.Rat
module M = Polymath.Monomial
module P = Polymath.Polynomial
module A = Polymath.Affine

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let atom = function Sexp.Atom a -> a | Sexp.List _ -> fail "expected atom, got list"
let list = function Sexp.List l -> l | Sexp.Atom a -> fail "expected list, got atom %s" a

let of_rat q = Sexp.Atom (Q.to_string q)

let to_rat s =
  let a = atom s in
  try Q.of_string a
  with Invalid_argument _ | Failure _ | Division_by_zero -> fail "bad rational %s" a

let of_int_sexp n = Sexp.Atom (string_of_int n)

let to_int_sexp s =
  let a = atom s in
  match int_of_string_opt a with Some n -> n | None -> fail "bad integer %s" a

(* variable names travel as bare atoms; reject anything the sexp
   printer could not round-trip *)
let of_var v =
  if not (Sexp.atom_ok v) then fail "unserializable variable name %S" v;
  Sexp.Atom v

let of_monomial m =
  Sexp.List
    (List.map (fun (v, e) -> Sexp.List [ of_var v; of_int_sexp e ]) (M.to_list m))

let to_monomial s =
  let pairs =
    List.map
      (fun p ->
        match list p with
        | [ v; e ] -> (atom v, to_int_sexp e)
        | _ -> fail "bad monomial factor")
      (list s)
  in
  try M.of_list pairs with Invalid_argument e -> fail "bad monomial: %s" e

let of_poly p =
  Sexp.List (List.map (fun (c, m) -> Sexp.List [ of_rat c; of_monomial m ]) (P.terms p))

let to_poly s =
  P.of_terms
    (List.map
       (fun t ->
         match list t with
         | [ c; m ] -> (to_rat c, to_monomial m)
         | _ -> fail "bad polynomial term")
       (list s))

let of_affine a =
  Sexp.List
    [ Sexp.List
        (List.map (fun (v, c) -> Sexp.List [ of_var v; of_rat c ]) (A.terms a));
      of_rat (A.const_part a) ]

let to_affine s =
  match list s with
  | [ terms; const ] ->
    let terms =
      List.map
        (fun t ->
          match list t with
          | [ v; c ] -> (atom v, to_rat c)
          | _ -> fail "bad affine term")
        (list terms)
    in
    A.make terms (to_rat const)
  | _ -> fail "bad affine expression"

(* the reduction clause's value travels as an OPTIONAL third element,
   so every checksum-only plan still decodes byte-for-byte. The
   operator is a run option and never enters a plan *)
let of_nest (n : Trahrhe.Nest.t) =
  let base =
    [ Sexp.List (List.map of_var n.Trahrhe.Nest.params);
      Sexp.List
        (List.map
           (fun (l : Trahrhe.Nest.level) ->
             Sexp.List [ of_var l.var; of_affine l.lower; of_affine l.upper ])
           n.Trahrhe.Nest.levels) ]
  in
  Sexp.List (base @ Option.to_list (Option.map of_poly n.Trahrhe.Nest.reduce))

let to_nest s =
  let build params levels reduce =
    let params = List.map atom (list params) in
    let levels =
      List.map
        (fun l ->
          match list l with
          | [ v; lo; hi ] ->
            { Trahrhe.Nest.var = atom v; lower = to_affine lo; upper = to_affine hi }
          | _ -> fail "bad nest level")
        (list levels)
    in
    try Trahrhe.Nest.make ~params ?reduce levels
    with Invalid_argument e -> fail "invalid nest: %s" e
  in
  match list s with
  | [ params; levels ] -> build params levels None
  | [ params; levels; value ] -> build params levels (Some (to_poly value))
  | _ -> fail "bad nest"

let of_inversion (inv : Trahrhe.Inversion.t) =
  Sexp.List
    [ of_nest inv.Trahrhe.Inversion.nest;
      of_var inv.pc_var;
      of_poly inv.ranking;
      of_poly inv.trip_count;
      Sexp.List (Array.to_list (Array.map of_poly inv.r_sub)) ]

let to_inversion s =
  match list s with
  | [ nest; pc_var; ranking; trip_count; r_sub ] ->
    let nest = to_nest nest in
    let r_sub = Array.of_list (List.map to_poly (list r_sub)) in
    let d = Trahrhe.Nest.depth nest in
    if Array.length r_sub <> d then fail "inversion arity does not match nest depth %d" d;
    { Trahrhe.Inversion.nest;
      pc_var = atom pc_var;
      ranking = to_poly ranking;
      trip_count = to_poly trip_count;
      r_sub }
  | _ -> fail "bad inversion"
