module P = Polymath.Polynomial
module A = Polymath.Affine
module N = Trahrhe.Nest

type t = {
  fingerprint : string;
  inversion : Trahrhe.Inversion.t;
  staged : Trahrhe.Recovery.staged;
}

let make ~fingerprint inversion =
  { fingerprint; inversion; staged = Trahrhe.Recovery.stage inversion }

let format_version = Fingerprint.format_version

let compile canonical_nest =
  Obsv.Trace.with_span "service.compile" @@ fun () ->
  match Trahrhe.Inversion.invert canonical_nest with
  | Ok inversion -> Ok (make ~fingerprint:(Fingerprint.digest canonical_nest) inversion)
  | Error e -> Error (Trahrhe.Inversion.error_to_string e)

let encode p =
  Sexp.to_string
    (Sexp.List
       [ Sexp.Atom "ompsim-plan";
         Sexp.List [ Sexp.Atom "version"; Codec.of_int_sexp format_version ];
         Sexp.List [ Sexp.Atom "fingerprint"; Sexp.Atom p.fingerprint ];
         Codec.of_inversion p.inversion ])

let decode s =
  match Sexp.of_string s with
  | Error e -> Error ("unparsable plan: " ^ e)
  | Ok sexp -> (
    try
      match sexp with
      | Sexp.List
          [ Sexp.Atom "ompsim-plan";
            Sexp.List [ Sexp.Atom "version"; v ];
            Sexp.List [ Sexp.Atom "fingerprint"; Sexp.Atom fingerprint ];
            payload ] ->
        let version = Codec.to_int_sexp v in
        if version <> format_version then
          Error (Printf.sprintf "plan format version %d, expected %d" version format_version)
        else begin
          let inversion = Codec.to_inversion payload in
          if Fingerprint.digest inversion.Trahrhe.Inversion.nest <> fingerprint then
            Error "plan fingerprint does not match its nest"
          else Ok (make ~fingerprint inversion)
        end
      | _ -> Error "not an ompsim-plan"
    with Codec.Error e -> Error ("corrupt plan: " ^ e))

let recovery p ~param = Trahrhe.Recovery.make_staged p.staged ~param

let reduce_clause_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (ra : N.reduction), Some (rb : N.reduction) ->
    ra.N.op = rb.N.op && P.equal ra.N.value rb.N.value
  | _ -> false

let nest_equal (a : N.t) (b : N.t) =
  a.N.params = b.N.params
  && List.length a.N.levels = List.length b.N.levels
  && List.for_all2
       (fun (la : N.level) (lb : N.level) ->
         la.var = lb.var && A.equal la.lower lb.lower && A.equal la.upper lb.upper)
       a.N.levels b.N.levels
  && reduce_clause_equal a.N.reduce b.N.reduce

let recovery_equal a b =
  match (a, b) with
  | ( Trahrhe.Inversion.Root { var = va; expr = ea; mode = ma },
      Trahrhe.Inversion.Root { var = vb; expr = eb; mode = mb } ) ->
    va = vb && Symx.Expr.equal ea eb && ma = mb
  | ( Trahrhe.Inversion.Last { var = va; poly = pa },
      Trahrhe.Inversion.Last { var = vb; poly = pb } ) ->
    va = vb && P.equal pa pb
  | ( Trahrhe.Inversion.Numeric { var = va; r_sub_index = ia },
      Trahrhe.Inversion.Numeric { var = vb; r_sub_index = ib } ) ->
    va = vb && ia = ib
  | _ -> false

let array_for_all2 f a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i x -> ok := !ok && f x b.(i)) a;
       !ok
     end

let equal x y =
  let a = x.inversion and b = y.inversion in
  x.fingerprint = y.fingerprint
  && nest_equal a.Trahrhe.Inversion.nest b.Trahrhe.Inversion.nest
  && a.pc_var = b.pc_var
  && P.equal a.ranking b.ranking
  && P.equal a.trip_count b.trip_count
  && array_for_all2 P.equal a.r_sub b.r_sub
  && array_for_all2 recovery_equal a.recoveries b.recoveries
