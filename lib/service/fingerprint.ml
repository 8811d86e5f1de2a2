module A = Polymath.Affine
module M = Polymath.Monomial
module P = Polymath.Polynomial
module Q = Zmath.Rat
module N = Trahrhe.Nest

type renaming = { iterators : (string * string) list; params : (string * string) list }

(* version 3: the plan payload no longer carries per-level recoveries
   (closed-form roots are selected only where C is printed). Bumping the
   version salts every fingerprint, so older disk plans and JIT objects
   age out as ordinary stale misses instead of being misparsed. *)
let format_version = 3

(* all bounds of the nest in a fixed order: level 0 lower, level 0
   upper, level 1 lower, ... — the axis along which parameter
   signatures are read *)
let bounds_in_order (n : N.t) =
  List.concat_map (fun (l : N.level) -> [ l.lower; l.upper ]) n.N.levels

(* coefficient signature of one parameter: name-independent, so
   sorting by it orders parameters canonically; parameters with equal
   signatures are interchangeable in every bound and any tiebreak
   yields the same canonical nest *)
let signature bounds p = List.map (fun b -> A.coeff p b) bounds

let rec compare_signature a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
    let c = Q.compare x y in
    if c <> 0 then c else compare_signature a b

let canonicalize (n : N.t) =
  let bounds = bounds_in_order n in
  let params_sorted =
    List.stable_sort
      (fun p q -> compare_signature (signature bounds p) (signature bounds q))
      n.N.params
  in
  let params = List.mapi (fun i p -> (p, Printf.sprintf "p%d" i)) params_sorted in
  let iterators =
    List.mapi (fun i (l : N.level) -> (l.var, Printf.sprintf "x%d" i)) n.N.levels
  in
  let rename_tbl = Hashtbl.create 16 in
  List.iter (fun (o, c) -> Hashtbl.replace rename_tbl o c) (params @ iterators);
  let rename_var v =
    match Hashtbl.find_opt rename_tbl v with
    | Some c -> c
    | None -> invalid_arg ("Fingerprint.canonicalize: unbound variable " ^ v)
  in
  let rename_affine a =
    A.make (List.map (fun (v, c) -> (rename_var v, c)) (A.terms a)) (A.const_part a)
  in
  let rename_poly p =
    P.of_terms
      (List.map
         (fun (c, m) ->
           (c, M.of_list (List.map (fun (v, e) -> (rename_var v, e)) (M.to_list m))))
         (P.terms p))
  in
  let levels =
    List.map
      (fun (l : N.level) ->
        { N.var = rename_var l.var; lower = rename_affine l.lower; upper = rename_affine l.upper })
      n.N.levels
  in
  let reduce = Option.map rename_poly n.N.reduce in
  let canonical = N.make ~params:(List.map snd params) ?reduce levels in
  (canonical, { iterators; params })

let render (n : N.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," n.N.params);
  List.iter
    (fun (l : N.level) ->
      Buffer.add_char buf ';';
      Buffer.add_string buf l.var;
      Buffer.add_char buf '=';
      Buffer.add_string buf (A.to_string l.lower);
      Buffer.add_char buf ':';
      Buffer.add_string buf (A.to_string l.upper))
    n.N.levels;
  (* the reduce suffix is appended ONLY when a clause is present, so
     every checksum-only fingerprint (and the cached plans keyed by it)
     is preserved verbatim. It renders the value alone: the operator
     is a run option, so every op of one nest shares its plan *)
  (match n.N.reduce with
  | None -> ()
  | Some value ->
    Buffer.add_string buf ";reduce=";
    Buffer.add_string buf (P.to_string value));
  Buffer.contents buf

let digest canonical =
  Digest.to_hex
    (Digest.string (Printf.sprintf "ompsim-plan-v%d|%s" format_version (render canonical)))

let hash nest = digest (fst (canonicalize nest))

(* Canonicalization memo keyed by PHYSICAL identity. The service
   parses every [kernel=NAME] request into the registry's shared nest
   value, so a warm server would otherwise re-canonicalize and
   re-digest the same physical nest on every request — the single
   biggest CPU cost of a warm cache hit. Nests are immutable, so [==]
   is a sound (if conservative) key: a miss only costs the recompute.
   The MRU array is tiny (scans stay cheap, memory stays bounded) and
   swapped atomically — a lost race between two writers just drops one
   entry, never corrupts. *)
let memo_cap = 16
let memo : (N.t * (N.t * renaming * string)) array Atomic.t = Atomic.make [||]

let canonicalize_cached nest =
  let arr = Atomic.get memo in
  let n = Array.length arr in
  let rec find i =
    if i >= n then None
    else
      let k, v = Array.unsafe_get arr i in
      if k == nest then Some v else find (i + 1)
  in
  match find 0 with
  | Some hit -> hit
  | None ->
    let canonical, renaming = canonicalize nest in
    let fp = digest canonical in
    let entry = (nest, (canonical, renaming, fp)) in
    let keep = min n (memo_cap - 1) in
    let arr' = Array.append [| entry |] (Array.sub arr 0 keep) in
    Atomic.set memo arr';
    (canonical, renaming, fp)

let canonical_param r param =
  let reverse = List.map (fun (o, c) -> (c, o)) r.params in
  fun canonical_name ->
    match List.assoc_opt canonical_name reverse with
    | Some original -> param original
    | None -> invalid_arg ("Fingerprint.canonical_param: unknown parameter " ^ canonical_name)
