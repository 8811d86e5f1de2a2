module P = Polymath.Polynomial
module A = Polymath.Affine
module Q = Zmath.Rat

(* r(i1..ic) = 1 + sum_k #{points with i1..i(k-1) fixed, lo_k <= t < i_k}
   where each term counts complete sub-trees strictly preceding the
   current iteration at level k. *)
let ranking_of levels inner =
  let fresh = "%t%" in
  List.fold_left2
    (fun acc (l : Polyhedral.Count.level) below ->
      let below_t = P.subst l.var (P.var fresh) below in
      let strictly_before =
        Polymath.Summation.sum ~var:fresh below_t ~lo:(A.to_poly l.lo)
          ~hi:(P.sub (P.var l.var) P.one)
      in
      P.add acc strictly_before)
    P.one levels inner

(* the ranking and the trip count, from one chain of inner-count
   summations *)
let ranking_and_trip n =
  Obsv.Trace.with_span "pipeline.ranking" @@ fun () ->
  let levels = Nest.to_count_levels n in
  let trip, inner = Polyhedral.Count.count_with_inner levels in
  (ranking_of levels inner, trip)

let ranking n = fst (ranking_and_trip n)
let trip_count n = Polyhedral.Count.count (Nest.to_count_levels n)

let rank_at n ~param idx =
  let r = ranking n in
  let vars = Array.of_list (Nest.level_vars n) in
  let env x =
    let rec find j =
      if j >= Array.length vars then Q.of_int (param x)
      else if vars.(j) = x then Q.of_int idx.(j)
      else find (j + 1)
    in
    find 0
  in
  Q.to_bigint_exn (P.eval env r)
