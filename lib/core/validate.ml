type report = {
  iterations : int;
  trip_count_ok : bool;
  ranking_bijective : bool;
  closed_form_ok : int;
  recover_ok : int;
  increment_ok : bool;
}

let check (forms : Closed_form.t) ~param =
  let inv = forms.Closed_form.inversion in
  let rec_ = Recovery.make inv ~param in
  let closed = Closed_form.make forms ~param in
  let points = ref [] in
  Nest.iterate inv.Inversion.nest ~param (fun idx -> points := idx :: !points);
  let points = Array.of_list (List.rev !points) in
  let n = Array.length points in
  let trip_count_ok = Recovery.trip_count rec_ = n in
  let ranking_bijective = ref true in
  let closed_form_ok = ref 0 in
  let recover_ok = ref 0 in
  Array.iteri
    (fun i idx ->
      let pc = i + 1 in
      if Recovery.rank rec_ idx <> pc then ranking_bijective := false;
      if Closed_form.recover closed pc = idx then incr closed_form_ok;
      if Recovery.recover rec_ pc = idx then incr recover_ok)
    points;
  let increment_ok =
    if n = 0 then true
    else begin
      let idx = Recovery.first rec_ in
      let ok = ref (idx = points.(0)) in
      let i = ref 0 in
      while !ok && Recovery.increment rec_ idx do
        incr i;
        ok := !i < n && idx = points.(!i)
      done;
      !ok && !i = n - 1
    end
  in
  { iterations = n;
    trip_count_ok;
    ranking_bijective = !ranking_bijective;
    closed_form_ok = !closed_form_ok;
    recover_ok = !recover_ok;
    increment_ok }

let raw_floor_ok r =
  r.trip_count_ok && r.ranking_bijective && r.recover_ok = r.iterations && r.increment_ok

let all_ok r = raw_floor_ok r && r.closed_form_ok = r.iterations

let pp fmt r =
  Format.fprintf fmt
    "@[<v>iterations: %d@ trip count: %s@ ranking bijective: %b@ closed-form ok: %d/%d@ recover \
     ok: %d/%d@ incrementation ok: %b@]"
    r.iterations
    (if r.trip_count_ok then "ok" else "MISMATCH")
    r.ranking_bijective r.closed_form_ok r.iterations r.recover_ok r.iterations r.increment_ok
