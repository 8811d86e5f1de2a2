type t = { source : Inversion.t; target : Inversion.t }

let make ~source ~target =
  if source.Inversion.pc_var <> target.Inversion.pc_var then
    invalid_arg "Reshape.make: the two inversions must share the pc variable name";
  { source; target }

let source t = t.source
let target t = t.target

let recoveries t ~param = (Recovery.make t.source ~param, Recovery.make t.target ~param)

let compatible_at t ~param =
  let rs, rt = recoveries t ~param in
  Recovery.trip_count rs = Recovery.trip_count rt

let map_point t ~param target_idx =
  let rs, rt = recoveries t ~param in
  if Recovery.trip_count rs <> Recovery.trip_count rt then
    invalid_arg "Reshape.map_point: trip counts disagree under these parameters";
  let pc = Recovery.rank rt target_idx in
  Recovery.recover rs pc

let iter t ~param f =
  let rs, rt = recoveries t ~param in
  if Recovery.trip_count rs <> Recovery.trip_count rt then
    invalid_arg "Reshape.iter: trip counts disagree under these parameters";
  let trip = Recovery.trip_count rs in
  if trip > 0 then begin
    let src = Recovery.first rs in
    let tgt = Recovery.first rt in
    (* both walks advance in rank order: one recovery total, then pure
       incrementation on each side *)
    for pc = 1 to trip do
      f tgt src;
      if pc < trip then begin
        ignore (Recovery.increment rs src);
        ignore (Recovery.increment rt tgt)
      end
    done
  end
