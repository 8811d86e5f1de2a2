module P = Polymath.Polynomial

type segment = { index : int; inversion : Inversion.t; offset : P.t }

type t = { segs : segment list; total : P.t }

let fuse invs =
  if invs = [] then invalid_arg "Fusion.fuse: empty";
  let pc = (List.hd invs).Inversion.pc_var in
  List.iter
    (fun (inv : Inversion.t) ->
      if inv.Inversion.pc_var <> pc then
        invalid_arg "Fusion.fuse: all segments must share the pc variable name")
    invs;
  let _, segs =
    List.fold_left
      (fun (offset, acc) (inv : Inversion.t) ->
        let seg = { index = List.length acc; inversion = inv; offset } in
        (P.add offset inv.Inversion.trip_count, seg :: acc))
      (P.zero, []) invs
  in
  let segs = List.rev segs in
  { segs; total = List.fold_left (fun a (i : Inversion.t) -> P.add a i.Inversion.trip_count) P.zero invs }

let segments t = t.segs
let total_trip t = t.total

let eval_int ~param p =
  Zmath.Bigint.to_int_exn
    (Zmath.Rat.to_bigint_exn (P.eval (fun x -> Zmath.Rat.of_int (param x)) p))

let locate t ~param pc =
  let total = eval_int ~param t.total in
  if pc < 1 || pc > total then invalid_arg "Fusion.locate: pc out of range";
  let rec go = function
    | [] -> invalid_arg "Fusion.locate: unreachable"
    | seg :: rest ->
      let off = eval_int ~param seg.offset in
      let trip = eval_int ~param seg.inversion.Inversion.trip_count in
      if pc <= off + trip then (seg, pc - off) else go rest
  in
  go t.segs

let recover t ~param pc =
  let seg, local = locate t ~param pc in
  let rc = Recovery.make seg.inversion ~param in
  (seg.index, Recovery.recover rc local)

let iter t ~param f =
  List.iter
    (fun seg ->
      let rc = Recovery.make seg.inversion ~param in
      let trip = Recovery.trip_count rc in
      if trip > 0 then begin
        let idx = Recovery.first rc in
        for local = 1 to trip do
          f seg.index idx;
          if local < trip then ignore (Recovery.increment rc idx)
        done
      end)
    t.segs
