(* level k's index from the recovered prefix and pc *)
type t = (int array -> int -> int) array

let make (inv : Inversion.t) ~param =
  let rc = Recovery.make inv ~param in
  let nest = inv.Inversion.nest and pc_var = inv.Inversion.pc_var in
  let level k = function
    | Inversion.Root { expr; _ } ->
      let root = Inversion.stage_root nest ~pc_var ~k expr ~param in
      fun idx pc -> int_of_float (Float.floor (root idx pc).Complex.re)
    | Inversion.Last _ ->
      fun idx pc ->
        let lb = Recovery.lower_bound rc ~level:k idx in
        lb + pc - Recovery.rank_prefix rc ~level:k lb idx
    | Inversion.Numeric _ ->
      (* largest v with rank_prefix v <= pc, as the emitted C finds it *)
      fun idx pc ->
        let a = ref (Recovery.lower_bound rc ~level:k idx)
        and b = ref (Recovery.upper_bound rc ~level:k idx - 1) in
        while !a < !b do
          let mid = !a + ((!b - !a + 1) / 2) in
          if Recovery.rank_prefix rc ~level:k mid idx <= pc then a := mid else b := mid - 1
        done;
        !a
  in
  Array.mapi level inv.Inversion.recoveries

let recover t pc =
  let idx = Array.make (Array.length t) 0 in
  Array.iteri (fun k level -> idx.(k) <- level idx pc) t;
  idx
