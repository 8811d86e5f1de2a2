module A = Polymath.Affine
module Q = Zmath.Rat

let aff terms c = A.make (List.map (fun (v, k) -> (v, Q.of_int k)) terms) (Q.of_int c)

let init_mat n f =
  let a = Array.make (n * n) 0.0 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      a.((r * n) + c) <- f r c
    done
  done;
  a

let checksum a =
  let s = ref 0.0 in
  Array.iteri (fun q v -> s := !s +. (v *. float_of_int ((q mod 97) + 1))) a;
  !s

let run_collapsed rc ~trip ~recoveries body =
  List.iter
    (fun (start, len) ->
      let idx = Trahrhe.Recovery.recover rc start in
      for q = 0 to len - 1 do
        body idx;
        if q < len - 1 then ignore (Trahrhe.Recovery.increment rc idx)
      done)
    (Kernel.chunk_starts ~trip ~recoveries)
