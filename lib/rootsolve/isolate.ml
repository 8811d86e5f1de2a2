module Q = Zmath.Rat
module B = Zmath.Bigint

type poly = Q.t array

let degree p =
  let d = ref (-1) in
  Array.iteri (fun i c -> if not (Q.is_zero c) then d := i) p;
  !d

let eval p x =
  let acc = ref Q.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Q.add (Q.mul !acc x) p.(i)
  done;
  !acc

let derivative p =
  let n = Array.length p in
  if n <= 1 then [| Q.zero |]
  else Array.init (n - 1) (fun i -> Q.mul (Q.of_int (i + 1)) p.(i + 1))

let sign_variations p =
  let count = ref 0 and last = ref 0 in
  Array.iter
    (fun c ->
      let s = Q.sign c in
      if s <> 0 then begin
        if !last <> 0 && s <> !last then incr count;
        last := s
      end)
    p;
  !count

(* coefficients of p(shift + scale * x), by Horner over the linear image *)
let compose_affine p ~shift ~scale =
  let n = Array.length p in
  if n = 0 then [||]
  else begin
    let acc = ref [| p.(n - 1) |] in
    for i = n - 2 downto 0 do
      let a = !acc in
      let out = Array.make (Array.length a + 1) Q.zero in
      Array.iteri
        (fun j c ->
          out.(j) <- Q.add out.(j) (Q.mul c shift);
          out.(j + 1) <- Q.add out.(j + 1) (Q.mul c scale))
        a;
      out.(0) <- Q.add out.(0) p.(i);
      acc := out
    done;
    !acc
  end

(* q(x) = p(x + 1), by iterated synthetic (Ruffini–Horner) addition *)
let taylor_shift_1 p =
  let c = Array.copy p in
  let n = Array.length c in
  for i = 0 to n - 1 do
    for j = n - 2 downto i do
      c.(j) <- Q.add c.(j) c.(j + 1)
    done
  done;
  c

let variations_on p ~lo ~hi =
  (* map (lo, hi) onto (0, 1), then (0, 1) onto (0, inf) by the Möbius
     substitution x -> 1/(1+x): reverse the coefficients and shift by 1 *)
  let q = compose_affine p ~shift:lo ~scale:(Q.sub hi lo) in
  let n = Array.length q in
  let r = Array.init n (fun i -> q.(n - 1 - i)) in
  sign_variations (taylor_shift_1 r)

type enclosure = {
  enc_lo : Q.t;
  enc_hi : Q.t;
  exact : bool;
  newton_steps : int;
  bisect_steps : int;
}

type error =
  | Zero_polynomial
  | No_root of { variations : int }
  | Not_isolating of { variations : int }

let error_to_string = function
  | Zero_polynomial -> "Isolate: the zero polynomial has no isolated root"
  | No_root { variations } ->
    Printf.sprintf "Isolate: no root in the interval (Descartes count %d)" variations
  | Not_isolating { variations } ->
    Printf.sprintf
      "Isolate: interval does not isolate a single simple root (Descartes count %d); the \
       monotonicity precondition does not hold"
      variations

(* round toward the nearest multiple of 2^-bits: keeps the Newton
   iterates' denominators dyadic and small instead of squaring at
   every step *)
let dyadic_round x ~bits =
  let scale = B.pow B.two bits in
  let n2 = B.mul (Q.num x) scale in
  let d = Q.den x in
  let q, _ = B.ediv_rem (B.add (B.mul B.two n2) d) (B.mul B.two d) in
  Q.make q scale

let exact_enclosure ?(newton_steps = 0) ?(bisect_steps = 0) r =
  { enc_lo = r; enc_hi = r; exact = true; newton_steps; bisect_steps }

(* bracket refinement: invariant sign(p a) = sa <> 0, sign(p b) = -sa.
   Interval-Newton from the midpoint when it lands strictly inside,
   bisection otherwise; a Newton probe that fails to shrink the
   bracket by a quarter forfeits the next turn to bisection, so the
   width at least halves every two steps and termination is
   unconditional. *)
let refine ~max_width p a0 b0 =
  let p' = derivative p in
  let sa = Q.sign (eval p a0) in
  let a = ref a0 and b = ref b0 in
  let newton_steps = ref 0 and bisect_steps = ref 0 in
  (* precision cap: Newton converges quadratically, so iterates never
     need more than ~2x the bits of the target width (plus guard
     bits). Without the cap the dyadic denominators — and the gcds
     normalizing every probe — grow without bound. *)
  let bit_cap =
    let k = ref 0 and w = ref max_width in
    while Q.compare !w Q.one < 0 && !k < 2048 do
      incr k;
      w := Q.mul Q.two !w
    done;
    (2 * !k) + 64
  in
  let bits = ref 16 in
  let force_bisect = ref false in
  let exact_at = ref None in
  while !exact_at = None && Q.compare (Q.sub !b !a) max_width >= 0 do
    let m = Q.mul Q.half (Q.add !a !b) in
    let probe, is_newton =
      if !force_bisect then (m, false)
      else begin
        let dm = eval p' m in
        if Q.is_zero dm then (m, false)
        else begin
          let x = dyadic_round (Q.sub m (Q.div (eval p m) dm)) ~bits:!bits in
          if Q.compare !a x < 0 && Q.compare x !b < 0 then (x, true) else (m, false)
        end
      end
    in
    let width_before = Q.sub !b !a in
    (match Q.sign (eval p probe) with
    | 0 -> exact_at := Some probe
    | s -> if s = sa then a := probe else b := probe);
    if is_newton then begin
      incr newton_steps;
      bits := min bit_cap (!bits * 2);
      force_bisect := Q.compare (Q.sub !b !a) (Q.mul (Q.of_ints 3 4) width_before) > 0
    end
    else begin
      incr bisect_steps;
      force_bisect := false
    end
  done;
  match !exact_at with
  | Some r -> exact_enclosure ~newton_steps:!newton_steps ~bisect_steps:!bisect_steps r
  | None ->
    { enc_lo = !a;
      enc_hi = !b;
      exact = false;
      newton_steps = !newton_steps;
      bisect_steps = !bisect_steps }

let isolate ?(max_width = Q.one) p ~lo ~hi =
  if degree p < 0 then Error Zero_polynomial
  else if Q.compare lo hi > 0 then Error (No_root { variations = 0 })
  else begin
    let plo = eval p lo and phi = eval p hi in
    if Q.is_zero plo then Ok (exact_enclosure lo)
    else if Q.is_zero phi then Ok (exact_enclosure hi)
    else if Q.sign plo <> Q.sign phi then Ok (refine ~max_width p lo hi)
    else begin
      (* endpoint signs agree: either root-free, or an even cluster the
         caller's monotonicity precondition excludes. Certify with the
         Descartes bound, then subdivide a bounded number of times in
         case a sign change (or rational root) hides inside. *)
      let v0 = variations_on p ~lo ~hi in
      if v0 = 0 then Error (No_root { variations = 0 })
      else begin
        let budget = ref 128 in
        let rec search = function
          | [] -> Error (Not_isolating { variations = v0 })
          | _ when !budget <= 0 -> Error (Not_isolating { variations = v0 })
          | (a, b) :: rest ->
            decr budget;
            let pa = eval p a and pb = eval p b in
            if Q.is_zero pa then Ok (exact_enclosure a)
            else if Q.is_zero pb then Ok (exact_enclosure b)
            else if Q.sign pa <> Q.sign pb then Ok (refine ~max_width p a b)
            else if variations_on p ~lo:a ~hi:b = 0 then search rest
            else begin
              let m = Q.mul Q.half (Q.add a b) in
              search ((a, m) :: (m, b) :: rest)
            end
        in
        search [ (lo, hi) ]
      end
    end
  end

(* floor of the isolated root. A width-<1 bracket pins it to
   [floor enc_lo] or [floor enc_hi]; one exact evaluation at the
   boundary integer decides which side the root is on. *)
let integer_root p e =
  if e.exact then Some (Q.floor e.enc_lo)
  else if Q.compare (Q.sub e.enc_hi e.enc_lo) Q.one >= 0 then None
  else begin
    let fl = Q.floor e.enc_lo and fh = Q.floor e.enc_hi in
    if B.equal fl fh then Some fl
    else begin
      let s = Q.sign (eval p (Q.of_bigint fh)) in
      if s = 0 || s = Q.sign (eval p e.enc_lo) then Some fh else Some fl
    end
  end

let float_root c ~lo ~hi =
  let n = Array.length c in
  let feval x =
    let acc = ref 0.0 in
    for i = n - 1 downto 0 do
      acc := (!acc *. x) +. c.(i)
    done;
    !acc
  in
  let feval' x =
    let acc = ref 0.0 in
    for i = n - 1 downto 1 do
      acc := (!acc *. x) +. (float_of_int i *. c.(i))
    done;
    !acc
  in
  let flo = feval lo in
  let a = ref lo and b = ref hi in
  let x = ref (0.5 *. (lo +. hi)) in
  (try
     for _ = 1 to 40 do
       let fx = feval !x in
       if fx = 0.0 then raise Exit;
       if fx < 0.0 = (flo < 0.0) then a := !x else b := !x;
       let dx = feval' !x in
       let xn = if dx <> 0.0 then !x -. (fx /. dx) else Float.nan in
       let next =
         if Float.is_finite xn && xn > !a && xn < !b then xn else 0.5 *. (!a +. !b)
       in
       let converged = Float.abs (next -. !x) < 1e-9 *. (Float.abs !x +. 1.0) in
       x := next;
       if converged then raise Exit
     done
   with Exit -> ());
  if Float.is_finite !x && !x >= lo && !x <= hi then !x else 0.5 *. (lo +. hi)
