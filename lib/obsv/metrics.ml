let max_slots = 256
let mask = max_slots - 1
let stride = 16 (* 16 ints = 128 B: no two slots on one cache line *)

type t = { name : string; cells : int array }

let registry : t list ref = ref []
let registry_mutex = Mutex.create ()

let create name =
  let t = { name; cells = Array.make (max_slots * stride) 0 } in
  Mutex.lock registry_mutex;
  registry := t :: !registry;
  Mutex.unlock registry_mutex;
  t

let name t = t.name

let add t ~slot n =
  let base = (slot land mask) * stride in
  Array.unsafe_set t.cells base (Array.unsafe_get t.cells base + n)

let incr t ~slot = add t ~slot 1
let add_here t n = add t ~slot:(Domain.self () :> int) n
let incr_here t = add_here t 1
let get t ~slot = t.cells.((slot land mask) * stride)

let total t =
  let acc = ref 0 in
  for s = 0 to max_slots - 1 do
    acc := !acc + t.cells.(s * stride)
  done;
  !acc

let per_slot t =
  let acc = ref [] in
  for s = max_slots - 1 downto 0 do
    let v = t.cells.(s * stride) in
    if v <> 0 then acc := (s, v) :: !acc
  done;
  !acc

let imbalance t =
  match per_slot t with
  | [] | [ _ ] -> 1.0
  | cells ->
    let n = List.length cells in
    let sum = List.fold_left (fun a (_, v) -> a + v) 0 cells in
    let mx = List.fold_left (fun a (_, v) -> max a v) min_int cells in
    float_of_int mx /. (float_of_int sum /. float_of_int n)

let reset t = Array.fill t.cells 0 (Array.length t.cells) 0

let all () =
  Mutex.lock registry_mutex;
  let l = List.rev !registry in
  Mutex.unlock registry_mutex;
  l

let find n = List.find_opt (fun t -> t.name = n) (all ())
let reset_all () = List.iter reset (all ())

type snapshot = (t * int) list

let snapshot () = List.map (fun t -> (t, total t)) (all ())
let since s t = total t - Option.value (List.assq_opt t s) ~default:0

let summary () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %14s %6s %12s %12s %10s\n" "counter" "total" "slots" "min/slot"
       "max/slot" "imbalance");
  List.iter
    (fun t ->
      match per_slot t with
      | [] -> ()
      | cells ->
        let mn = List.fold_left (fun a (_, v) -> min a v) max_int cells in
        let mx = List.fold_left (fun a (_, v) -> max a v) min_int cells in
        Buffer.add_string b
          (Printf.sprintf "%-28s %14d %6d %12d %12d %10.3f\n" t.name (total t)
             (List.length cells) mn mx (imbalance t)))
    (all ());
  Buffer.contents b
