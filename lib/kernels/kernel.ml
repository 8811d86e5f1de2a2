type t = {
  name : string;
  description : string;
  family : string;
  collapsed : int;
  total_loops : int;
  nest : Trahrhe.Nest.t;
  param_map : int -> string -> int;
  default_n : int;
  fig10_n : int;
  outer_costs : n:int -> float array;
  collapsed_costs : n:int -> float array;
  serial_original : n:int -> float;
  serial_collapsed : n:int -> recoveries:int -> float;
}

let param_of t ~n x =
  if List.mem x t.nest.Trahrhe.Nest.params then t.param_map n x
  else invalid_arg ("Kernel.param_of: unknown parameter " ^ x)

let inversions : (string, Trahrhe.Inversion.t) Hashtbl.t = Hashtbl.create 16

let inversion t =
  match Hashtbl.find_opt inversions t.name with
  | Some inv -> inv
  | None ->
    let inv = Trahrhe.Inversion.invert_exn t.nest in
    Hashtbl.add inversions t.name inv;
    inv

let recovery t ~n = Trahrhe.Recovery.make (inversion t) ~param:(param_of t ~n)

let chunk_starts ~trip ~recoveries =
  let r = max 1 (min recoveries trip) in
  let q = trip / r and rem = trip mod r in
  let rec go start k acc =
    if k = r then List.rev acc
    else begin
      let len = if k < rem then q + 1 else q in
      go (start + len) (k + 1) ((start, len) :: acc)
    end
  in
  if trip = 0 then [] else go 1 0 []

let registry : t list ref = ref []

let register k =
  registry := k :: !registry;
  k

let all () = List.rev !registry
let find name = List.find_opt (fun k -> k.name = name) (all ())
