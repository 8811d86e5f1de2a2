type handle

external raw_open : string -> handle = "ompsim_jit_open"
external raw_close : handle -> unit = "ompsim_jit_close"
external raw_abi : handle -> int = "ompsim_jit_abi"
external raw_fingerprint : handle -> string = "ompsim_jit_fingerprint"
external raw_depth : handle -> int = "ompsim_jit_depth"
external raw_params : handle -> int = "ompsim_jit_params"
external raw_trip : handle -> int array -> int = "ompsim_jit_trip"
external raw_recover : handle -> int array -> int -> int array -> unit = "ompsim_jit_recover"
external raw_walk_hash : handle -> int array -> int -> int -> int = "ompsim_jit_walk_hash"
external raw_reduce : handle -> int array -> int -> int -> int -> int = "ompsim_jit_reduce"

let depth = raw_depth
let params = raw_params
let close = raw_close
let trip h ps = raw_trip h ps
let walk_hash h ps ~pc ~len = raw_walk_hash h ps pc len
let reduce h ps op ~pc ~len =
  let code =
    match op with
    | Trahrhe.Nest.Sum -> 0
    | Trahrhe.Nest.Min -> 1
    | Trahrhe.Nest.Max -> 2
    | Trahrhe.Nest.Prod -> invalid_arg "Jit.Native.reduce: a product has no native fold"
  in
  raw_reduce h ps pc len code
let recover h ps ~pc idx = raw_recover h ps pc idx

(* load-time validation: an object built by another ABI or from another
   source is an error here — callers treat it as a silent cache miss *)
let load ~path ~digest =
  match raw_open path with
  | exception Failure msg -> Error msg
  | h ->
    let fail msg =
      close h;
      Error msg
    in
    let abi = raw_abi h in
    if abi <> Abi.version then
      fail (Printf.sprintf "stale object: abi %d, expected %d" abi Abi.version)
    else begin
      let fp = raw_fingerprint h in
      if fp <> digest then fail (Printf.sprintf "stale object: digest %s" fp)
      else begin
        let d = raw_depth h and np = raw_params h in
        if d < 1 || d > 16 || np < 0 || np > 16 then fail "stale object: implausible shape"
        else Ok h
      end
    end
