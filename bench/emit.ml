(* Shared emitter for the BENCH_*.json artifacts.

   Every artifact used to assemble its JSON by hand with printf format
   strings; this module is the one place that owns the document
   structure, the escaping, the schema version and the git provenance
   stamp. [write] injects "artifact"/"schema_version"/"git" as the
   leading fields so every artifact stays greppable the same way
   (CI's artifact check matches ["schema_version": N] literally). *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Int of int
  | Bool of bool
  | F of float * int  (* fixed-point with the given number of decimals *)
  | G of float  (* shortest %g rendering, for rates like 0.02 *)

(* bump when the shape of any BENCH_*.json changes *)
let schema_version = 4

(* hardware context: perf numbers are meaningless across machines
   without it, and the reduction/steal artifacts gate on parallel
   speedups that only make sense relative to the domain count *)
let cpu_model =
  lazy
    (try
       let ic = open_in "/proc/cpuinfo" in
       let rec scan () =
         match input_line ic with
         | exception End_of_file -> "unknown"
         | line ->
           if String.length line >= 10 && String.sub line 0 10 = "model name" then
             match String.index_opt line ':' with
             | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
             | None -> scan ()
           else scan ()
       in
       let m = scan () in
       close_in ic;
       m
     with Sys_error _ -> "unknown")

let git_describe =
  lazy
    (try
       let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       (match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown")
     with Unix.Unix_error _ | Sys_error _ -> "unknown")

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string v =
  let buf = Buffer.create 1024 in
  let pad indent = Buffer.add_string buf (String.make indent ' ') in
  let rec render indent = function
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          render (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          render (indent + 2) v)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | F (x, decimals) -> Buffer.add_string buf (Printf.sprintf "%.*f" decimals x)
    | G x -> Buffer.add_string buf (Printf.sprintf "%g" x)
  in
  render 0 v;
  Buffer.contents buf

(* fail fast, BEFORE measuring for seconds, if the output path cannot
   be created (read-only checkout, missing directory, ...) *)
let ensure_writable path =
  try close_out (open_out path)
  with Sys_error e ->
    Printf.eprintf "cannot write bench artifact %s: %s\n" path e;
    exit 1

let write ~path ~artifact fields =
  let doc =
    Obj
      (("artifact", Str artifact)
      :: ("schema_version", Int schema_version)
      :: ("git", Str (Lazy.force git_describe))
      :: ("cpu_model", Str (Lazy.force cpu_model))
      :: ("domains", Int (Domain.recommended_domain_count ()))
      :: fields)
  in
  (try
     let oc = open_out path in
     output_string oc (to_string doc);
     output_char oc '\n';
     close_out oc
   with Sys_error e ->
     Printf.eprintf "cannot write bench artifact %s: %s\n" path e;
     exit 1);
  Printf.printf "wrote %s\n" path
