(* nonrect-collapse command-line tool (reproduction of the paper's
   trahrhe-style utility): collapse non-rectangular OpenMP loop nests
   in C sources, inspect ranking polynomials, validate recoveries, and
   simulate schedules. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let nest_of_input ~file ~kernel =
  match (file, kernel) with
  | Some path, None -> (
    match Cfront.Transform.find_regions (read_file path) with
    | [] -> Error "no non-rectangular collapse(...) construct found in file"
    | r :: _ -> Ok r.Cfront.Transform.nest)
  | None, Some name -> (
    match Kernels.Registry.find name with
    | Some k -> Ok k.Kernels.Kernel.nest
    | None ->
      Error
        (Printf.sprintf "unknown kernel %S (try: %s)" name
           (String.concat ", " Kernels.Registry.names)))
  | _ -> Error "give exactly one of FILE or --kernel NAME"

(* per-level recovery accounting for stderr: the isolator's enclosure
   refinement counts at every searched level on a mid-range probe, and
   the innermost level's exact formula *)
let report_recovery_kinds (inv : Trahrhe.Inversion.t) rc =
  let trip = Trahrhe.Recovery.trip_count rc in
  if trip > 0 then begin
    let pc = 1 + (trip / 2) in
    let idx = Trahrhe.Recovery.recover rc pc in
    let parts =
      List.mapi
        (fun k var ->
          match Trahrhe.Recovery.isolate_level rc idx ~pc ~level:k with
          | None -> Printf.sprintf "%s=exact" var
          | Some (Ok enc) ->
            Printf.sprintf "%s=numeric(%d newton + %d bisect steps%s)" var
              enc.Rootsolve.Isolate.newton_steps enc.Rootsolve.Isolate.bisect_steps
              (if enc.Rootsolve.Isolate.exact then ", exact root" else "")
          | Some (Error e) ->
            Printf.sprintf "%s=numeric(%s)" var (Rootsolve.Isolate.error_to_string e))
        (Trahrhe.Nest.level_vars inv.Trahrhe.Inversion.nest)
    in
    Printf.eprintf "  recovery: %s\n%!" (String.concat "  " parts)
  end;
  if Obsv.Control.enabled () then
    Printf.eprintf "  inversion counters: numeric=%d closed_form=%d\n%!"
      (Trahrhe.Recovery.numeric_recoveries ())
      (Trahrhe.Recovery.closed_form_recoveries ())

(* ---- observability plumbing (--trace / --stats) ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"OUT.json"
        ~doc:"Write a Chrome trace_event JSON of the run to $(docv) (load in chrome://tracing).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print span timings and per-worker counters after the run.")

(* run [f] with the obsv layer on when --trace/--stats ask for it;
   write/print the artifacts afterwards, also when [f] fails *)
let with_obsv ~trace ~stats f =
  let want = trace <> None || stats in
  if want then begin
    Obsv.Control.set_enabled true;
    Obsv.Trace.clear ();
    Ompsim.Stats.reset ()
  end;
  Fun.protect f ~finally:(fun () ->
      if want then begin
        (match trace with
        | Some path ->
          Ompsim.Stats.emit_trace_counters ();
          Obsv.Trace.write path;
          Printf.eprintf "trace written to %s (%d events)\n" path (Obsv.Trace.event_count ())
        | None -> ());
        if stats then print_string (Ompsim.Stats.summary ());
        Obsv.Control.set_enabled false
      end)

(* ---- info ---- *)

let info_run file kernel =
  match nest_of_input ~file ~kernel with
  | Error e ->
    prerr_endline e;
    1
  | Ok nest ->
    Format.printf "nest:@\n%a@\n" Trahrhe.Nest.pp nest;
    Format.printf "parameters: %s@\n" (String.concat ", " nest.Trahrhe.Nest.params);
    Format.printf "max dependence degree: %d@\n" (Trahrhe.Nest.max_dependence_degree nest);
    let r = Trahrhe.Ranking.ranking nest in
    Format.printf "ranking polynomial: %s@\n" (Polymath.Polynomial.to_string r);
    Format.printf "trip count: %s@\n"
      (Polymath.Polynomial.to_string (Trahrhe.Ranking.trip_count nest));
    match Trahrhe.Inversion.invert nest with
    | Error e ->
      Format.printf "inversion: FAILED — %s@\n" (Trahrhe.Inversion.error_to_string e);
      1
    | Ok inv ->
      Format.printf "recovery (exact, as collapse and emit print it):@\n";
      let d = Trahrhe.Nest.depth nest in
      List.iteri
        (fun k var ->
          if k < d - 1 then Format.printf "%s = search on r_sub_%d@\n" var k
          else
            Format.printf "%s = %s   [exact]@\n" var
              (Polymath.Polynomial.to_string (Trahrhe.Inversion.innermost inv)))
        (Trahrhe.Nest.level_vars nest);
      Result.iter_error
        (Format.printf "printed C (collapse, emit): none — %s@\n")
        (Codegen.Schemes.fits_counter inv);
      (match Trahrhe.Closed_form.select inv with
      | Ok forms -> Format.printf "paper closed forms (--paper):@\n%a" Trahrhe.Closed_form.pp forms
      | Error e ->
        Format.printf "paper closed form: none — %s@\n" (Trahrhe.Closed_form.error_to_string e));
      0

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"C source file to analyze.")

let kernel_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "kernel"; "k" ] ~docv:"NAME" ~doc:"Use a built-in benchmark kernel instead of a file.")

let info_cmd =
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Print the ranking polynomial, trip count, the exact recovery of each index and the \
          paper's closed forms.")
    Term.(const info_run $ file_arg $ kernel_arg)

(* ---- collapse ---- *)

let scheme_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "naive" ] -> Ok Cfront.Transform.Naive
    | [ "per-thread" ] -> Ok Cfront.Transform.Per_thread
    | [ "chunked"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (Cfront.Transform.Chunked n)
      | _ -> Error (`Msg "chunked:N needs a positive integer"))
    | [ "simd"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (Cfront.Transform.Simd n)
      | _ -> Error (`Msg "simd:N needs a positive integer"))
    | _ -> Error (`Msg "scheme must be naive | per-thread | chunked:N | simd:N")
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | Cfront.Transform.Naive -> "naive"
      | Cfront.Transform.Per_thread -> "per-thread"
      | Cfront.Transform.Chunked n -> Printf.sprintf "chunked:%d" n
      | Cfront.Transform.Simd n -> Printf.sprintf "simd:%d" n)
  in
  Arg.conv (parse, print)

let paper_arg =
  Arg.(
    value & flag
    & info [ "paper" ]
        ~doc:
          "Print the paper's closed-form roots with a raw floor (Figures 3/7) instead of the \
           exact recovery. Floating rounding can put a floored root off by one (validate counts \
           the misses).")

let collapse_run input output scheme paper =
  let options = { Cfront.Transform.default_options with scheme; paper } in
  try
    let src = read_file input in
    let out, count = Cfront.Transform.transform_source ~options src in
    (match output with
    | Some path ->
      let oc = open_out_bin path in
      output_string oc out;
      close_out oc
    | None -> print_string out);
    Printf.eprintf "%d construct(s) collapsed\n" count;
    if count = 0 then 1 else 0
  with Failure e ->
    prerr_endline e;
    1

let collapse_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input C source.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file (stdout when absent).")
  in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Cfront.Transform.Per_thread
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"naive | per-thread | chunked:N | simd:N.")
  in
  Cmd.v
    (Cmd.info "collapse"
       ~doc:"Rewrite non-rectangular OpenMP collapse(...) constructs into collapsed loops.")
    Term.(const collapse_run $ input $ output $ scheme $ paper_arg)

(* ---- validate ---- *)

let validate_run file kernel size trace stats =
  with_obsv ~trace ~stats @@ fun () ->
  match nest_of_input ~file ~kernel with
  | Error e ->
    prerr_endline e;
    1
  | Ok nest -> (
    match Trahrhe.Closed_form.invert nest with
    | Error e ->
      Printf.eprintf "inversion failed: %s\n" (Trahrhe.Closed_form.error_to_string e);
      1
    | Ok forms ->
      let param =
        match (kernel, Option.bind kernel Kernels.Registry.find) with
        | _, Some k -> Kernels.Kernel.param_of k ~n:size
        | _ -> fun _ -> size
      in
      let report = Trahrhe.Validate.check forms ~param in
      Format.printf "%a@\n" Trahrhe.Validate.pp report;
      if Trahrhe.Validate.all_ok report then 0
      else begin
        if Trahrhe.Validate.raw_floor_ok report then
          Format.printf
            "closed form missed %d/%d iterations: the raw floor that collapse --paper emits \
             is not exact here (the default output of collapse is)@\n"
            (report.Trahrhe.Validate.iterations - report.Trahrhe.Validate.closed_form_ok)
            report.Trahrhe.Validate.iterations;
        1
      end)

let validate_cmd =
  let size =
    Arg.(value & opt int 30 & info [ "size"; "n" ] ~docv:"N" ~doc:"Parameter value to validate at.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Exhaustively check ranking bijectivity, the paper's closed-form recovery and the \
          runtime recovery at a given size; exits 1 when any of them misses.")
    Term.(const validate_run $ file_arg $ kernel_arg $ size $ trace_arg $ stats_arg)

(* ---- simulate ---- *)

let simulate_run kernel size threads trace stats =
  with_obsv ~trace ~stats @@ fun () ->
  match Option.to_result ~none:"--kernel is required" kernel |> fun k -> Result.bind k (fun name ->
      Option.to_result ~none:("unknown kernel " ^ name) (Kernels.Registry.find name))
  with
  | Error e ->
    prerr_endline e;
    1
  | Ok k ->
    let n = match size with Some n -> n | None -> k.Kernels.Kernel.default_n in
    let ov =
      { Ompsim.Sim.fork_join = Ompsim.Calibrate.default_fork_join;
        dispatch = Ompsim.Calibrate.default_dispatch;
        chunk_start = 0.0;
        per_iter = 0.0 }
    in
    let coll_ov =
      { ov with
        chunk_start = Ompsim.Calibrate.default_recovery;
        per_iter = Ompsim.Calibrate.default_increment }
    in
    let outer = k.Kernels.Kernel.outer_costs ~n in
    let coll = k.Kernels.Kernel.collapsed_costs ~n in
    let stat = Ompsim.Sim.run ~costs:outer ~schedule:Ompsim.Schedule.Static ~nthreads:threads ~overheads:ov in
    let dyn = Ompsim.Sim.run ~costs:outer ~schedule:(Ompsim.Schedule.Dynamic 1) ~nthreads:threads ~overheads:ov in
    let colr = Ompsim.Sim.run ~costs:coll ~schedule:Ompsim.Schedule.Static ~nthreads:threads ~overheads:coll_ov in
    Printf.printf "kernel %s, n=%d, %d threads (work units)\n" k.Kernels.Kernel.name n threads;
    Printf.printf "  original static   : %.3e (imbalance %.2f)\n" stat.Ompsim.Sim.makespan stat.Ompsim.Sim.imbalance;
    Printf.printf "  original dynamic  : %.3e (imbalance %.2f, %d dispatches)\n" dyn.Ompsim.Sim.makespan
      dyn.Ompsim.Sim.imbalance dyn.Ompsim.Sim.chunks_dispatched;
    Printf.printf "  collapsed static  : %.3e (imbalance %.2f)\n" colr.Ompsim.Sim.makespan colr.Ompsim.Sim.imbalance;
    Printf.printf "  gain vs static    : %.1f%%\n"
      (100.0 *. Ompsim.Sim.gain ~baseline:stat.Ompsim.Sim.makespan ~improved:colr.Ompsim.Sim.makespan);
    Printf.printf "  gain vs dynamic   : %.1f%%\n"
      (100.0 *. Ompsim.Sim.gain ~baseline:dyn.Ompsim.Sim.makespan ~improved:colr.Ompsim.Sim.makespan);
    0

let simulate_cmd =
  let size =
    Arg.(value & opt (some int) None & info [ "size"; "n" ] ~docv:"N" ~doc:"Problem size (kernel default when absent).")
  in
  let threads = Arg.(value & opt int 12 & info [ "threads"; "t" ] ~docv:"T" ~doc:"Thread count.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate OpenMP schedules for a benchmark kernel (Figure 9 style).")
    Term.(const simulate_run $ kernel_arg $ size $ threads $ trace_arg $ stats_arg)

(* ---- exec ---- *)

let schedule_conv =
  let parse s = Ompsim.Schedule.of_string s |> Result.map_error (fun e -> `Msg e) in
  let print fmt s = Format.pp_print_string fmt (Ompsim.Schedule.to_string s) in
  Arg.conv (parse, print)

let exec_run kernel size threads schedule lanes repeat native reduce faults retries deadline_ms trace stats =
  with_obsv ~trace ~stats @@ fun () ->
  match
    Option.to_result ~none:"--kernel is required" kernel |> fun k ->
    Result.bind k (fun name ->
        Option.to_result ~none:("unknown kernel " ^ name) (Kernels.Registry.find name))
  with
  | Error e ->
    prerr_endline e;
    1
  | Ok k -> (
    let n = match size with Some n -> n | None -> k.Kernels.Kernel.default_n in
    if lanes <= 0 then begin
      prerr_endline "--lanes needs a positive integer";
      exit 1
    end;
    if repeat <= 0 then begin
      prerr_endline "--repeat needs a positive integer";
      exit 1
    end;
    (* --faults overrides the region's fault config; absent, it
       defers to OMPSIM_FAULTS *)
    let faults =
      Option.map
        (fun spec ->
          match Ompsim.Fault.of_spec spec with
          | Ok cfg -> Some cfg
          | Error e ->
            prerr_endline e;
            exit 1)
        faults
    in
    let nest = k.Kernels.Kernel.nest in
    let nest = if reduce = None then nest else Trahrhe.Nest.with_default_reduce nest in
    (* compile once through the plan cache (warm OMPSIM_PLAN_CACHE dirs
       skip the symbolic pipeline entirely); the recovery and the
       serial reference are then reused across every --repeat run.
       --deadline-ms is charged from here *)
    let started = Unix.gettimeofday () in
    match Service.Cache.find_or_compile (Service.Cache.default ()) nest with
    | Error e ->
      Printf.eprintf "inversion failed: %s\n" e;
      1
    | Ok (plan, renaming) -> (
      let param =
        Service.Fingerprint.canonical_param renaming (Kernels.Kernel.param_of k ~n)
      in
      let opts = { Service.Exec.threads; schedule; lanes; repeat; retries; native; reduce } in
      let rc, native_reason =
        try Service.Exec.recovery plan ~param (Service.Plan.recovery plan ~param) opts
        with Invalid_argument e ->
          prerr_endline e;
          exit 1
      in
      let trip = Trahrhe.Recovery.trip_count rc in
      let show = function
        | Service.Exec.Int v -> string_of_int v
        | Service.Exec.Rat q -> Zmath.Rat.to_string q
      in
      (* one invocation, one reference: the CLI walks it every time *)
      let reference poll =
        Service.Exec.serial ~poll rc ~nest:plan.Service.Plan.inversion.Trahrhe.Inversion.nest
          ~param opts
      in
      match Service.Exec.run ?faults ?deadline_ms ~started ~reference rc opts with
      | Error Service.Exec.Empty_extremum ->
        prerr_endline "min/max reduction over an empty iteration space";
        1
      | Error (Service.Exec.Raised { exn; _ }) -> raise exn
      | Error (Service.Exec.Region { error; _ }) ->
        print_endline (Ompsim.Par.describe_error error);
        1
      | Error (Service.Exec.Mismatch { run; parallel; serial }) ->
        Printf.printf "%s MISMATCH on run %d/%d: parallel %s vs serial %s\n"
          (if reduce = None then "CHECKSUM" else "REDUCTION")
          run repeat (show parallel) (show serial);
        1
      | Ok { Service.Exec.reference; run_times } ->
        let elapsed = Array.fold_left ( +. ) 0.0 run_times in
        let runs = if repeat > 1 then Printf.sprintf " x%d runs" repeat else "" in
        (match reduce with
        | Some op ->
          Printf.printf
            "kernel %s, n=%d, %d threads, schedule(%s), reduce(%s): %d collapsed iterations%s in \
             %.4fs\n"
            k.Kernels.Kernel.name n threads
            (Ompsim.Schedule.to_string schedule)
            (Trahrhe.Nest.op_to_string op) trip runs elapsed
        | None ->
          Printf.printf
            "kernel %s, n=%d, %d threads, schedule(%s)%s: %d collapsed iterations%s in %.4fs\n"
            k.Kernels.Kernel.name n threads
            (Ompsim.Schedule.to_string schedule)
            (if lanes > 1 then Printf.sprintf ", %d lanes" lanes else "")
            trip runs elapsed);
        if native then
          Printf.eprintf "  native backend: %s\n%!"
            (match native_reason with
            | None -> "engaged"
            | Some reason -> Printf.sprintf "interpreted fallback (%s)" reason);
        report_recovery_kinds plan.Service.Plan.inversion rc;
        (match reduce with
        | Some _ ->
          if Obsv.Control.enabled () then begin
            Printf.printf "  reduce: %d partials, %d combines\n"
              (Obsv.Metrics.total Ompsim.Stats.reduce_partials)
              (Obsv.Metrics.total Ompsim.Stats.reduce_combines);
            match schedule with
            | Ompsim.Schedule.Dnc _ ->
              Printf.printf "  dnc: %d splits, %d grain chunks\n"
                (Obsv.Metrics.total Ompsim.Stats.dnc_splits)
                (Obsv.Metrics.total Ompsim.Stats.dnc_grain_chunks)
            | _ -> ()
          end;
          Printf.printf "reduction ok (%s)\n" (show reference)
        | None ->
          if repeat > 1 then begin
            (* per-run wall times, not just the aggregate: min/median
               make warm-up effects and scheduling noise visible *)
            Array.iteri
              (fun i t -> Printf.eprintf "  run %2d/%d: %.4fs\n" (i + 1) repeat t)
              run_times;
            let sorted = Array.copy run_times in
            Array.sort compare sorted;
            let median =
              if repeat mod 2 = 1 then sorted.(repeat / 2)
              else (sorted.((repeat / 2) - 1) +. sorted.(repeat / 2)) /. 2.0
            in
            Printf.eprintf "  run wall time: min %.4fs, median %.4fs\n%!" sorted.(0) median
          end;
          (* the per-worker table is a --stats/--trace report: the
             counters themselves are always on *)
          (match Obsv.Metrics.per_slot Ompsim.Stats.par_iterations with
          | _ when not (Obsv.Control.enabled ()) -> ()
          | [] -> ()
          | cells ->
            List.iter
              (fun (slot, iters) ->
                Printf.printf "  worker %2d: %4d chunks %10d iterations\n" slot
                  (Obsv.Metrics.get Ompsim.Stats.par_chunks ~slot)
                  iters)
              cells;
            Printf.printf "  iteration imbalance (max/mean): %.3f\n"
              (Obsv.Metrics.imbalance Ompsim.Stats.par_iterations));
          if Obsv.Control.enabled () then
            Printf.printf
              "  faults: %d injected, %d stalls, %d retries, %d cancellations, %d serial \
               fallbacks\n"
              (Obsv.Metrics.total Ompsim.Stats.faults_injected)
              (Obsv.Metrics.total Ompsim.Stats.fault_stalls)
              (Obsv.Metrics.total Ompsim.Stats.chunk_retries)
              (Obsv.Metrics.total Ompsim.Stats.regions_cancelled)
              (Obsv.Metrics.total Ompsim.Stats.serial_fallbacks);
          Printf.printf "checksum ok (%s)\n" (show reference));
        0))

let exec_cmd =
  let size =
    Arg.(
      value
      & opt (some int) None
      & info [ "size"; "n" ] ~docv:"N" ~doc:"Problem size (kernel default when absent).")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"T" ~doc:"Thread count.") in
  let schedule =
    Arg.(
      value
      & opt schedule_conv Ompsim.Schedule.Static
      & info [ "schedule"; "s" ] ~docv:"SCHED"
          ~doc:
            "static | static:N | dynamic[:N] | guided[:N] | ws[:N] (work-stealing) | dnc[:G] \
             (divide-and-conquer splitting down to grain G).")
  in
  let lanes =
    Arg.(
      value & opt int 1
      & info [ "lanes" ] ~docv:"W"
          ~doc:
            "Lane width for the §VI-A batched walk: blocks of $(docv) consecutive collapsed \
             iterations are materialized in lockstep before the body runs (1 = per-iteration \
             walk).")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"R"
          ~doc:
            "Execute the parallel region $(docv) times, reusing one compiled plan, one runtime \
             recovery and one serial reference across all runs (each run's checksum is still \
             verified). Per-run wall times with their min/median join the stderr accounting \
             block.")
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Specialize the plan's recovery, stepping and collapsed loop to a shared object \
             (compiled with the system C compiler, cached next to the plan in \
             OMPSIM_PLAN_CACHE) and run each chunk through it. Falls back to the interpreted \
             walk — reported in the accounting block — when no compiler is available, the \
             compile fails, or the nest needs bigint headroom.")
  in
  let reduce =
    let reduce_conv =
      let parse s =
        match Trahrhe.Nest.op_of_string s with
        | Some op -> Ok op
        | None -> Error (`Msg "reduce must be sum | prod | min | max")
      in
      let print fmt op = Format.pp_print_string fmt (Trahrhe.Nest.op_to_string op) in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt (some reduce_conv) None
      & info [ "reduce" ] ~docv:"OP"
          ~doc:
            "Execute the region as a parallel reduction ($(docv) = sum | prod | min | max) over \
             the collapsed range instead of the checksum walk: per-worker partial accumulators, \
             deterministic combine tree keyed by chunk position, checked exactly against the \
             serial fold. The reduced value polynomial is the kernel's declared clause when it \
             has one, the canonical default otherwise. The operator is not part of the plan: \
             every $(docv) of a kernel runs one compiled plan. sum reduces in wrapped int64 (and \
             runs natively under $(b,--native)), prod/min/max reduce in exact rationals.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault injection in the region. $(docv) is either \
             an on-switch (1/on) or key=value fields: p=PROB (per-chunk failure probability), \
             seed=S, stall=PROB, stall_us=US, max=K (injection budget). Same spec grammar as \
             the OMPSIM_FAULTS environment variable.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Retry a failing chunk up to $(docv) times (with backoff) before cancelling the \
             region.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Cancel execution cooperatively once $(docv) milliseconds have elapsed (remaining \
             chunks are reported, not executed); the budget covers the compile, the serial \
             reference walk and all $(b,--repeat) runs together.")
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Really execute a kernel's collapsed nest on OCaml domains (one recovery per chunk, §V \
          walk) and check the result against serial enumeration.")
    Term.(
      const exec_run $ kernel_arg $ size $ threads $ schedule $ lanes $ repeat $ native $ reduce
      $ faults $ retries $ deadline_ms $ trace_arg $ stats_arg)

(* ---- emit ---- *)

let emit_run file kernel scheme paper =
  match nest_of_input ~file ~kernel with
  | Error e ->
    prerr_endline e;
    1
  | Ok nest -> (
    match Trahrhe.Inversion.invert nest with
    | Error e ->
      Printf.eprintf "inversion failed: %s\n" (Trahrhe.Inversion.error_to_string e);
      1
    | Ok inv -> (
      let config = { Codegen.Schemes.default_config with paper } in
      let body = [ Codegen.C_ast.Raw "/* statements(indices) */;" ] in
      try
        print_string
          (Codegen.C_print.to_string
             (match scheme with
             | Cfront.Transform.Naive -> Codegen.Schemes.naive ~config inv ~body
             | Cfront.Transform.Per_thread -> Codegen.Schemes.per_thread ~config inv ~body
             | Cfront.Transform.Chunked chunk -> Codegen.Schemes.chunked ~config ~chunk inv ~body
             | Cfront.Transform.Simd vlength ->
               Codegen.Schemes.simd ~config ~vlength inv ~body_of:(fun subst ->
                   [ Codegen.C_ast.Raw
                       (Printf.sprintf "/* statements(%s) */;"
                          (String.concat ", " (List.map subst (Trahrhe.Nest.level_vars nest)))) ])));
        0
      with Failure e ->
        prerr_endline e;
        1))

let emit_cmd =
  let scheme =
    Arg.(
      value
      & opt scheme_conv Cfront.Transform.Per_thread
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"naive | per-thread | chunked:N | simd:N.")
  in

  Cmd.v
    (Cmd.info "emit"
       ~doc:"Print the collapsed OpenMP C skeleton for a kernel or the first construct of a file.")
    Term.(const emit_run $ file_arg $ kernel_arg $ scheme $ paper_arg)

(* ---- batch ---- *)

let batch_run file workers trace stats =
  with_obsv ~trace ~stats @@ fun () ->
  if workers <= 0 then begin
    prerr_endline "--workers needs a positive integer";
    exit 1
  end;
  let ic = if file = "-" then stdin else open_in file in
  Fun.protect
    ~finally:(fun () -> if ic != stdin then close_in_noerr ic)
    (fun () -> Service.Server.run_batch ~workers ic stdout)

let batch_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Request file, one request per line ($(b,-) reads stdin).")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers"; "j" ] ~docv:"W"
          ~doc:
            "Concurrent admission slots: at most $(docv) requests are in flight at once; the \
             rest queue (backpressure).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Serve a file of compile/exec requests through the plan cache and print one JSON \
          response line per request (deterministic; the cache hit/miss summary goes to stderr). \
          Set OMPSIM_PLAN_CACHE=DIR to persist compiled plans across runs.")
    Term.(const batch_run $ file $ workers $ trace_arg $ stats_arg)

(* ---- serve ---- *)

let serve_run socket max_clients request_timeout_ms max_inflight_per_client rate_limit rate_burst
    trace stats =
  (* serve converts SIGINT/SIGTERM into a graceful drain and a normal
     return, so the obsv teardown in with_obsv flushes on ^C too, not
     just on shutdown *)
  with_obsv ~trace ~stats @@ fun () ->
  if max_clients <= 0 then begin
    prerr_endline "--max-clients needs a positive integer";
    exit 1
  end;
  (match request_timeout_ms with
  | Some ms when ms < 0 ->
    prerr_endline "--request-timeout-ms needs a non-negative integer";
    exit 1
  | _ -> ());
  if max_inflight_per_client <= 0 then begin
    prerr_endline "--max-inflight-per-client needs a positive integer";
    exit 1
  end;
  (match rate_limit with
  | Some r when r <= 0. ->
    prerr_endline "--rate-limit needs a positive number of requests per second";
    exit 1
  | _ -> ());
  if rate_burst <= 0 then begin
    prerr_endline "--rate-burst needs a positive integer";
    exit 1
  end;
  let config =
    { Service.Server.default_serve_config with
      max_clients;
      request_timeout_ms;
      max_inflight_per_client;
      rate_limit;
      rate_burst }
  in
  match Service.Server.serve ~config ~socket () with
  | Ok stats ->
    if stats.Service.Server.dropped > 0 then
      Printf.eprintf "serve: %d response(s)/request(s) dropped at drain deadline\n%!"
        stats.Service.Server.dropped;
    0
  | Error e ->
    prerr_endline e;
    1

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path to listen on.")
  in
  let max_clients =
    Arg.(
      value
      & opt int Service.Server.default_serve_config.Service.Server.max_clients
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Connections multiplexed at once; the listen backlog is derived from this, so a \
             connect burst up to $(docv) queues instead of being refused.")
  in
  let request_timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "request-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request execution deadline: an exec whose compile, serial reference and runs \
             exceed $(docv) milliseconds answers with a deterministic error response instead of \
             running to completion.")
  in
  let max_inflight_per_client =
    Arg.(
      value
      & opt int Service.Server.default_serve_config.Service.Server.max_inflight_per_client
      & info [ "max-inflight-per-client" ] ~docv:"N"
          ~doc:
            "Per-connection admission cap: one pipelining client holds at most $(docv) of the \
             global in-flight slots; at the cap its socket simply stops being read \
             (backpressure), so a flood cannot starve other clients.")
  in
  let rate_limit =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate-limit" ] ~docv:"RPS"
          ~doc:
            "Per-connection request rate limit (token bucket, $(b,--rate-burst) capacity). \
             Over-rate requests get a deterministic $(i,rejected:overload) error response; \
             $(b,health) and $(b,shutdown) are exempt. Unlimited when absent.")
  in
  let rate_burst =
    Arg.(
      value
      & opt int Service.Server.default_serve_config.Service.Server.rate_burst
      & info [ "rate-burst" ] ~docv:"N"
          ~doc:
            "Token-bucket capacity for $(b,--rate-limit): the burst a quiet connection may send \
             before pacing applies.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Listen on a Unix domain socket and multiplex compile/exec requests from many clients \
          over one event loop (same line protocol as $(b,batch)) until a client sends \
          $(b,shutdown) or the process receives SIGINT/SIGTERM; both exits drain gracefully — \
          in-flight responses flush before the socket disappears — and cache/native accounting \
          goes to stderr.")
    Term.(
      const serve_run $ socket $ max_clients $ request_timeout_ms $ max_inflight_per_client
      $ rate_limit $ rate_burst $ trace_arg $ stats_arg)

(* ---- kernels ---- *)

let kernels_run () =
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      Printf.printf "%-18s %-16s collapse %d/%d  %s\n" k.name k.family k.collapsed k.total_loops
        k.description)
    Kernels.Registry.kernels;
  0

let kernels_cmd =
  Cmd.v
    (Cmd.info "kernels" ~doc:"List the built-in benchmark kernels.")
    Term.(const kernels_run $ const ())

let main =
  Cmd.group
    (Cmd.info "trahrhe" ~version:"1.0.0"
       ~doc:"Automatic collapsing of non-rectangular OpenMP loops (IPDPS'17 reproduction).")
    [ info_cmd;
      collapse_cmd;
      validate_cmd;
      simulate_cmd;
      exec_cmd;
      batch_cmd;
      serve_cmd;
      emit_cmd;
      kernels_cmd
    ]

let () = exit (Cmd.eval' main)
