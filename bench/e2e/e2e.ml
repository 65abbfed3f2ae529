(* End-to-end benchmark of the gap finder: four seeded workloads over
   find-gap, proof, sweep and the daemon, each checked for correct
   answers, with a separate traced run for the per-layer numbers.

     e2e.exe all [--seed S] [--seconds N] [-o FILE] [--tiny] [--cli PATH]
       every workload, each in its own child process
     e2e.exe run W [--seed S] [--seconds N] [--trace FILE] [-o FILE]
                   [--tiny] [--cli PATH]
       one workload; with --trace, also the traced run: Chrome
       trace-event JSON to FILE and per-layer metrics in the result
     e2e.exe bench --workload W --seed S --seconds N --trace 0|1 [--cli PATH]
       one workload, machine-readable: a summary on stderr and, as
       the last line of stdout, one JSON object with the end-to-end
       (--trace 0) or per-layer (--trace 1) metrics
     e2e.exe compare [--bench BENCHMARK.json] BASE.json... -- CHANGE.json...
       judge two sets of result files (see Compare)

   --cli names the built metaopt CLI the daemon workload starts (default
   _build/default/bin/metaopt_cli.exe). --tiny is the ~1/20-size smoke
   profile: every correctness gate, minimum reps, no timing claims.
   Every command exits 1 when any answer was wrong. *)

let workloads =
  [
    ("findgap-dp", Search.findgap);
    ("prove-small", Search.prove);
    ("sweep-grid", Sweep_grid.run);
    ("daemon-mixed", Daemon_mixed.run);
  ]

(* Seconds a run measures by default; BENCHMARK.json's run_seconds,
   which [compare] checks. A traced run splits them between its
   untraced and traced reps. *)
let default_seconds = 20.
let default_cli = "_build/default/bin/metaopt_cli.exe"
let work_root = ".e2e-tmp"

let usage () =
  prerr_endline
    "usage: e2e.exe all|run W|bench|compare ... (see bench/e2e/README.md)";
  exit 2

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let make_work_dir name =
  (try Unix.mkdir work_root 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat work_root name in
  Unix.mkdir dir 0o755;
  dir

let drop_work_dir dir =
  rm_rf dir;
  try Unix.rmdir work_root with Unix.Unix_error _ -> ()

let run_workload ~name ~seed ~seconds ~tiny ~traced ~cli =
  let f =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" name
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let tmp = make_work_dir (string_of_int (Unix.getpid ())) in
  let trace = if traced then Some (Measure.Trace.create ()) else None in
  let seconds = if tiny then 0. else seconds in
  let phase_seconds = if traced then seconds /. 2. else seconds in
  let ctx = { Ctx.seed; seconds = phase_seconds; tiny; trace; cli; tmp } in
  let r = Report.create ~workload:name ~seed ~seconds ~tiny ~traced in
  let calib0 = Measure.calib_ms () in
  Fun.protect
    ~finally:(fun () -> drop_work_dir tmp)
    (fun () ->
      try f ctx r with e -> Report.fail r ("aborted: " ^ Printexc.to_string e));
  let calib1 = Measure.calib_ms () in
  if not (List.mem_assoc "peak_rss_mb" r.Report.e2e) then
    Report.e2e r [ ("peak_rss_mb", Measure.peak_rss_mb "self") ];
  Report.layers r [ ("host.calib_ms", (calib0 +. calib1) /. 2.) ];
  Report.notes r [ ("calib_ms_before", calib0); ("calib_ms_after", calib1) ];
  Report.check_finite r (if traced then r.Report.layers else r.Report.e2e);
  (r, trace)

let print_summary oc (r : Report.t) =
  Printf.fprintf oc "%s (seed %d, %gs%s): %s, %d ops, %d failed\n"
    r.Report.workload r.Report.seed r.Report.seconds
    (if r.Report.tiny then ", tiny" else "")
    (if Report.correct r then "correct" else "WRONG ANSWERS")
    r.Report.attempted r.Report.failed;
  let show (name, v) =
    Printf.fprintf oc "  %-30s %14.6g %s\n" name v (Report.unit_of name)
  in
  List.iter show r.Report.e2e;
  List.iter show r.Report.notes;
  List.iter show r.Report.counters;
  if r.Report.traced then List.iter show r.Report.layers;
  flush oc

let write_json path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Repro_serve.Json.to_string json);
      output_char oc '\n')

(* ---- argument parsing ----------------------------------------------- *)

let flags_with_value =
  [ "--seed"; "--seconds"; "--trace"; "-o"; "--cli"; "--bench"; "--workload" ]

(* Positional arguments and [(flag, value)] options; "--tiny" is the
   only switch. *)
let parse args =
  let rec go pos opts = function
    | [] -> (List.rev pos, opts)
    | "--tiny" :: rest -> go pos (("--tiny", "") :: opts) rest
    | f :: v :: rest when List.mem f flags_with_value ->
        go pos ((f, v) :: opts) rest
    | f :: _ when String.length f > 1 && f.[0] = '-' ->
        Printf.eprintf "unknown or incomplete option %s\n" f;
        usage ()
    | p :: rest -> go (p :: pos) opts rest
  in
  go [] [] args

let opt opts f conv default =
  match List.assoc_opt f opts with
  | None -> default
  | Some v -> (
      match conv v with
      | Some x -> x
      | None ->
          Printf.eprintf "bad value %S for %s\n" v f;
          exit 2)

let common opts =
  ( opt opts "--seed" int_of_string_opt 1,
    opt opts "--seconds" float_of_string_opt default_seconds,
    List.mem_assoc "--tiny" opts,
    opt opts "--cli" Option.some default_cli )

let exit_for r = if Report.correct r then 0 else 1

let cmd_run name opts =
  let seed, seconds, tiny, cli = common opts in
  let trace_file = List.assoc_opt "--trace" opts in
  let r, trace =
    run_workload ~name ~seed ~seconds ~tiny ~traced:(trace_file <> None) ~cli
  in
  (match (trace, trace_file) with
  | Some t, Some path -> Measure.Trace.write t path
  | _ -> ());
  Option.iter
    (fun path -> write_json path (Report.to_json r))
    (List.assoc_opt "-o" opts);
  print_summary stdout r;
  exit_for r

let cmd_bench opts =
  let seed, seconds, tiny, cli = common opts in
  let name = opt opts "--workload" Option.some "" in
  let traced =
    opt opts "--trace"
      (function "0" -> Some false | "1" -> Some true | _ -> None)
      false
  in
  let r, _ = run_workload ~name ~seed ~seconds ~tiny ~traced ~cli in
  print_summary stderr r;
  print_endline (Report.result_line r);
  exit_for r

(* Each workload in its own child process ([run W -o FILE]), so peak
   memory and GC state are the workload's own. *)
let cmd_all opts =
  let seed, seconds, tiny, cli = common opts in
  let dir = make_work_dir ("all-" ^ string_of_int (Unix.getpid ())) in
  let records, ok =
    Fun.protect
      ~finally:(fun () -> drop_work_dir dir)
      (fun () ->
        List.fold_left
          (fun (records, ok) (name, _) ->
            let file = Filename.concat dir (name ^ ".json") in
            let args =
              [ Sys.executable_name; "run"; name; "--seed"; string_of_int seed ]
              @ [ "--seconds"; Printf.sprintf "%g" seconds; "--cli"; cli ]
              @ [ "-o"; file ]
              @ if tiny then [ "--tiny" ] else []
            in
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list args)
                Unix.stdin Unix.stdout Unix.stderr
            in
            let status = snd (Unix.waitpid [] pid) in
            match Compare.read_json file with
            | j -> (records @ [ j ], ok && status = Unix.WEXITED 0)
            | exception _ ->
                Printf.eprintf "e2e all: %s produced no result\n%!" name;
                (records, false))
          ([], true) workloads)
  in
  Option.iter
    (fun path -> write_json path (Repro_serve.Json.List records))
    (List.assoc_opt "-o" opts);
  if ok then 0 else 1

let cmd_compare args =
  let rec split before = function
    | "--" :: after -> (List.rev before, after)
    | a :: rest -> split (a :: before) rest
    | [] -> usage ()
  in
  let before, change = split [] args in
  let base, opts = parse before in
  if base = [] || change = [] then usage ();
  Compare.run ~workloads:(List.map fst workloads) ~run_seconds:default_seconds
    ~bench:(opt opts "--bench" Option.some "BENCHMARK.json")
    base change

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "compare" :: rest -> cmd_compare rest
    | cmd :: rest -> (
        match (cmd, parse rest) with
        | "all", ([], opts) -> cmd_all opts
        | "run", ([ name ], opts) -> cmd_run name opts
        | "bench", ([], opts) -> cmd_bench opts
        | _ -> usage ())
    | [] -> usage ()
  in
  exit code
