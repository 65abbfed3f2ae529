(* Figure-regeneration harness (paper §4) + Bechamel microbenchmarks.

   Usage:
     dune exec bench/main.exe              regenerate every figure + micro
     dune exec bench/main.exe fig3 fig6    selected figures only
     dune exec bench/main.exe micro        microbenchmarks only

   REPRO_BENCH_FULL=1 raises all search budgets (closer to the paper's
   one-hour-per-search desktop setting) and enables the MILP phase for the
   large POP models. See EXPERIMENTS.md for paper-vs-measured notes. *)

let all : (string * (unit -> unit)) list =
  [
    ("fig1", Fig1.run);
    ("fig2", Fig2.run);
    ("fig3", Fig3.run);
    ("fig4a", Fig4.run_a);
    ("fig4b", Fig4.run_b);
    ("fig4", Fig4.run);
    ("fig5a", Fig5.run_a);
    ("fig5b", Fig5.run_b);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("lp", Lp.run);
    ("ablations", Ablations.run);
    ("micro", Micro.run);
    ("engine", Engine_perf.run);
    ("serve", Serve.run);
    ("sweep", Sweep.run);
    ("resilience", Resilience.run);
  ]

let default =
  [
    "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "lp"; "ablations"; "micro";
    "engine"; "serve"; "sweep"; "resilience";
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> default
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "Reproduction harness: 'Minding the gap between fast heuristics and \
     their optimal counterparts' (HotNets '22)\n\
     mode: %s\n%!"
    (if Common.full_mode then "FULL (REPRO_BENCH_FULL=1)" else "fast");
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some run ->
          let t = Unix.gettimeofday () in
          run ();
          Common.note_timing name (Unix.gettimeofday () -. t)
      | None ->
          Printf.eprintf "unknown target %S; available: %s\n%!" name
            (String.concat ", " (List.map fst all));
          exit 1)
    requested;
  Common.write_bench_json "BENCH_engine.json";
  Printf.printf "\ntotal harness time: %.1fs\n%!" (Unix.gettimeofday () -. t0)
