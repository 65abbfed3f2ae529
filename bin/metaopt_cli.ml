(* repro-metaopt: command-line front end for the reproduction.

   Subcommands:
     topology   inspect a built-in topology
     evaluate   run OPT and a heuristic on a generated demand matrix
     find-gap   search for adversarial inputs (white-box or black-box)

   Examples:
     repro-metaopt topology b4
     repro-metaopt evaluate -t abilene -H dp --threshold-frac 0.05 --seed 3
     repro-metaopt find-gap -t b4 -H dp -m whitebox --time 30
     repro-metaopt find-gap -t b4 -H pop --parts 3 -m annealing --time 20 *)

open Cmdliner
module Follower = Repro_follower

let topology_conv =
  let parse s =
    match Topologies.by_name s with
    | Some g -> Ok g
    | None -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print ppf g = Fmt.string ppf (Graph.name g) in
  Arg.conv (parse, print)

let topology_arg =
  let doc =
    "Topology: fig1, b4, abilene, swan, circle-N-K, line-N, star-N, grid-RxC."
  in
  Arg.(
    value
    & opt topology_conv (Topologies.b4 ())
    & info [ "t"; "topology" ] ~docv:"NAME" ~doc)

let paths_arg =
  let doc = "Paths per node pair (the paper's default is 2)." in
  Arg.(value & opt int 2 & info [ "paths" ] ~docv:"K" ~doc)

let seed_arg =
  let doc = "Random seed (partitions, demand generators, black-box search)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

type heuristic_kind = Dp | Pop_h

let heuristic_arg =
  let doc = "Heuristic: 'dp' (demand pinning) or 'pop'." in
  Arg.(
    value
    & opt (enum [ ("dp", Dp); ("pop", Pop_h) ]) Dp
    & info [ "H"; "heuristic" ] ~docv:"NAME" ~doc)

let threshold_frac_arg =
  let doc = "DP pinning threshold as a fraction of link capacity." in
  Arg.(value & opt float 0.05 & info [ "threshold-frac" ] ~docv:"F" ~doc)

let parts_arg =
  let doc = "POP partition count." in
  Arg.(value & opt int 2 & info [ "parts" ] ~docv:"N" ~doc)

let instances_arg =
  let doc = "POP random partition instances averaged by the adversary." in
  Arg.(value & opt int 5 & info [ "instances" ] ~docv:"R" ~doc)

let lp_backend_arg =
  let doc =
    "LP engine backend: 'sparse' (revised simplex with a factorized basis \
     inverse; default) or 'dense' (reference tableau). Also settable via \
     \\$(b,REPRO_LP_BACKEND)."
  in
  let backend_conv =
    let parse s =
      match Backend.kind_of_string s with
      | Some k -> Ok k
      | None -> Error (`Msg (Printf.sprintf "unknown LP backend %S" s))
    in
    let print ppf k = Fmt.string ppf (Backend.kind_to_string k) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt backend_conv (Backend.default ())
    & info [ "lp-backend" ] ~docv:"BACKEND" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel engine (default: \\$(b,REPRO_JOBS) or \
     1). The MILP branch-and-bound runs the same plunging tree search at \
     every N; with N = 1 it runs on the calling domain and is \
     deterministic. With N > 1, oracle scoring fans out over a domain \
     pool (bit-identical results), the tree is searched by N \
     work-stealing workers (same outcome and objective within the gap \
     tolerance; node order may differ)."
  in
  Arg.(
    value
    & opt int (Repro_engine.Jobs.default ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let make_evaluator g ~paths ~heuristic ~threshold_frac ~parts ~instances ~seed =
  let pathset = Pathset.compute (Demand.full_space g) ~k:paths in
  match heuristic with
  | Dp ->
      Evaluate.make_dp pathset
        ~threshold:(threshold_frac *. Graph.max_capacity g)
  | Pop_h ->
      Evaluate.make_pop pathset ~parts ~instances ~rng:(Rng.create seed) ()

(* ------------------------------------------------------------------ *)
(* topology                                                            *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let run g paths =
    Fmt.pr "%a@." Graph.pp g;
    Fmt.pr "average shortest path length: %.2f hops@."
      (Topologies.average_shortest_path_length g);
    let pathset = Pathset.compute (Demand.full_space g) ~k:paths in
    let routable = ref 0 in
    for k = 0 to Pathset.num_pairs pathset - 1 do
      if Pathset.routable pathset k then incr routable
    done;
    Fmt.pr "%d of %d ordered pairs routable with %d paths each@." !routable
      (Pathset.num_pairs pathset) paths;
    Graph.fold_edges
      (fun e () ->
        Fmt.pr "  edge %2d: %2d -> %2d  capacity %g weight %g@." e
          (Graph.edge_src g e) (Graph.edge_dst g e) (Graph.capacity g e)
          (Graph.weight g e))
      g ()
  in
  let term = Term.(const run $ topology_arg $ paths_arg) in
  Cmd.v (Cmd.info "topology" ~doc:"Describe a built-in topology") term

(* ------------------------------------------------------------------ *)
(* evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let demand_gen_arg =
  let doc = "Demand generator: uniform, gravity or bimodal." in
  Arg.(
    value
    & opt (enum [ ("uniform", `Uniform); ("gravity", `Gravity); ("bimodal", `Bimodal) ]) `Gravity
    & info [ "demands" ] ~docv:"GEN" ~doc)

let demands_file_arg =
  let doc = "Read the demand matrix from a src,dst,volume CSV instead of generating one." in
  Arg.(value & opt (some file) None & info [ "demands-file" ] ~docv:"FILE" ~doc)

(* Run [f] with a worker pool when [jobs] > 1, fully serial otherwise. *)
let with_jobs jobs f =
  let jobs = Repro_engine.Jobs.clamp jobs in
  if jobs > 1 then
    Repro_engine.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))
  else f None

let evaluate_cmd =
  let run g paths heuristic threshold_frac parts instances seed gen file jobs
      lp_backend =
    Backend.set_default lp_backend;
    let ev =
      make_evaluator g ~paths ~heuristic ~threshold_frac ~parts ~instances
        ~seed
    in
    let space = Pathset.space ev.Evaluate.pathset in
    let rng = Rng.create (seed + 1) in
    let demand =
      match file with
      | Some path -> (
          match Demand.load_csv space path with
          | Ok d -> d
          | Error e ->
              Fmt.epr "cannot load %s: %s@." path e;
              exit 1)
      | None -> (
          match gen with
          | `Uniform ->
              Demand.uniform space ~rng ~max:(0.5 *. Graph.max_capacity g)
          | `Gravity ->
              Demand.gravity space ~rng ~total:(0.5 *. Graph.total_capacity g)
          | `Bimodal ->
              Demand.bimodal space ~rng ~fraction_large:0.2
                ~small_max:(0.1 *. Graph.max_capacity g)
                ~large_max:(Graph.max_capacity g))
    in
    with_jobs jobs (fun pool ->
        let ev = Evaluate.with_pool ev pool in
        let opt = Evaluate.opt_value ev demand in
        Fmt.pr "demand total %.1f over %d pairs@." (Demand.total demand)
          (Demand.size space);
        Fmt.pr "OPT        : %.1f@." opt;
        match Evaluate.heuristic_value ev demand with
        | Some h ->
            Fmt.pr "heuristic  : %.1f@." h;
            Fmt.pr "gap        : %.1f  (gap/capacity %.4f)@." (opt -. h)
              ((opt -. h) /. Graph.total_capacity g)
        | None ->
            Fmt.pr "heuristic  : INFEASIBLE on this input (pinning overload)@.")
  in
  let term =
    Term.(
      const run $ topology_arg $ paths_arg $ heuristic_arg $ threshold_frac_arg
      $ parts_arg $ instances_arg $ seed_arg $ demand_gen_arg
      $ demands_file_arg $ jobs_arg $ lp_backend_arg)
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Evaluate OPT vs a heuristic on one demand matrix")
    term

(* ------------------------------------------------------------------ *)
(* find-gap                                                            *)
(* ------------------------------------------------------------------ *)

let method_arg =
  let doc =
    "Search method: whitebox (probing, then one branch-and-bound tree \
     whose bound is reported), or the black-box baselines hillclimb and \
     annealing."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("whitebox", `Whitebox); ("hillclimb", `Hillclimb);
             ("annealing", `Annealing) ])
        `Whitebox
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let time_arg =
  let doc = "Time budget in seconds." in
  Arg.(value & opt float 30. & info [ "time" ] ~docv:"SECONDS" ~doc)

let no_milp_arg =
  let doc =
    "Skip the branch-and-bound phase of the white-box search (probe-only; \
     faster on large POP models, but no optimality bound)."
  in
  Arg.(value & flag & info [ "no-milp" ] ~doc)

let show_demands_arg =
  let doc = "Print the adversarial demand matrix." in
  Arg.(value & flag & info [ "show-demands" ] ~doc)

let out_arg =
  let doc = "Write the adversarial demand matrix to a CSV file." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let verbose_arg =
  let doc = "Log solver progress (incumbents, nodes) to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let deadline_arg =
  let doc =
    "Hard wall-clock budget in seconds, enforced cooperatively inside the \
     solver (simplex pivots, branch-and-bound nodes). Unlike --time, which \
     shapes how the search spends its run, the deadline stops it: past it \
     the command fails with exit code 4 unless --degrade is given."
  in
  Arg.(
    value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let degrade_arg =
  let doc =
    "With --deadline: accept a best-so-far answer (reported as degraded, \
     with its proven bound) instead of failing when the deadline trips."
  in
  Arg.(value & flag & info [ "degrade" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let family_arg =
  let doc =
    "Heuristic family: 'dp' and 'pop' alias the TE path (-H); 'binpack' \
     runs the vector bin-packing FFD-vs-OPT gap search (--items, --dims)."
  in
  Arg.(value & opt (some string) None & info [ "family" ] ~docv:"NAME" ~doc)

let items_arg =
  let doc = "Bin-packing items per instance (--family binpack)." in
  Arg.(value & opt int 6 & info [ "items" ] ~docv:"N" ~doc)

let dims_arg =
  let doc = "Bin-packing size dimensions (--family binpack)." in
  Arg.(value & opt int 1 & info [ "dims" ] ~docv:"D" ~doc)

(* the non-TE gap search: adversarial FFD-vs-OPT bin packing through the
   follower IR's white-box MILP (probes refine into the exact encoding) *)
let run_binpack ~items ~dims ~seed ~time ~no_milp ~verbose =
  setup_logs verbose;
  let cfg = Follower.Binpack.config ~items ~dims () in
  let options =
    {
      Follower.Binpack.default_options with
      run_milp = not no_milp;
      time_limit = time;
      seed;
    }
  in
  let r = Follower.Binpack.find_gap ~options cfg in
  Fmt.pr "family        : binpack (%d items, %d dims, capacity %g)@." items
    dims cfg.Follower.Binpack.capacity;
  Fmt.pr "max gap found : %d bins (FFD %d vs OPT %d)@." r.Follower.Binpack.gap
    r.Follower.Binpack.ffd_bins r.Follower.Binpack.opt_bins;
  (if Float.is_finite r.Follower.Binpack.bound then
     Fmt.pr "proven bound  : %.1f@." r.Follower.Binpack.bound
   else Fmt.pr "proven bound  : (none - probe-only mode)@.");
  Fmt.pr "winning probe : %s@." r.Follower.Binpack.probe;
  Fmt.pr
    "search        : %d oracle calls%s, %d MILP nodes, %.2fs@."
    r.Follower.Binpack.oracle_calls
    (if r.Follower.Binpack.oracle_closed then "" else " (some OPT unproven)")
    r.Follower.Binpack.milp_nodes r.Follower.Binpack.elapsed;
  if verbose then begin
    Fmt.pr "instance sizes:@.";
    let a = r.Follower.Binpack.instance in
    for i = 0 to items - 1 do
      Fmt.pr "  item %d:" i;
      for d = 0 to dims - 1 do
        Fmt.pr " %.4f" (Follower.Binpack.size cfg a ~item:i ~dim:d)
      done;
      Fmt.pr "@."
    done
  end;
  if r.Follower.Binpack.gap <= 0 then exit 2

let find_gap_cmd =
  let run g paths heuristic threshold_frac parts instances seed method_ time
      no_milp show_demands out verbose jobs lp_backend deadline_s degrade
      family items dims =
    (match family with
    | None -> ()
    | Some "dp" | Some "pop" | Some "binpack" -> ()
    | Some other ->
        Fmt.epr "find-gap: unknown family %S (known: dp, pop, binpack)@."
          other;
        exit 1);
    if family = Some "binpack" then begin
      Backend.set_default lp_backend;
      run_binpack ~items ~dims ~seed ~time ~no_milp ~verbose
    end
    else begin
    let heuristic =
      match family with
      | Some "dp" -> Dp
      | Some "pop" -> Pop_h
      | _ -> heuristic
    in
    setup_logs verbose;
    Backend.set_default lp_backend;
    if degrade && deadline_s = None then begin
      Fmt.epr "find-gap: --degrade requires --deadline@.";
      exit 1
    end;
    let deadline =
      Option.map
        (fun wall -> Repro_resilience.Deadline.create ~wall ())
        deadline_s
    in
    (* with a deadline the search budget shrinks to it, so --time beyond
       the deadline doesn't just burn budget the solver will lose anyway *)
    let time =
      match deadline_s with Some d -> Float.min time d | None -> time
    in
    (* the deadline verdict: with --degrade a tripped budget is reported
       and accepted; without, it is a typed failure (exit 4) *)
    let finish_deadline () =
      match Option.bind deadline Repro_resilience.Deadline.tripped with
      | None -> ()
      | Some trip ->
          if degrade then
            Fmt.pr "degraded      : yes (deadline tripped: %s)@."
              (Repro_resilience.Deadline.trip_to_string trip)
          else begin
            Fmt.epr "find-gap: deadline exceeded (%s); best-so-far shown \
                     above — pass --degrade to accept it@."
              (Repro_resilience.Deadline.trip_to_string trip);
            exit 4
          end
    in
    let ev =
      make_evaluator g ~paths ~heuristic ~threshold_frac ~parts ~instances
        ~seed
    in
    let space = Pathset.space ev.Evaluate.pathset in
    let report ~gap ~normalized ~trace ~extra demands =
      Fmt.pr "max gap found : %.1f@." gap;
      Fmt.pr "gap/capacity  : %.4f@." normalized;
      extra ();
      Fmt.pr "progress trace:@.";
      List.iter (fun (t, v) -> Fmt.pr "  %7.2fs  %.1f@." t v) trace;
      if show_demands then begin
        Fmt.pr "adversarial demands:@.";
        Fmt.pr "%a@." (Demand.pp space) demands
      end;
      match out with
      | Some path ->
          Demand.save_csv space demands path;
          Fmt.pr "demands written to %s@." path
      | None -> ()
    in
    match method_ with
    | `Whitebox ->
        let options =
          {
            Adversary.default_options with
            run_milp = not no_milp;
            jobs;
            bb =
              {
                Branch_bound.default_options with
                time_limit = time;
                stall_time = Float.max 2. (time /. 4.);
                log_progress = verbose;
                deadline;
              };
          }
        in
        let r = Adversary.find ev ~options () in
        report ~gap:r.Adversary.gap ~normalized:r.Adversary.normalized_gap
          ~trace:r.Adversary.trace
          ~extra:(fun () ->
            (match r.Adversary.upper_bound with
            | Some ub -> Fmt.pr "proven bound  : %.1f@." ub
            | None -> Fmt.pr "proven bound  : (none - probe-only mode)@.");
            Fmt.pr
              "model         : %d vars, %d linear constraints, %d SOS1; %d \
               nodes, %d oracle calls@."
              r.Adversary.stats.Adversary.model_vars
              r.Adversary.stats.Adversary.model_constrs
              r.Adversary.stats.Adversary.model_sos1
              r.Adversary.stats.Adversary.nodes
              r.Adversary.stats.Adversary.oracle_calls;
            if verbose then begin
              Fmt.pr "lp engine     : %s backend, %a@."
                (Backend.kind_to_string lp_backend)
                Simplex.pp_stats r.Adversary.stats.Adversary.lp_stats;
              Fmt.pr "tree search   : %a@." Branch_bound.pp_tree_stats
                r.Adversary.stats.Adversary.tree
            end)
          r.Adversary.demands;
        finish_deadline ()
    | `Hillclimb | `Annealing ->
        let rng = Rng.create seed in
        let r =
          with_jobs jobs (fun pool ->
              let options =
                {
                  Blackbox.default_options with
                  time_limit = time;
                  pool;
                  batch = (match pool with None -> 1 | Some _ -> jobs);
                }
              in
              match method_ with
              | `Hillclimb -> Blackbox.hill_climb ev ~rng ~options ()
              | _ -> Blackbox.simulated_annealing ev ~rng ~options ())
        in
        report ~gap:r.Blackbox.gap ~normalized:r.Blackbox.normalized_gap
          ~trace:r.Blackbox.trace
          ~extra:(fun () ->
            Fmt.pr "evaluations   : %d (%d restarts)@." r.Blackbox.evaluations
              r.Blackbox.restarts)
          r.Blackbox.demands;
        finish_deadline ()
    end
  in
  let term =
    Term.(
      const run $ topology_arg $ paths_arg $ heuristic_arg $ threshold_frac_arg
      $ parts_arg $ instances_arg $ seed_arg $ method_arg $ time_arg
      $ no_milp_arg $ show_demands_arg $ out_arg $ verbose_arg $ jobs_arg
      $ lp_backend_arg $ deadline_arg $ degrade_arg $ family_arg
      $ items_arg $ dims_arg)
  in
  Cmd.v
    (Cmd.info "find-gap"
       ~doc:"Search for inputs maximizing the heuristic's optimality gap")
    term

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

module Sweep = Repro_sweep.Scenario_sweep
module Sweep_plan = Repro_sweep.Plan

let sweep_cmd =
  let run g paths thresholds_frac scales num_seeds seed gen jobs chunk
      lp_backend rebuild batch_rhs basis_cache cache_mb out perturb_fraction
      perturb_level perturb_variants deadline_s degrade verbose =
    setup_logs verbose;
    Backend.set_default lp_backend;
    if degrade && deadline_s = None then begin
      Fmt.epr "sweep: --degrade requires --deadline@.";
      exit 1
    end;
    if num_seeds <= 0 then begin
      Fmt.epr "sweep: --num-seeds must be positive@.";
      exit 1
    end;
    let pathset = Pathset.compute (Demand.full_space g) ~k:paths in
    let space = Pathset.space pathset in
    let maxcap = Graph.max_capacity g in
    let thresholds =
      Array.of_list (List.map (fun f -> f *. maxcap) thresholds_frac)
    in
    let generator =
      match gen with
      | `Uniform -> Sweep_plan.Uniform { max = 0.5 *. maxcap }
      | `Gravity -> Sweep_plan.Gravity { total = 0.5 *. Graph.total_capacity g }
    in
    let perturbs =
      if perturb_fraction <= 0. then [| None |]
      else
        Array.init (Int.max 1 perturb_variants) (fun i ->
            Some
              {
                Sweep_plan.pseed = i;
                fraction = perturb_fraction;
                level = perturb_level;
              })
    in
    let plan =
      Sweep_plan.grid ~space ~generator ~thresholds
        ~scales:(Array.of_list scales)
        ~seeds:(Array.init num_seeds (fun i -> seed + i))
        ~perturbs ()
    in
    let cache =
      if cache_mb <= 0 then None
      else
        Some
          (Repro_serve.Solve_cache.create
             ~max_bytes:(cache_mb * 1024 * 1024)
             ())
    in
    let deadline =
      Option.map
        (fun wall -> Repro_resilience.Deadline.create ~wall ())
        deadline_s
    in
    let basis_store =
      match basis_cache with
      | None -> None
      | Some path ->
          let bs = Repro_serve.Basis_store.create () in
          (match Repro_serve.Basis_store.with_journal bs ~path with
          | Ok _ -> ()
          | Error e ->
              Fmt.epr "sweep: basis cache %s: %s@." path e;
              exit 1);
          Some bs
    in
    let options =
      {
        Sweep.jobs = Repro_engine.Jobs.clamp jobs;
        chunk;
        backend = Some lp_backend;
        mode = (if rebuild then Sweep.Rebuild else Sweep.Shared_basis);
        deadline;
        cache;
        jsonl = out;
        batch_rhs;
        basis_store;
      }
    in
    let r = Sweep.run ~options ~paths pathset plan in
    Option.iter Repro_serve.Basis_store.close basis_store;
    Fmt.pr "topology      : %s (%d pairs, %d paths/pair)@." (Graph.name g)
      (Pathset.num_pairs pathset) paths;
    Fmt.pr
      "scenarios     : %d total, %d completed (%d from cache), %d skipped \
       (%d chunks)@."
      (Sweep_plan.num_scenarios plan)
      r.Sweep.completed r.Sweep.from_cache r.Sweep.skipped r.Sweep.chunks;
    Fmt.pr "mode          : %s%s, %s backend, %d jobs@."
      (if rebuild then "rebuild-per-scenario" else "shared-basis")
      (if batch_rhs && not rebuild then " (batched RHS kernel)" else "")
      (Backend.kind_to_string lp_backend)
      (Repro_engine.Jobs.clamp jobs);
    Fmt.pr "wall          : %.2fs (%.1f scenarios/s)@." r.Sweep.wall_s
      (if r.Sweep.wall_s > 0. then
         float_of_int r.Sweep.completed /. r.Sweep.wall_s
       else 0.);
    if not rebuild then begin
      Fmt.pr "lp engine     : %a@." Simplex.pp_stats r.Sweep.lp_stats;
      if verbose then
        Fmt.pr "lp counters   : %s@."
          (Sweep.verbose_stats_line r.Sweep.lp_stats)
    end;
    let infeasible = ref 0 in
    let best = ref None in
    Array.iter
      (function
        | None -> ()
        | Some sr -> (
            match Sweep.gap sr with
            | None -> incr infeasible
            | Some gv -> (
                match !best with
                | Some (bg, _) when bg >= gv -> ()
                | _ -> best := Some (gv, sr))))
      r.Sweep.results;
    (match !best with
    | Some (gv, sr) ->
        Fmt.pr "max gap       : %.1f (gap/capacity %.4f) at %a@." gv
          (gv /. Graph.total_capacity g)
          Sweep_plan.pp_scenario sr.Sweep.scenario
    | None -> ());
    if !infeasible > 0 then
      Fmt.pr "infeasible    : %d scenario(s) overload their pinned paths@."
        !infeasible;
    (match cache with
    | Some c ->
        let cs = Repro_serve.Solve_cache.stats c in
        Fmt.pr "solve cache   : %d hits, %d misses, %d entries@."
          cs.Repro_serve.Solve_cache.hits cs.Repro_serve.Solve_cache.misses
          cs.Repro_serve.Solve_cache.entries
    | None -> ());
    (match basis_store with
    | Some bs ->
        let bst = Repro_serve.Basis_store.stats bs in
        Fmt.pr
          "basis cache   : %d warm installs, %d store lookups (%d hits), %d \
           snapshots stored@."
          r.Sweep.basis_warm_hits
          (bst.Repro_serve.Basis_store.warm_hits
          + bst.Repro_serve.Basis_store.warm_misses)
          bst.Repro_serve.Basis_store.warm_hits
          bst.Repro_serve.Basis_store.stores
    | None -> ());
    (match out with
    | Some path -> Fmt.pr "results written to %s (JSONL)@." path
    | None -> ());
    match r.Sweep.outcome with
    | `Complete -> ()
    | `Partial reason ->
        Fmt.pr "degraded      : partial sweep (%s); completed results above@."
          (Repro_resilience.Outcome.reason_to_string reason);
        if not degrade then exit 4
  in
  let thresholds_frac_arg =
    let doc =
      "Comma-separated DP pinning thresholds, as fractions of the maximum \
       link capacity; one sweep axis."
    in
    Arg.(
      value
      & opt (list float) [ 0.02; 0.05; 0.1 ]
      & info [ "thresholds-frac" ] ~docv:"F,F,..." ~doc)
  in
  let scales_arg =
    let doc = "Comma-separated demand-scale multipliers; one sweep axis." in
    Arg.(value & opt (list float) [ 1. ] & info [ "scales" ] ~docv:"S,S,..." ~doc)
  in
  let num_seeds_arg =
    let doc =
      "Demand seeds per grid point: seeds seed, seed+1, ..., seed+N-1."
    in
    Arg.(value & opt int 5 & info [ "num-seeds" ] ~docv:"N" ~doc)
  in
  let sweep_gen_arg =
    let doc = "Demand generator: uniform or gravity." in
    Arg.(
      value
      & opt (enum [ ("uniform", `Uniform); ("gravity", `Gravity) ]) `Gravity
      & info [ "demands" ] ~docv:"GEN" ~doc)
  in
  let chunk_arg =
    let doc =
      "Scenarios per work chunk. Fixed independently of --jobs, so results \
       are identical whatever the worker count."
    in
    Arg.(value & opt int 32 & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let rebuild_arg =
    let doc =
      "Rebuild the model per scenario instead of specializing the shared \
       LP skeleton (the slow baseline; for comparison)."
    in
    Arg.(value & flag & info [ "rebuild" ] ~doc)
  in
  let batch_rhs_arg =
    let doc =
      "Answer each chunk's OPT solves with one batched multi-RHS ftran \
       kernel call instead of a scalar re-solve per scenario. Cacheless \
       output is bitwise identical either way."
    in
    Arg.(value & flag & info [ "batch-rhs" ] ~doc)
  in
  let basis_cache_arg =
    let doc =
      "Persist final LP bases to this journal file and warm-start from it: \
       repeated or adjacent sweeps over the same topology skip the \
       from-scratch factorization (the serve daemon reads the same store \
       for its cold queries)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "basis-cache" ] ~docv:"FILE" ~doc)
  in
  let cache_mb_arg =
    let doc =
      "Attach an in-memory content-addressed solve cache of this many MiB \
       (0 = none). Repeated demands — e.g. one matrix probed under many \
       thresholds — then cost one OPT solve."
    in
    Arg.(value & opt int 0 & info [ "cache-mb" ] ~docv:"MIB" ~doc)
  in
  let out_arg =
    let doc =
      "Stream per-scenario results to this JSONL file, flushed chunk by \
       chunk (a killed sweep still leaves finished chunks on disk)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let perturb_fraction_arg =
    let doc =
      "Perturb each scenario's demand: rewrite this fraction of pairs to \
       a volume tied to the pinning threshold (0 = off)."
    in
    Arg.(value & opt float 0. & info [ "perturb-fraction" ] ~docv:"F" ~doc)
  in
  let perturb_level_arg =
    let doc =
      "Perturbed pairs get volume LEVEL * threshold (<= 1 lands at or \
       below the pinning threshold: adversarial pressure on pinned paths)."
    in
    Arg.(value & opt float 1. & info [ "perturb-level" ] ~docv:"LEVEL" ~doc)
  in
  let perturb_variants_arg =
    let doc = "Independent perturbation draws per grid point; one sweep axis." in
    Arg.(value & opt int 1 & info [ "perturb-variants" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Wall-clock budget in seconds for the whole sweep. Past it, remaining \
       scenarios are skipped and the sweep reports a partial result (exit \
       code 4 unless --degrade)."
    in
    Arg.(
      value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let degrade_arg =
    let doc = "With --deadline: accept a partial sweep instead of failing." in
    Arg.(value & flag & info [ "degrade" ] ~doc)
  in
  let term =
    Term.(
      const run $ topology_arg $ paths_arg $ thresholds_frac_arg $ scales_arg
      $ num_seeds_arg $ seed_arg $ sweep_gen_arg $ jobs_arg $ chunk_arg
      $ lp_backend_arg $ rebuild_arg $ batch_rhs_arg $ basis_cache_arg
      $ cache_mb_arg $ out_arg $ perturb_fraction_arg $ perturb_level_arg
      $ perturb_variants_arg $ deadline_arg $ degrade_arg $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Evaluate a grid of scenarios (thresholds x scales x seeds) against \
          one topology in a single batched run, re-solving a shared LP by \
          right-hand-side edits only")
    term

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

module Serve = Repro_serve

let socket_arg =
  let doc = "Unix domain socket path of the gap-query daemon." in
  Arg.(
    value
    & opt string "/tmp/repro-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run socket jobs cache_mb cache_dir persist queue_limit batch_max
      heartbeat_timeout verbose =
    setup_logs verbose;
    let cache_dir =
      match (cache_dir, persist) with
      | (Some _ as d), _ -> d
      | None, true -> Some (Serve.Daemon.default_cache_dir ())
      | None, false -> None
    in
    let config =
      {
        (Serve.Daemon.default_config ~socket_path:socket) with
        Serve.Daemon.jobs;
        cache_mb;
        cache_dir;
        queue_limit;
        batch_max;
        heartbeat_timeout;
      }
    in
    let ready () =
      Fmt.pr "repro-serve: listening on %s (jobs %d, cache %d MiB%s)@." socket
        jobs cache_mb
        (match cache_dir with
        | Some d -> ", journal in " ^ d
        | None -> ", in-memory only")
    in
    match Serve.Daemon.run ~ready config with
    | Ok () -> ()
    | Error e ->
        Fmt.epr "repro-serve: %s@." e;
        exit 1
  in
  let cache_mb_arg =
    let doc = "Result-cache budget in MiB." in
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MIB" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Persist the solve cache as an append-only journal in this directory \
       (replayed on startup)."
    in
    Arg.(
      value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let persist_arg =
    let doc =
      "Persist the solve cache in the default directory \
       (\\$XDG_CACHE_HOME/repro-serve or ~/.cache/repro-serve)."
    in
    Arg.(value & flag & info [ "persist" ] ~doc)
  in
  let queue_limit_arg =
    let doc = "Reject requests with 'overloaded' beyond this queue depth." in
    Arg.(value & opt int 256 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let batch_max_arg =
    let doc = "Max compatible solves admitted as one parallel batch." in
    Arg.(value & opt int 16 & info [ "batch-max" ] ~docv:"N" ~doc)
  in
  let watchdog_arg =
    let doc =
      "Supervise engine-pool workers: a solve silent for this many seconds \
       is failed with a typed error and its domain replaced. Pick a value \
       comfortably above the longest legitimate solve."
    in
    Arg.(
      value & opt (some float) None & info [ "watchdog" ] ~docv:"SECONDS" ~doc)
  in
  let term =
    Term.(
      const run $ socket_arg $ jobs_arg $ cache_mb_arg $ cache_dir_arg
      $ persist_arg $ queue_limit_arg $ batch_max_arg $ watchdog_arg
      $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the gap-query daemon: a Unix-socket service with a \
          content-addressed solve cache and request batching")
    term

let client_cmd =
  let run socket op g paths heuristic threshold_frac parts instances seed
      gen file method_ time deadline degrade retries =
    let heuristic =
      match heuristic with
      | Dp -> Serve.Protocol.Dp { threshold_frac }
      | Pop_h -> Serve.Protocol.Pop { parts; instances; seed }
    in
    let instance =
      { Serve.Protocol.topology = Graph.name g; paths; heuristic }
    in
    let demand () =
      match file with
      | Some path ->
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let csv = really_input_string ic len in
          close_in ic;
          Serve.Protocol.Csv csv
      | None -> Serve.Protocol.Gen { gen; seed = seed + 1 }
    in
    let req =
      match op with
      | `Ping -> Serve.Protocol.Ping
      | `Stats -> Serve.Protocol.Stats
      | `Shutdown -> Serve.Protocol.Shutdown
      | `Evaluate ->
          Serve.Protocol.Evaluate { instance; demand = demand (); deadline }
      | `Find_gap ->
          let method_ =
            match method_ with
            | `Whitebox -> Serve.Protocol.Whitebox
            | `Hillclimb -> Serve.Protocol.Hillclimb
            | `Annealing -> Serve.Protocol.Annealing
          in
          Serve.Protocol.Find_gap
            { instance; method_; time; seed; deadline; degrade }
    in
    let fail e =
      Fmt.epr "repro-metaopt client: %s@." (Serve.Client.error_to_string e);
      exit (Serve.Client.exit_code e)
    in
    let policy = { Repro_resilience.Retry.default_policy with retries } in
    match Serve.Client.connect_retry ~policy ~seed socket with
    | Error e -> fail e
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match
              Serve.Client.request_typed c (Serve.Protocol.request_to_json req)
            with
            | Error e -> fail e
            | Ok response -> (
                print_endline (Serve.Json.to_string_pretty response);
                (* the full reply is already printed; the exit code only
                   classifies it for scripts *)
                match Serve.Json.obj_bool "ok" response with
                | Some true -> ()
                | Some false ->
                    let code =
                      Option.value ~default:"internal"
                        (Option.bind
                           (Serve.Json.member "error" response)
                           (Serve.Json.obj_str "code"))
                    in
                    exit
                      (Serve.Client.exit_code
                         (Serve.Client.App_error { code; message = "" }))
                | None ->
                    exit
                      (Serve.Client.exit_code
                         (Serve.Client.Malformed_reply "no \"ok\" member"))))
  in
  let op_arg =
    let doc = "Operation: ping, stats, evaluate, find-gap or shutdown." in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("ping", `Ping); ("stats", `Stats); ("evaluate", `Evaluate);
                  ("find-gap", `Find_gap); ("shutdown", `Shutdown) ]))
          None
      & info [] ~docv:"OP" ~doc)
  in
  let deadline_arg =
    let doc =
      "Give the daemon at most this many seconds to answer; past it the \
       reply is the typed error 'deadline-exceeded' (exit code 4)."
    in
    Arg.(
      value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let degrade_arg =
    let doc =
      "With --deadline on find-gap: ask for a budget-bounded best-so-far \
       answer (marked \"degraded\":true) instead of a deadline-exceeded \
       error."
    in
    Arg.(value & flag & info [ "degrade" ] ~doc)
  in
  let retries_arg =
    let doc =
      "Retry a refused connection this many times with jittered exponential \
       backoff (daemon still starting or restarting)."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let term =
    Term.(
      const run $ socket_arg $ op_arg $ topology_arg $ paths_arg
      $ heuristic_arg $ threshold_frac_arg $ parts_arg $ instances_arg
      $ seed_arg $ demand_gen_arg $ demands_file_arg $ method_arg $ time_arg
      $ deadline_arg $ degrade_arg $ retries_arg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Query a running gap-query daemon over its Unix socket. Exit \
          codes: 0 success, 1 transport error, 2 application error, 3 connection refused, 4 \
          deadline exceeded, 5 malformed reply.")
    term

let () =
  (* chaos runs arm fault points for any subcommand via REPRO_FAULTS *)
  Repro_resilience.Faults.arm_from_env ();
  let info =
    Cmd.info "repro-metaopt" ~version:"1.0.0"
      ~doc:
        "Find adversarial inputs for TE heuristics (HotNets '22 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ topology_cmd; evaluate_cmd; find_gap_cmd; sweep_cmd; serve_cmd;
            client_cmd ]))
