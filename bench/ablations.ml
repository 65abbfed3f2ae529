(* Ablation benches for the design choices DESIGN.md calls out:

   1. structure-aware probing vs pure MILP search (the substitute for
      Gurobi's built-in primal heuristics);
   2. quantized demand grids (paper section 5, "Scaling"): effect on node
      counts and on the optimum;
   3. merged-OPT rewrite vs the naive double-KKT encoding: root-LP
      latency in addition to the Fig 6 size comparison. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let run_probing () =
  Common.subsection "ablation 1: probing on/off (B4, DP metaopt, same budget)";
  let g = Topologies.b4 () in
  let pathset = Common.pathset_of g ~paths:2 in
  let ev =
    Evaluate.make_dp pathset ~threshold:(Common.threshold_of g ~fraction:0.05)
  in
  let base = Common.dp_whitebox_options () in
  List.iter
    (fun (name, probe_budget) ->
      let r =
        Adversary.find ev
          ~options:{ base with Adversary.probe_budget }
          ()
      in
      Common.row "  %-28s gap %8.1f (gap/cap %.3f) in %.1fs, %d nodes" name
        r.Adversary.gap r.Adversary.normalized_gap
        r.Adversary.stats.Adversary.elapsed r.Adversary.stats.Adversary.nodes)
    [ ("MILP only (no probes)", 0); ("probes + MILP (default)", 600) ];
  Common.row
    "  (without domain probes the MILP relaxation never proposes pinning-\n\
    \   sensitive demands within budget - the role Gurobi's own primal\n\
    \   heuristics play in the paper's setup)"

let run_quantize () =
  Common.subsection
    "ablation 2: quantized demand grid (fig1, exact solves to optimality)";
  let g = Topologies.fig1 () in
  let pathset = Common.pathset_of g ~paths:2 in
  let solve quantize =
    let gp =
      Gap_problem.build pathset
        ~heuristic:(Gap_problem.Dp { threshold = 50. })
        ?quantize ()
    in
    time (fun () ->
        Branch_bound.solve
          ~options:
            {
              Branch_bound.default_options with
              time_limit = 120.;
              stall_time = 120.;
            }
          gp.Gap_problem.model)
  in
  List.iter
    (fun (name, quantize) ->
      let r, t = solve quantize in
      Common.row "  %-22s optimum %6.1f, %5d nodes, %6.2fs (%s)" name
        r.Branch_bound.objective r.Branch_bound.nodes t
        (Fmt.str "%a" Branch_bound.pp_result r))
    [
      ("continuous", None);
      ("grid = threshold", Some 50.);
      ("grid = threshold/2", Some 25.);
    ];
  Common.row
    "  (the paper's section 5 observation: worst gaps sit at extremum\n\
    \   points, so coarse grids barely dent the optimum)"

let run_naive_rewrite () =
  Common.subsection
    "ablation 3: merged-OPT vs naive double-KKT rewrite (B4 DP, root LP)";
  let g = Topologies.b4 () in
  let pathset = Common.pathset_of g ~paths:2 in
  let threshold = Common.threshold_of g ~fraction:0.05 in
  (* merged (the implementation's default) *)
  let gp = Gap_problem.build pathset ~heuristic:(Gap_problem.Dp { threshold }) () in
  let _, t_merged = time (fun () -> Solver.solve_lp gp.Gap_problem.model) in
  let v, c, s = Gap_problem.size gp in
  Common.row "  %-28s %5d vars %5d rows %5d sos1, root LP %6.2fs" "merged OPT (ours)" v c s
    t_merged;
  (* naive: rebuild with OPT KKT-rewritten as well *)
  let naive =
    Gap_problem.naive_metaopt pathset ~heuristic:(Gap_problem.Dp { threshold })
  in
  let _, t_naive = time (fun () -> Solver.solve_lp naive) in
  Common.row "  %-28s %5d vars %5d rows %5d sos1, root LP %6.2fs"
    "naive (OPT also KKT'd)" (Model.num_vars naive) (Model.num_constrs naive)
    (Model.num_sos1 naive) t_naive;
  Common.row "  root-LP slowdown from the pointless extra KKT block: %.1fx"
    (t_naive /. Float.max 1e-9 t_merged)

let run () =
  Common.section "Ablations (DESIGN.md section 5 design choices)";
  run_probing ();
  run_quantize ();
  run_naive_rewrite ()
