(* LP engine benchmark: dense tableau vs sparse revised simplex, and
   the branch-and-bound tree search at a fixed node budget across job
   counts.

   Root-LP timings cover the fig6-family metaopt models (DP and POP on
   B4) plus larger synthetic circle topologies, where the constraint
   matrices grow while staying extremely sparse — the regime the revised
   simplex is built for.

   Results go to stdout and to BENCH_lp.json. REPRO_BENCH_LP_TINY=1
   shrinks everything to CI-smoke size. *)

let tiny_mode =
  match Sys.getenv_opt "REPRO_BENCH_LP_TINY" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

type root_row = {
  model_name : string;
  vars : int;
  constrs : int;
  dense_s : float;
  sparse_s : float;
  dense_obj : float;
  sparse_obj : float;
  dense_viol : float;
  sparse_viol : float;
  sparse_stats : Simplex.stats;
}

(* feasibility of a relaxation solution w.r.t. the linear rows and
   variable bounds only — integrality/SOS1 violations are expected at
   the root and would drown the signal *)
let linear_violation model primal =
  let worst = ref 0. in
  for c = 0 to Model.num_constrs model - 1 do
    let v = Model.constr_violation model primal c in
    if v > !worst then worst := v
  done;
  for v = 0 to Model.num_vars model - 1 do
    let x = primal.(v) in
    let lo = Model.var_lb model v -. x and hi = x -. Model.var_ub model v in
    if lo > !worst then worst := lo;
    if hi > !worst then worst := hi
  done;
  !worst

let dp_metaopt pathset g =
  Gap_problem.build pathset
    ~heuristic:
      (Gap_problem.Dp { threshold = Common.threshold_of g ~fraction:0.05 })
    ()

let pop_metaopt pathset ~instances =
  let rng = Rng.create 99 in
  Gap_problem.build pathset
    ~heuristic:
      (Gap_problem.Pop
         {
           parts = Common.default_pop_parts;
           partitions =
             List.init instances (fun _ ->
                 Pop.random_partition ~rng
                   ~num_pairs:(Pathset.num_pairs pathset)
                   ~parts:Common.default_pop_parts);
           reduce = `Average;
         })
    ()

(* fig6-family metaopt models + larger circle instances; each entry is
   (name, lazily built model) so tiny mode never constructs the big ones *)
let root_models () =
  let b4 = Topologies.b4 () in
  let b4_paths = Common.pathset_of b4 ~paths:Common.default_paths in
  let circle n k =
    let g = Topologies.circle ~n ~neighbors:k () in
    let pathset = Common.pathset_of g ~paths:Common.default_paths in
    ( Printf.sprintf "DP metaopt circle-%d-%d" n k,
      fun () -> (dp_metaopt pathset g).Gap_problem.model )
  in
  if tiny_mode then
    [
      ( "DP metaopt b4",
        fun () -> (dp_metaopt b4_paths b4).Gap_problem.model );
      circle 8 2;
    ]
  else
    [
      ( "DP metaopt b4",
        fun () -> (dp_metaopt b4_paths b4).Gap_problem.model );
      ( "POP(2 inst) metaopt b4",
        fun () -> (pop_metaopt b4_paths ~instances:2).Gap_problem.model );
      (* kept at sizes where the dense oracle still terminates in minutes
         on one core; circle-16-4 already pushes dense past 15 min *)
      circle 10 3;
      circle 12 3;
    ]

let bench_root (name, build) =
  let model = build () in
  let solve backend =
    time (fun () -> Solver.solve_lp ~backend model)
  in
  (* dense root LPs on the big models take seconds; one timed pass each
     is the right cost/precision trade-off here *)
  let dense_r, dense_s = solve Backend.Dense in
  let sparse_r, sparse_s = solve Backend.Sparse in
  let row =
    {
      model_name = name;
      vars = Model.num_vars model;
      constrs = Model.num_constrs model;
      dense_s;
      sparse_s;
      dense_obj = dense_r.Solver.objective;
      sparse_obj = sparse_r.Solver.objective;
      dense_viol = linear_violation model dense_r.Solver.primal;
      sparse_viol = linear_violation model sparse_r.Solver.primal;
      sparse_stats = sparse_r.Solver.stats;
    }
  in
  Common.row "%-28s %7d %8d %9.3f %9.3f %8.2fx  (sparse: %s)" name row.vars
    row.constrs dense_s sparse_s
    (dense_s /. Float.max 1e-9 sparse_s)
    (Fmt.str "%a" Simplex.pp_stats row.sparse_stats);
  if Float.abs (row.dense_obj -. row.sparse_obj)
     > 1e-6 *. (1. +. Float.abs row.dense_obj)
  then
    (* on the larger circle models the dense tableau accumulates
       round-off (no refactorization) and reports an "optimum" that is
       not primal feasible; the violation numbers attribute the
       disagreement *)
    Common.row
      "  note: objectives differ (dense %.9g, sparse %.9g); max row/bound \
       violation dense %.3g vs sparse %.3g"
      row.dense_obj row.sparse_obj row.dense_viol row.sparse_viol;
  row

(* ------------------------------------------------------------------ *)
(* parallel tree search                                                *)
(* ------------------------------------------------------------------ *)

type par_row = {
  par_problem : string;
  par_jobs : int;
  par_budget : int;  (* node budget the run processes *)
  par_outcome : string;
  par_objective : float;  (* nan when no incumbent (DP row, by design) *)
  par_bound : float;
  par_elapsed : float;
  par_nodes : int;
  par_steals : int;
  par_idle : float;
}

(* Fixed node budget: every configuration explores the same number of
   tree nodes of the same MILP, and the wall clock of the run is the
   metric. This makes the rows of every job count identical by
   construction in everything but time — the DP row runs the raw tree
   (no primal heuristic), where neither schedule finds an incumbent at
   this depth, so outcome ("no incumbent") and objective agree exactly;
   the POP row runs the full adversary workload (oracle-rounding primal
   heuristic per node) and every schedule finds the same best gap at
   the root relaxation, so outcome and objective agree there too.

   Every job count runs the same plunging search, so [speedup] against
   the jobs=1 row measures cores and steal overhead only. *)
let solve_budget ~jobs ~node_limit ?primal_heuristic gp =
  time (fun () ->
      Branch_bound.solve
        ~options:
          {
            Branch_bound.default_options with
            jobs;
            time_limit = 600.;
            stall_time = infinity;
            node_limit;
          }
        ?primal_heuristic gp.Gap_problem.model)

let bench_parallel_tree () =
  let g = Topologies.b4 () in
  let pathset = Common.pathset_of g ~paths:Common.default_paths in
  let node_limit = if tiny_mode then 32 else 128 in
  let dp_problem =
    lazy
      (let gp = dp_metaopt pathset g in
       (gp, None))
  in
  let pop_problem =
    lazy
      (let ev =
         Evaluate.make_pop pathset ~parts:Common.default_pop_parts
           ~instances:2 ~rng:(Rng.create 99) ()
       in
       let gp =
         Gap_problem.build pathset
           ~heuristic:(Adversary.heuristic_of_spec ev)
           ()
       in
       let best = ref neg_infinity in
       let bmu = Mutex.create () in
       (* round the relaxation primal to a demand matrix and score it
          with the exact oracle — Adversary.primal_heuristic without the
          probe layer *)
       let primal_heuristic relax_primal =
         let d = Gap_problem.demands_of_primal gp relax_primal in
         (match Evaluate.gap ev d with
         | Some gv ->
             Mutex.lock bmu;
             if gv > !best then best := gv;
             Mutex.unlock bmu
         | None -> ());
         Mutex.lock bmu;
         let b = !best in
         Mutex.unlock bmu;
         if b > neg_infinity then Some (b, None) else None
       in
       (gp, Some primal_heuristic))
  in
  let problems =
    [
      ("DP metaopt b4", dp_problem); ("POP(2 inst) metaopt b4", pop_problem);
    ]
  in
  let jobs_list = if tiny_mode then [ 1; 4 ] else [ 1; 2; 4 ] in
  List.concat_map
    (fun (name, lazy_prob) ->
      let gp, primal_heuristic = Lazy.force lazy_prob in
      let rows =
        List.map
          (fun jobs ->
            let r, elapsed =
              solve_budget ~jobs ~node_limit ?primal_heuristic gp
            in
            {
              par_problem = name;
              par_jobs = jobs;
              par_budget = node_limit;
              par_outcome =
                Fmt.str "%a" Branch_bound.pp_outcome r.Branch_bound.outcome;
              par_objective = r.Branch_bound.objective;
              par_bound = r.Branch_bound.best_bound;
              par_elapsed = elapsed;
              par_nodes = r.Branch_bound.nodes;
              par_steals = r.Branch_bound.tree.Branch_bound.steals;
              par_idle = r.Branch_bound.tree.Branch_bound.idle_s;
            })
          jobs_list
      in
      let serial = List.hd rows in
      List.iter
        (fun row ->
          Common.row
            "%-24s jobs=%d %-20s obj %10.6g  %7.2fs (%.2fx) %4d/%d nodes \
             %4d steals %5.2fs idle"
            row.par_problem row.par_jobs row.par_outcome row.par_objective
            row.par_elapsed
            (serial.par_elapsed /. Float.max 1e-9 row.par_elapsed)
            row.par_nodes row.par_budget row.par_steals row.par_idle)
        rows;
      rows)
    problems

let write_json path roots par_rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"repro-lp\",\n\
    \  \"mode\": %S,\n\
    \  \"default_backend\": %S,\n"
    (if tiny_mode then "tiny" else if Common.full_mode then "full" else "fast")
    (Backend.kind_to_string (Backend.default ()));
  (* the tree-search phases are the only parallel ones: record the
     widest worker count any row actually ran with *)
  let jobs = List.fold_left (fun acc r -> max acc r.par_jobs) 1 par_rows in
  Common.host_printf_fields oc ~jobs;
  Printf.fprintf oc "  \"root_lp\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    {\"model\": %S, \"vars\": %d, \"constrs\": %d, \
               \"dense_s\": %.4f, \"sparse_s\": %.4f, \"speedup\": %.2f, \
               \"dense_viol\": %.3g, \"sparse_viol\": %.3g, \
               \"sparse_iters\": %d, \"refactorizations\": %d, \"etas\": %d}"
              r.model_name r.vars r.constrs r.dense_s r.sparse_s
              (r.dense_s /. Float.max 1e-9 r.sparse_s)
              r.dense_viol r.sparse_viol
              r.sparse_stats.Simplex.iterations
              r.sparse_stats.Simplex.refactorizations
              r.sparse_stats.Simplex.etas)
          roots));
  (* reference for each problem: the jobs=1 row *)
  let serial_of problem =
    List.find
      (fun r -> r.par_jobs = 1 && String.equal r.par_problem problem)
      par_rows
  in
  (* JSON has no nan literal; the DP row has no incumbent by design *)
  let json_float v =
    if Float.is_nan v then "null" else Printf.sprintf "%.9g" v
  in
  Printf.fprintf oc "  \"parallel_tree\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            let s = serial_of r.par_problem in
            Printf.sprintf
              "    {\"problem\": %S, \"jobs\": %d, \"node_budget\": %d, \
               \"outcome\": %S, \"objective\": %s, \"best_bound\": %s, \
               \"elapsed_s\": %.4f, \"speedup\": %.3f, \
               \"nodes\": %d, \"steals\": %d, \"idle_s\": %.3f}"
              r.par_problem r.par_jobs r.par_budget r.par_outcome
              (json_float r.par_objective)
              (json_float r.par_bound) r.par_elapsed
              (s.par_elapsed /. Float.max 1e-9 r.par_elapsed)
              r.par_nodes r.par_steals r.par_idle)
          par_rows));
  close_out oc;
  Common.row "machine-readable results written to %s" path

let run () =
  Common.section
    (Printf.sprintf "LP engine: dense tableau vs sparse revised simplex%s"
       (if tiny_mode then " (tiny smoke)" else ""));
  Common.row "%-28s %7s %8s %9s %9s %9s" "model" "#vars" "#constrs" "dense(s)"
    "sparse(s)" "speedup";
  let roots = List.map bench_root (root_models ()) in
  Common.subsection
    "tree search: fixed node budget, jobs=1 vs jobs in {2, 4}";
  let par_rows = bench_parallel_tree () in
  write_json "BENCH_lp.json" roots par_rows
