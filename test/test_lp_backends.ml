(* Differential tests for the pluggable LP backends: the dense tableau
   (reference oracle) and the sparse revised simplex must agree on
   status, objective, duals and reduced costs, and warm-started
   branch-and-bound must find the same answers as cold restarts. *)

open Repro_lp

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* unit tests: the sparse backend on known-answer problems             *)
(* ------------------------------------------------------------------ *)

let solve_with kind model = Solver.solve_lp ~backend:kind model

let small_lp () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj 12 *)
  let m = Model.create () in
  let x = Model.add_var ~name:"x" m in
  let y = Model.add_var ~name:"y" m in
  ignore (Model.add_constr m (Linexpr.of_terms [ (x, 1.); (y, 1.) ]) Model.Le 4.);
  ignore (Model.add_constr m (Linexpr.of_terms [ (x, 1.); (y, 3.) ]) Model.Le 6.);
  Model.set_objective m Model.Maximize (Linexpr.of_terms [ (x, 3.); (y, 2.) ]);
  m

let test_sparse_small_lp () =
  let r = solve_with Backend.Sparse (small_lp ()) in
  Alcotest.(check bool) "optimal" true (r.Solver.status = Simplex.Optimal);
  check_float "objective" 12. r.Solver.objective;
  check_float "x" 4. r.Solver.primal.(0);
  check_float "y" 0. r.Solver.primal.(1);
  (* binding first row: dual 3 (all of x's profit); slack second row *)
  check_float "dual row 0" 3. r.Solver.duals.(0);
  check_float "dual row 1" 0. r.Solver.duals.(1)

let test_sparse_infeasible_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constr m (Linexpr.var x) Model.Ge 3.);
  ignore (Model.add_constr m (Linexpr.var x) Model.Le 1.);
  Model.set_objective m Model.Maximize (Linexpr.var x);
  let r = solve_with Backend.Sparse m in
  Alcotest.(check bool) "infeasible" true (r.Solver.status = Simplex.Infeasible);
  let m = Model.create () in
  let x = Model.add_var m in
  let y = Model.add_var m in
  ignore (Model.add_constr m (Linexpr.of_terms [ (x, 1.); (y, -1.) ]) Model.Le 1.);
  Model.set_objective m Model.Maximize (Linexpr.var x);
  let r = solve_with Backend.Sparse m in
  Alcotest.(check bool) "unbounded" true (r.Solver.status = Simplex.Unbounded)

let test_sparse_resolve_bound_change () =
  (* warm restart through the Backend interface: tighten x's bound and
     the dual simplex must recover the new optimum from the old basis *)
  let sf = Standard_form.of_model (small_lp ()) in
  let be = Backend.create ~kind:Backend.Sparse sf in
  let r = Backend.solve_fresh be in
  check_float "fresh objective" 12. r.Simplex.objective;
  Backend.set_bounds be 0 ~lb:0. ~ub:1.;
  let r = Backend.resolve be in
  Alcotest.(check bool) "reoptimal" true (r.Simplex.status = Simplex.Optimal);
  (* x=1; remaining capacity goes to y: y = min(3, 5/3) -> obj 3 + 10/3 *)
  check_float "warm objective" (3. +. (2. *. 5. /. 3.)) r.Simplex.objective;
  let st = Backend.stats be in
  Alcotest.(check bool) "counted a warm hit or miss" true
    (st.Simplex.warm_hits + st.Simplex.warm_misses = 1)

let test_sparse_stats_populated () =
  let r = solve_with Backend.Sparse (small_lp ()) in
  let s = r.Solver.stats in
  Alcotest.(check bool) "iterations counted" true (s.Simplex.iterations > 0);
  Alcotest.(check bool) "eta file non-empty" true (s.Simplex.etas > 0);
  let r = solve_with Backend.Dense (small_lp ()) in
  Alcotest.(check bool) "dense reports no etas" true
    (r.Solver.stats.Simplex.etas = 0)

let test_backend_kind_of_string () =
  let is s k = Alcotest.(check bool) s true (Backend.kind_of_string s = Some k) in
  is "sparse" Backend.Sparse;
  is "revised" Backend.Sparse;
  is "dense" Backend.Dense;
  is "tableau" Backend.Dense;
  is "SPARSE" Backend.Sparse;
  Alcotest.(check bool) "garbage rejected" true
    (Backend.kind_of_string "gurobi" = None)

let test_sparse_milp_knapsack () =
  (* max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> b+c = 20 *)
  let m = Model.create () in
  let xs = Model.add_vars ~kind:Model.Binary m 3 in
  ignore
    (Model.add_constr m
       (Linexpr.of_terms [ (xs.(0), 3.); (xs.(1), 4.); (xs.(2), 2.) ])
       Model.Le 6.);
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (xs.(0), 10.); (xs.(1), 13.); (xs.(2), 7.) ]);
  let r =
    Solver.solve
      ~options:
        { Branch_bound.default_options with backend = Some Backend.Sparse }
      m
  in
  Alcotest.(check bool) "optimal" true (r.Branch_bound.outcome = Branch_bound.Optimal);
  check_float "objective" 20. r.Branch_bound.objective

(* ------------------------------------------------------------------ *)
(* differential properties                                             *)
(* ------------------------------------------------------------------ *)

(* Random bounded LPs with mixed row senses and general variable bounds
   (negative lower bounds, a chance of free variables) so both phase-1
   and bounded-variable handling get exercised. Continuous random data
   makes degenerate/multiple optima a measure-zero event, so when both
   backends report Optimal their duals and reduced costs are comparable
   point-wise. *)
let random_bounded_lp_gen =
  QCheck.Gen.(
    let* n = int_range 1 7 in
    let* m = int_range 1 7 in
    let* a = array_size (return (m * n)) (float_range (-5.) 5.) in
    let* senses = array_size (return m) (int_range 0 2) in
    let* b = array_size (return m) (float_range (-3.) 8.) in
    let* c = array_size (return n) (float_range (-5.) 5.) in
    let* lb = array_size (return n) (float_range (-4.) 0.) in
    let* ub = array_size (return n) (float_range 0.5 10.) in
    let* free_mask = array_size (return n) (int_range 0 9) in
    return (n, m, a, senses, b, c, lb, ub, free_mask))

let build_bounded_lp (n, m, a, senses, b, c, lb, ub, free_mask) =
  let model = Model.create () in
  let xs =
    Array.init n (fun j ->
        if free_mask.(j) = 0 then
          Model.add_var ~lb:neg_infinity ~ub:infinity model
        else Model.add_var ~lb:lb.(j) ~ub:ub.(j) model)
  in
  for i = 0 to m - 1 do
    let expr =
      Linexpr.of_terms (List.init n (fun j -> (xs.(j), a.((i * n) + j))))
    in
    let sense =
      match senses.(i) with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq
    in
    ignore (Model.add_constr model expr sense b.(i))
  done;
  (* a generous box row keeps free-variable instances bounded *)
  ignore
    (Model.add_constr model
       (Linexpr.of_terms (List.init n (fun j -> (xs.(j), 1.))))
       Model.Le 200.);
  ignore
    (Model.add_constr model
       (Linexpr.of_terms (List.init n (fun j -> (xs.(j), -1.))))
       Model.Le 200.);
  Model.set_objective model Model.Maximize
    (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
  model

let backends_agree =
  QCheck.Test.make ~count:300 ~name:"dense and sparse backends agree on LPs"
    (QCheck.make random_bounded_lp_gen) (fun inst ->
      let model = build_bounded_lp inst in
      let d = solve_with Backend.Dense model in
      let s = solve_with Backend.Sparse model in
      if d.Solver.status <> s.Solver.status then
        QCheck.Test.fail_reportf "status mismatch: dense %s sparse %s"
          (Fmt.str "%a" Simplex.pp_status d.Solver.status)
          (Fmt.str "%a" Simplex.pp_status s.Solver.status);
      (match d.Solver.status with
      | Simplex.Optimal ->
          let tol = 1e-6 in
          let close what k a b =
            if Float.abs (a -. b) > tol *. (1. +. Float.abs a) then
              QCheck.Test.fail_reportf "%s %d: dense %.12g sparse %.12g" what
                k a b
          in
          close "objective" 0 d.Solver.objective s.Solver.objective;
          Array.iteri (fun i v -> close "dual" i v s.Solver.duals.(i))
            d.Solver.duals;
          Array.iteri
            (fun j v -> close "reduced cost" j v s.Solver.reduced_costs.(j))
            d.Solver.reduced_costs;
          (* both primal solutions must actually satisfy the model: this
             is what catches tableau drift (an "Optimal" vertex whose
             row residuals have silently decayed) *)
          let dv = Model.max_violation model d.Solver.primal in
          if dv > 1e-5 then
            QCheck.Test.fail_reportf "dense primal infeasible: viol %.3g" dv;
          let sv = Model.max_violation model s.Solver.primal in
          if sv > 1e-5 then
            QCheck.Test.fail_reportf "sparse primal infeasible: viol %.3g" sv
      | _ -> ());
      true)

let random_binary_milp_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* m = int_range 1 4 in
    let* a = array_size (return (m * n)) (float_range (-4.) 6.) in
    let* b = array_size (return m) (float_range 0.5 12.) in
    let* c = array_size (return n) (float_range (-3.) 8.) in
    return (n, m, a, b, c))

let build_binary_milp (n, m, a, b, c) =
  let model = Model.create () in
  let xs = Model.add_vars ~kind:Model.Binary model n in
  for i = 0 to m - 1 do
    let expr =
      Linexpr.of_terms (List.init n (fun j -> (xs.(j), a.((i * n) + j))))
    in
    ignore (Model.add_constr model expr Model.Le b.(i))
  done;
  Model.set_objective model Model.Maximize
    (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
  model

(* Brute-force optimum of a [random_binary_milp_gen] instance over all
   2^n binary points; [None] when no point is feasible. *)
let enumerate_binary_milp (n, m, a, b, c) =
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x j = if mask land (1 lsl j) <> 0 then 1. else 0. in
    let feasible = ref true in
    for i = 0 to m - 1 do
      let lhs = ref 0. in
      for j = 0 to n - 1 do
        lhs := !lhs +. (a.((i * n) + j) *. x j)
      done;
      if !lhs > b.(i) +. 1e-9 then feasible := false
    done;
    if !feasible then begin
      let v = ref 0. in
      for j = 0 to n - 1 do
        v := !v +. (c.(j) *. x j)
      done;
      match !best with
      | Some bv when bv >= !v -> ()
      | _ -> best := Some !v
    end
  done;
  !best

(* Every node re-solves warm, by dual simplex from the basis of the
   node before it; enumeration is the oracle that this reuse never
   loses the optimum: same outcome, same objective, and a best bound
   that does not undercut the objective. *)
let warm_matches_enumeration =
  QCheck.Test.make ~count:100
    ~name:"warm-started B&B matches enumeration on binary MILPs"
    (QCheck.make random_binary_milp_gen) (fun inst ->
      (* jobs pinned to 1 so an ambient REPRO_JOBS cannot change the
         search under test *)
      let r =
        Branch_bound.solve
          ~options:
            {
              Branch_bound.default_options with
              backend = Some Backend.Sparse;
              jobs = 1;
            }
          (build_binary_milp inst)
      in
      let tol v = 1e-6 *. (1. +. Float.abs v) in
      (match enumerate_binary_milp inst with
      | None ->
          if r.Branch_bound.outcome <> Branch_bound.Infeasible then
            QCheck.Test.fail_reportf "enumeration infeasible, B&B %s"
              (Fmt.str "%a" Branch_bound.pp_outcome r.Branch_bound.outcome)
      | Some best ->
          if r.Branch_bound.outcome <> Branch_bound.Optimal then
            QCheck.Test.fail_reportf "B&B %s, enumeration optimum %.12g"
              (Fmt.str "%a" Branch_bound.pp_outcome r.Branch_bound.outcome)
              best;
          if Float.abs (r.Branch_bound.objective -. best) > tol best then
            QCheck.Test.fail_reportf "objective: B&B %.12g enumeration %.12g"
              r.Branch_bound.objective best;
          if r.Branch_bound.best_bound < r.Branch_bound.objective -. tol best
          then
            QCheck.Test.fail_reportf "best_bound %.12g below objective %.12g"
              r.Branch_bound.best_bound r.Branch_bound.objective);
      true)

(* The MILP search must agree across backends too (same branching rules,
   same incumbents up to ties broken by identical LP optima). *)
let milp_backends_agree =
  QCheck.Test.make ~count:100
    ~name:"dense and sparse backends agree on binary MILPs"
    (QCheck.make random_binary_milp_gen) (fun inst ->
      let solve kind =
        Branch_bound.solve
          ~options:
            {
              Branch_bound.default_options with
              backend = Some kind;
              jobs = 1;
            }
          (build_binary_milp inst)
      in
      let d = solve Backend.Dense in
      let s = solve Backend.Sparse in
      if d.Branch_bound.outcome <> s.Branch_bound.outcome then
        QCheck.Test.fail_reportf "outcome mismatch";
      (match d.Branch_bound.outcome with
      | Branch_bound.Optimal ->
          if
            Float.abs (d.Branch_bound.objective -. s.Branch_bound.objective)
            > 1e-6 *. (1. +. Float.abs d.Branch_bound.objective)
          then
            QCheck.Test.fail_reportf "objective mismatch: dense %.12g sparse %.12g"
              d.Branch_bound.objective s.Branch_bound.objective
      | _ -> ());
      true)

(* ------------------------------------------------------------------ *)
(* tree search across job counts                                       *)
(* ------------------------------------------------------------------ *)

let solve_with_jobs ?(node_limit = Branch_bound.default_options.node_limit)
    ?(interrupt = fun () -> false) ~jobs model =
  Branch_bound.solve
    ~options:
      {
        Branch_bound.default_options with
        backend = Some Backend.Sparse;
        jobs;
        node_limit;
        interrupt;
      }
    model

(* Random MILPs with SOS1 groups: continuous vars, disjoint groups of
   2-3, knapsack-style rows. All-zero is always feasible, bounds keep
   the model bounded, so every instance solves to Optimal. *)
let random_sos_milp_gen =
  QCheck.Gen.(
    let* n = int_range 4 9 in
    let* m = int_range 1 3 in
    let* a = array_size (return (m * n)) (float_range 0.5 4.) in
    let* b = array_size (return m) (float_range 2. 10.) in
    let* c = array_size (return n) (float_range 0.5 6.) in
    let* ub = array_size (return n) (float_range 1. 4.) in
    let* group_size = int_range 2 3 in
    return (n, m, a, b, c, ub, group_size))

let build_sos_milp (n, m, a, b, c, ub, group_size) =
  let model = Model.create () in
  let xs = Array.init n (fun j -> Model.add_var ~lb:0. ~ub:ub.(j) model) in
  for i = 0 to m - 1 do
    let expr =
      Linexpr.of_terms (List.init n (fun j -> (xs.(j), a.((i * n) + j))))
    in
    ignore (Model.add_constr model expr Model.Le b.(i))
  done;
  let j = ref 0 in
  while !j + group_size <= n do
    Model.add_sos1 model
      (List.init group_size (fun k -> xs.(!j + k)));
    j := !j + group_size
  done;
  Model.set_objective model Model.Maximize
    (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
  model

(* Fixed instances for the golden fixture and the poll-count tests: the
   coefficients come from modular arithmetic, not from a generator, so
   they do not move with the random-number library. *)
let golden_binary_inst =
  let n = 8 and m = 3 in
  let a = Array.init (m * n) (fun k -> float ((37 * k + 11) mod 41) /. 4. -. 3.) in
  let b = Array.init m (fun i -> float (9 + (5 * i mod 7))) in
  let c = Array.init n (fun j -> float ((13 * j + 5) mod 17) /. 2. -. 1.) in
  (n, m, a, b, c)

let golden_sos_inst =
  let n = 12 and m = 3 in
  let a = Array.init (m * n) (fun k -> 0.5 +. float ((29 * k + 3) mod 31) /. 8.) in
  let b = Array.init m (fun i -> float (10 + (2 * i))) in
  let c = Array.init n (fun j -> 0.5 +. float ((11 * j + 7) mod 23) /. 4.) in
  let ub = Array.init n (fun j -> 0.4 +. float (j mod 2) *. 0.3) in
  (n, m, a, b, c, ub, 3)

let agree_serial_parallel ~name gen build count =
  QCheck.Test.make ~count ~name (QCheck.make gen) (fun inst ->
      let serial = solve_with_jobs ~jobs:1 (build inst) in
      let par = solve_with_jobs ~jobs:4 (build inst) in
      if serial.Branch_bound.outcome <> par.Branch_bound.outcome then
        QCheck.Test.fail_reportf "outcome mismatch: jobs=1 %s jobs=4 %s"
          (Fmt.str "%a" Branch_bound.pp_outcome serial.Branch_bound.outcome)
          (Fmt.str "%a" Branch_bound.pp_outcome par.Branch_bound.outcome);
      (match serial.Branch_bound.outcome with
      | Branch_bound.Optimal ->
          if
            Float.abs
              (serial.Branch_bound.objective -. par.Branch_bound.objective)
            > 1e-6 *. (1. +. Float.abs serial.Branch_bound.objective)
          then
            QCheck.Test.fail_reportf
              "objective mismatch: jobs=1 %.12g jobs=4 %.12g"
              serial.Branch_bound.objective par.Branch_bound.objective;
          (match par.Branch_bound.primal with
          | None -> QCheck.Test.fail_reportf "parallel optimal without primal"
          | Some x ->
              let v = Model.max_violation (build inst) x in
              if v > 1e-5 then
                QCheck.Test.fail_reportf "parallel primal infeasible: %.3g" v)
      | _ -> ());
      if par.Branch_bound.tree.Branch_bound.workers <> 4 then
        QCheck.Test.fail_reportf "parallel run reported %d workers"
          par.Branch_bound.tree.Branch_bound.workers;
      if serial.Branch_bound.tree <> Branch_bound.serial_tree_stats then
        QCheck.Test.fail_reportf "jobs=1 run reported multi-worker tree stats";
      true)

let parallel_agrees_milp =
  agree_serial_parallel
    ~name:"jobs=4 B&B matches jobs=1 on binary MILPs"
    random_binary_milp_gen build_binary_milp 60

let parallel_agrees_sos =
  agree_serial_parallel
    ~name:"jobs=4 B&B matches jobs=1 on SOS1 models"
    random_sos_milp_gen build_sos_milp 40

(* jobs = 1 must be deterministic run to run: one worker on the calling
   domain sees no scheduler, so identical inputs give identical trees. *)
let serial_bit_identical =
  QCheck.Test.make ~count:40
    ~name:"jobs=1 B&B is bit-identical across runs"
    (QCheck.make random_binary_milp_gen) (fun inst ->
      let a = solve_with_jobs ~jobs:1 (build_binary_milp inst) in
      let b = solve_with_jobs ~jobs:1 (build_binary_milp inst) in
      if a.Branch_bound.outcome <> b.Branch_bound.outcome then
        QCheck.Test.fail_reportf "outcome differs between identical runs";
      if not (Float.equal a.Branch_bound.objective b.Branch_bound.objective)
      then
        QCheck.Test.fail_reportf "objective differs: %.17g vs %.17g"
          a.Branch_bound.objective b.Branch_bound.objective;
      if not (Float.equal a.Branch_bound.best_bound b.Branch_bound.best_bound)
      then QCheck.Test.fail_reportf "best bound differs";
      if a.Branch_bound.nodes <> b.Branch_bound.nodes then
        QCheck.Test.fail_reportf "node count differs: %d vs %d"
          a.Branch_bound.nodes b.Branch_bound.nodes;
      if a.Branch_bound.simplex_iterations <> b.Branch_bound.simplex_iterations
      then QCheck.Test.fail_reportf "simplex iteration count differs";
      true)

(* Shared-counter limits: the node limit may overshoot by at most
   jobs - 1 in-flight nodes (so it is exact at jobs = 1), and the bound
   reported by a stopped search still covers the optimum; an interrupt
   wired to "true" stops the search before any meaningful work. *)
let parallel_node_limit =
  QCheck.Test.make ~count:40 ~name:"node limit overshoots by < jobs (jobs 1, 4)"
    (QCheck.make random_binary_milp_gen) (fun inst ->
      (* x = 0 is always feasible, so the full search ends Optimal *)
      let opt = (solve_with_jobs ~jobs:1 (build_binary_milp inst)).objective in
      List.iter
        (fun (jobs, node_limit) ->
          let r =
            solve_with_jobs ~jobs ~node_limit (build_binary_milp inst)
          in
          if r.Branch_bound.nodes > node_limit + jobs - 1 then
            QCheck.Test.fail_reportf "jobs=%d: node limit %d overshot to %d nodes"
              jobs node_limit r.Branch_bound.nodes;
          if r.Branch_bound.best_bound < opt -. (1e-6 *. (1. +. Float.abs opt))
          then
            QCheck.Test.fail_reportf
              "jobs=%d: bound %.12g after node limit %d is below the optimum \
               %.12g"
              jobs r.Branch_bound.best_bound node_limit opt)
        (List.concat_map
           (fun jobs -> List.init 6 (fun k -> (jobs, k + 1)))
           [ 1; 4 ]);
      true)

let parallel_interrupt =
  QCheck.Test.make ~count:25 ~name:"interrupt stops the search (jobs 1, 4)"
    (QCheck.make random_binary_milp_gen) (fun inst ->
      List.iter
        (fun jobs ->
          let r =
            solve_with_jobs ~jobs
              ~interrupt:(fun () -> true)
              (build_binary_milp inst)
          in
          (match r.Branch_bound.outcome with
          | Branch_bound.No_incumbent | Branch_bound.Feasible -> ()
          | o ->
              QCheck.Test.fail_reportf "jobs=%d: interrupted run reported %s"
                jobs
                (Fmt.str "%a" Branch_bound.pp_outcome o));
          if r.Branch_bound.nodes > jobs then
            QCheck.Test.fail_reportf "jobs=%d: interrupted run expanded %d nodes"
              jobs r.Branch_bound.nodes)
        [ 1; 4 ];
      true)

(* Backend and jobs are pinned so REPRO_LP_BACKEND / REPRO_JOBS cannot
   move the numbers below. *)
let golden_options =
  {
    Branch_bound.default_options with
    backend = Some Backend.Sparse;
    jobs = 1;
  }

(* Golden fixture for the tree search at jobs = 1: outcome, objective
   and bound bits, node and pivot counts on the two fixed instances. A
   change to any of them is a change to the search and must be made on
   purpose. *)
let test_golden_jobs1 () =
  let outcome = Alcotest.testable Branch_bound.pp_outcome ( = ) in
  let check name model ~objective ~best_bound ~nodes ~iterations =
    let r = Branch_bound.solve ~options:golden_options model in
    Alcotest.check outcome (name ^ " outcome") Branch_bound.Optimal
      r.Branch_bound.outcome;
    Alcotest.(check int64)
      (name ^ " objective bits") objective
      (Int64.bits_of_float r.Branch_bound.objective);
    Alcotest.(check int64)
      (name ^ " best_bound bits") best_bound
      (Int64.bits_of_float r.Branch_bound.best_bound);
    Alcotest.(check int) (name ^ " nodes") nodes r.Branch_bound.nodes;
    Alcotest.(check int)
      (name ^ " simplex iterations") iterations
      r.Branch_bound.simplex_iterations
  in
  (* 18.5 *)
  check "binary" (build_binary_milp golden_binary_inst)
    ~objective:4625900504751276032L ~best_bound:4625900504751276032L
    ~nodes:15 ~iterations:21;
  (* 12.599999999999998 *)
  check "sos1" (build_sos_milp golden_sos_inst)
    ~objective:4623282787467866930L ~best_bound:4623282787467866930L
    ~nodes:31 ~iterations:39

(* [interrupt] is polled once per node: a search that runs to completion
   polls it exactly [nodes] times, and one stopped by [node_limit = k]
   polls it k + 1 times — the last poll is the one that finds the
   limit. *)
let test_interrupt_polled_once_per_node () =
  let run ~node_limit =
    let polls = ref 0 in
    let r =
      Branch_bound.solve
        ~options:
          {
            golden_options with
            node_limit;
            interrupt =
              (fun () ->
                incr polls;
                false);
          }
        (build_binary_milp golden_binary_inst)
    in
    (r, !polls)
  in
  let full, polls = run ~node_limit:max_int in
  Alcotest.(check bool) "tree outgrows the limit below" true
    (full.Branch_bound.nodes > 3);
  Alcotest.(check int) "complete search" full.Branch_bound.nodes polls;
  let cut, polls = run ~node_limit:3 in
  Alcotest.(check int) "node_limit 3 expands 3 nodes" 3 cut.Branch_bound.nodes;
  Alcotest.(check int) "node_limit 3 polls 4 times" 4 polls

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "repro_lp_backends"
    [
      ( "sparse_unit",
        [
          Alcotest.test_case "small lp" `Quick test_sparse_small_lp;
          Alcotest.test_case "infeasible/unbounded" `Quick
            test_sparse_infeasible_unbounded;
          Alcotest.test_case "resolve after bound change" `Quick
            test_sparse_resolve_bound_change;
          Alcotest.test_case "stats populated" `Quick
            test_sparse_stats_populated;
          Alcotest.test_case "kind parsing" `Quick test_backend_kind_of_string;
          Alcotest.test_case "milp knapsack" `Quick test_sparse_milp_knapsack;
        ] );
      qsuite "differential"
        [ backends_agree; warm_matches_enumeration; milp_backends_agree ];
      ( "tree_search",
        [
          Alcotest.test_case "golden fixture at jobs=1" `Quick
            test_golden_jobs1;
          Alcotest.test_case "interrupt polled once per node" `Quick
            test_interrupt_polled_once_per_node;
        ] );
      qsuite "parallel_tree"
        [
          parallel_agrees_milp;
          parallel_agrees_sos;
          serial_bit_identical;
          parallel_node_limit;
          parallel_interrupt;
        ];
    ]
