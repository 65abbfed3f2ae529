(* Tests for the follower IR layer (Repro_follower) and its integration
   with the metaopt encodings:

   - Ir construction, direct solve and column checks;
   - Kkt_rewrite vs the hand-derived reference emitter (Kkt_reference):
     identical models and (by qcheck) identical optima, in both
     complementarity modes;
   - Bigm derivation from presolve intervals, the fallback counter, and
     the post-solve audit — including the regression where a
     deliberately too-small big-M in the DP encoding is detected by the
     audit instead of silently cutting the adversary's optimum;
   - golden model digests: the gap-problem models of the benchmark
     workloads, fig1 and Fig 6's naive ablation, pinned column for column
     and row for row; the fig1 DP and POP gap values agree across LP
     backends and across jobs=1 and jobs=4; the digest itself changes
     with every field it covers;
   - Flow_rows, the max-flow follower the DP and POP encodings rewrite:
     its indexing and row shapes, its direct solve and both emitters' KKT
     value against OptMaxFlow, and reference = rewriter on its models;
   - bin packing: exact FFD/OPT known answers, white-box encoding vs the
     simulator on fixed instances, and the seeded find-gap closing the
     classic FFD worst case. *)

open Repro_lp
open Repro_topology
open Repro_te
open Repro_metaopt
module F = Repro_follower

let check_float = Alcotest.(check (float 1e-6))

let fig1_pathset =
  let ps = lazy (Pathset.compute (Demand.full_space (Topologies.fig1 ())) ~k:2) in
  fun () -> Lazy.force ps

(* ------------------------------------------------------------------ *)
(* Ir                                                                  *)
(* ------------------------------------------------------------------ *)

let test_ir_construction () =
  let ir = F.Ir.create ~name:"toy" () in
  let f = F.Ir.add_cols ir 2 in
  let s = F.Ir.add_cols ~ub:3. ir 1 in
  Alcotest.(check int) "first flow col" 0 f;
  Alcotest.(check int) "slack col" 2 s;
  Alcotest.(check int) "num cols" 3 (F.Ir.num_cols ir);
  Alcotest.(check bool) "flow unbounded" true (F.Ir.col_ub ir 0 = infinity);
  check_float "slack ub" 3. (F.Ir.col_ub ir 2);
  F.Ir.set_objective ir [ (0, 1.); (1, 1.) ];
  F.Ir.add_rows ir
    [
      {
        F.Ir.row_name = "cap_0";
        inner_terms = [ (0, 1.) ];
        outer_terms = [];
        sense = F.Ir.Le;
        rhs = 2.;
      };
      {
        F.Ir.row_name = "cap_1";
        inner_terms = [ (1, 1.) ];
        outer_terms = [];
        sense = F.Ir.Le;
        rhs = 3.;
      };
      {
        F.Ir.row_name = "budget";
        inner_terms = [ (0, 1.); (1, 1.); (2, 1.) ];
        outer_terms = [];
        sense = F.Ir.Eq;
        rhs = 4.;
      };
    ];
  Alcotest.(check int) "rows" 3 (F.Ir.num_rows ir);
  Alcotest.(check int) "le rows" 2 (F.Ir.num_le_rows ir);
  Alcotest.(check (list string))
    "rows in insertion order" [ "cap_0"; "cap_1"; "budget" ]
    (Array.to_list (Array.map (fun r -> r.F.Ir.row_name) (F.Ir.rows ir)))

let test_ir_solve_directly () =
  let host = Model.create () in
  let p = Model.add_var ~name:"p" ~lb:1. ~ub:1. host in
  let ir = F.Ir.create ~name:"toy" () in
  ignore (F.Ir.add_cols ir 2);
  F.Ir.set_objective ir [ (0, 1.); (1, 1.) ];
  F.Ir.add_rows ir
    [
      {
        F.Ir.row_name = "r_0";
        inner_terms = [ (0, 1.) ];
        (* rhs 3 shifted down by the outer value: x0 <= 3 - p = 2 *)
        outer_terms = [ (p, 1.) ];
        sense = F.Ir.Le;
        rhs = 3.;
      };
      {
        F.Ir.row_name = "r_1";
        inner_terms = [ (1, 1.) ];
        outer_terms = [];
        sense = F.Ir.Le;
        rhs = 3.;
      };
    ];
  let r = F.Ir.solve_directly ir ~outer_values:(fun _ -> 1.) in
  check_float "direct optimum" 5. r.Solver.objective

let test_ir_rejects_bad_columns () =
  let ir = F.Ir.create ~name:"bad" () in
  ignore (F.Ir.add_cols ir 2);
  let row j =
    {
      F.Ir.row_name = "r";
      inner_terms = [ (j, 1.) ];
      outer_terms = [];
      sense = F.Ir.Le;
      rhs = 1.;
    }
  in
  Alcotest.check_raises "row past the last column"
    (Invalid_argument "Ir(bad): row r references bad column 2")
    (fun () -> F.Ir.add_row ir (row 2));
  Alcotest.check_raises "negative column"
    (Invalid_argument "Ir(bad): row r references bad column -1")
    (fun () -> F.Ir.add_row ir (row (-1)));
  Alcotest.check_raises "objective column"
    (Invalid_argument "Ir(bad): objective references bad column 5")
    (fun () -> F.Ir.set_objective ir [ (5, 1.) ]);
  Alcotest.(check int) "rejected rows not added" 0 (F.Ir.num_rows ir);
  Alcotest.check_raises "negative ub" (Invalid_argument "Ir.add_cols: ub < 0")
    (fun () -> ignore (F.Ir.add_cols ~ub:(-1.) ir 1));
  Alcotest.(check int) "rejected cols not added" 2 (F.Ir.num_cols ir);
  (* duplicate objective columns are summed *)
  F.Ir.set_objective ir [ (0, 1.); (1, 2.); (0, 0.5) ];
  check_float "value" 5.5 (F.Ir.value ir [| 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* Kkt_rewrite vs hand Kkt                                             *)
(* ------------------------------------------------------------------ *)

(* one follower description instantiated once per host model, so the
   reference and the rewriter see identical inputs *)
let toy_follower model =
  let p = Model.add_var ~name:"P" ~lb:6. ~ub:6. model in
  let ir = F.Ir.create ~name:"toy" () in
  ignore (F.Ir.add_cols ir 2);
  F.Ir.set_objective ir [ (0, 2.); (1, 1.) ];
  F.Ir.add_rows ir
    [
      {
        F.Ir.row_name = "cap_0";
        inner_terms = [ (0, 1.); (1, 1.) ];
        outer_terms = [ (p, -1.) ];
        sense = F.Ir.Le;
        rhs = 0.;
      };
      {
        F.Ir.row_name = "cap_1";
        inner_terms = [ (0, 1.) ];
        outer_terms = [];
        sense = F.Ir.Le;
        rhs = 4.;
      };
      {
        F.Ir.row_name = "tie";
        inner_terms = [ (1, 1.) ];
        outer_terms = [];
        sense = F.Ir.Eq;
        rhs = 1.;
      };
    ];
  ir

(* follower optimum: x1 = 1 (tie), x0 = min(4, 6 - 1) = 4, value 9 *)
let toy_value = 9.

let solve_feasibility model =
  Model.set_objective model Model.Maximize Linexpr.zero;
  let r = Solver.solve model in
  Alcotest.(check bool) "solved" true
    (r.Branch_bound.outcome = Branch_bound.Optimal);
  Option.get r.Branch_bound.primal

let test_rewrite_matches_hand_exactly () =
  let hand_model = Model.create () in
  let hand = Kkt_reference.emit hand_model (toy_follower hand_model) in
  let ir_model = Model.create () in
  let ir = F.Kkt_rewrite.emit ir_model (toy_follower ir_model) in
  Alcotest.(check string)
    "same model, column for column and row for row"
    (Model_digest.digest hand_model)
    (Model_digest.digest ir_model);
  Alcotest.(check int)
    "same complementarity count" hand.Kkt_reference.num_complementarity
    ir.F.Kkt_rewrite.num_complementarity;
  let hp = solve_feasibility hand_model in
  let ip = solve_feasibility ir_model in
  check_float "hand value" toy_value
    (Linexpr.eval hand.Kkt_reference.value (Array.get hp));
  check_float "ir value" toy_value
    (Linexpr.eval ir.F.Kkt_rewrite.value (Array.get ip))

let test_rewrite_big_m_agrees () =
  let model = Model.create () in
  let e =
    F.Kkt_rewrite.emit
      ~comp:(F.Kkt_rewrite.Big_m { fallback = 50. })
      model (toy_follower model)
  in
  Alcotest.(check int) "no sos1 groups" 0 (Model.num_sos1 model);
  Alcotest.(check int)
    "one binary per complementarity pair" e.F.Kkt_rewrite.num_complementarity
    e.F.Kkt_rewrite.num_binaries;
  Alcotest.(check bool)
    "every gate tracked" true
    (List.length e.F.Kkt_rewrite.tracked = 2 * e.F.Kkt_rewrite.num_binaries);
  let p = solve_feasibility model in
  check_float "big-M value = follower optimum" toy_value
    (Linexpr.eval e.F.Kkt_rewrite.value (Array.get p));
  (* at a KKT point no derived gate may sit at its big-M ceiling *)
  Alcotest.(check int)
    "audit clean" 0
    (List.length (F.Bigm.audit p e.F.Kkt_rewrite.tracked))

let test_rewrite_finite_ub () =
  List.iter
    (fun comp ->
      let model = Model.create () in
      let ir = F.Ir.create ~name:"ub" () in
      ignore (F.Ir.add_cols ~ub:1.5 ir 1);
      F.Ir.set_objective ir [ (0, 3.) ];
      F.Ir.add_row ir
        {
          F.Ir.row_name = "cap_0";
          inner_terms = [ (0, 1.) ];
          outer_terms = [];
          sense = F.Ir.Le;
          rhs = 10.;
        };
      let e = F.Kkt_rewrite.emit ~comp model ir in
      Alcotest.(check bool)
        "eta emitted for finite ub" true
        (e.F.Kkt_rewrite.ub_duals.(0) <> None);
      let p = solve_feasibility model in
      (* the binding constraint is the column bound, not the row *)
      check_float "pinned at ub" 4.5 (Linexpr.eval e.F.Kkt_rewrite.value (Array.get p));
      check_float "x at ub" 1.5 p.(e.F.Kkt_rewrite.x.(0)))
    [ F.Kkt_rewrite.Sos1; F.Kkt_rewrite.Big_m { fallback = 20. } ]

(* random follower LPs: hand, IR/SOS1, IR/big-M and the direct solve all
   agree on the optimum *)
let rewrite_differential_property =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* m = int_range 1 3 in
      let* a = array_size (return (m * n)) (float_range 0. 4.) in
      let* b = array_size (return m) (float_range 1. 10.) in
      let* c = array_size (return n) (float_range 0.1 5.) in
      return (n, m, a, b, c))
  in
  QCheck.Test.make ~count:40 ~name:"hand = IR sos1 = IR big-M = direct"
    (QCheck.make gen) (fun (n, m, a, b, c) ->
      let rows =
        ({
           F.Ir.row_name = "budget";
           inner_terms = List.init n (fun j -> (j, 1.));
           outer_terms = [];
           sense = F.Ir.Le;
           rhs = 50.;
         }
        :: List.init m (fun i ->
               {
                 F.Ir.row_name = Printf.sprintf "r_%d" i;
                 inner_terms =
                   List.filter_map
                     (fun j ->
                       let v = a.((i * n) + j) in
                       if v = 0. then None else Some (j, v))
                     (List.init n (fun j -> j));
                 outer_terms = [];
                 sense = F.Ir.Le;
                 rhs = b.(i);
               }))
      in
      let follower () =
        let ir = F.Ir.create ~name:"prop" () in
        ignore (F.Ir.add_cols ir n);
        F.Ir.set_objective ir (List.init n (fun j -> (j, c.(j))));
        F.Ir.add_rows ir rows;
        ir
      in
      let value_of engine comp =
        let model = Model.create () in
        let value =
          match engine with
          | `Hand -> (Kkt_reference.emit model (follower ())).Kkt_reference.value
          | `Ir -> (F.Kkt_rewrite.emit ?comp model (follower ())).F.Kkt_rewrite.value
        in
        Model.set_objective model Model.Maximize Linexpr.zero;
        let r = Solver.solve model in
        if r.Branch_bound.outcome <> Branch_bound.Optimal then
          QCheck.Test.fail_reportf "KKT system not solved";
        Linexpr.eval value (Array.get (Option.get r.Branch_bound.primal))
      in
      let direct =
        (F.Ir.solve_directly (follower ()) ~outer_values:(fun _ -> 0.))
          .Solver.objective
      in
      let hand = value_of `Hand None in
      let sos = value_of `Ir None in
      let bigm =
        value_of `Ir (Some (F.Kkt_rewrite.Big_m { fallback = 200. }))
      in
      if
        Float.abs (hand -. direct) > 1e-6
        || Float.abs (sos -. direct) > 1e-6
        || Float.abs (bigm -. direct) > 1e-5
      then
        QCheck.Test.fail_reportf "hand %g sos %g bigm %g direct %g" hand sos
          bigm direct
      else true)

(* ------------------------------------------------------------------ *)
(* Bigm + Presolve.var_intervals                                       *)
(* ------------------------------------------------------------------ *)

let test_var_intervals () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" m in
  let y = Model.add_var ~name:"y" ~ub:10. m in
  ignore (Model.add_constr m (Linexpr.var x) Model.Le 4.);
  ignore (Model.add_constr m (Linexpr.var y) Model.Eq 7.);
  (match Presolve.var_intervals m with
  | None -> Alcotest.fail "feasible model reported infeasible"
  | Some iv ->
      let _, xu = iv.(x) in
      let yl, yu = iv.(y) in
      Alcotest.(check bool) "x tightened" true (xu <= 4. +. 1e-9);
      Alcotest.(check bool) "y fixed" true
        (Float.abs (yl -. 7.) <= 1e-9 && Float.abs (yu -. 7.) <= 1e-9));
  let bad = Model.create () in
  let z = Model.add_var ~name:"z" ~ub:1. bad in
  ignore (Model.add_constr bad (Linexpr.var z) Model.Ge 2.);
  Alcotest.(check bool) "infeasible -> None" true
    (Presolve.var_intervals bad = None)

let test_bigm_derivation_and_fallback () =
  F.Bigm.reset_fallbacks ();
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~ub:3. m in
  let free = Model.add_var ~name:"free" m in
  let iv = F.Bigm.host_intervals m in
  let d =
    F.Bigm.derive_ub ~context:"t/bounded" ~var_interval:iv ~fallback:99.
      [ (x, 2.) ]
  in
  Alcotest.(check bool) "derived" true d.F.Bigm.derived;
  check_float "activity bound" 6. d.F.Bigm.m;
  Alcotest.(check int) "no fallback yet" 0 (F.Bigm.fallbacks_noted ());
  let f =
    F.Bigm.derive_ub ~context:"t/unbounded" ~var_interval:iv ~fallback:99.
      [ (free, 1.) ]
  in
  Alcotest.(check bool) "fell back" false f.F.Bigm.derived;
  check_float "fallback value" 99. f.F.Bigm.m;
  Alcotest.(check int) "fallback noted" 1 (F.Bigm.fallbacks_noted ());
  F.Bigm.reset_fallbacks ();
  Alcotest.(check int) "reset" 0 (F.Bigm.fallbacks_noted ())

(* the satellite regression: a hand-tuned big-M that is too small cuts
   the adversary's optimum; the audit must flag it on the incumbent
   instead of letting it pass silently *)
let dp_gap_with ?big_m () =
  let pathset = fig1_pathset () in
  let demand_ub = Graph.max_capacity (Pathset.graph pathset) in
  let threshold = 0.05 *. demand_ub in
  let model = Model.create () in
  let space = Pathset.space pathset in
  let demand_vars =
    Array.init (Demand.size space) (fun k ->
        ignore k;
        Model.add_var ~name:"d" ~ub:demand_ub model)
  in
  let opt_vars =
    Mcf.add_feasible_flow ~prefix:"opt_f" model pathset (Mcf.Var demand_vars)
  in
  let enc =
    Dp_encoding.encode model pathset ~demand_vars ~threshold ~demand_ub
      ?big_m ()
  in
  Model.set_objective model Model.Maximize
    (Linexpr.sub (Mcf.total_flow_expr opt_vars) enc.Dp_encoding.value);
  let r = Solver.solve ~presolve:true model in
  Alcotest.(check bool) "solved" true
    (r.Branch_bound.outcome = Branch_bound.Optimal);
  let primal = Option.get r.Branch_bound.primal in
  (r.Branch_bound.objective, F.Bigm.audit primal enc.Dp_encoding.tracked)

let test_dp_small_big_m_detected () =
  let full_gap, full_audit = dp_gap_with () in
  Alcotest.(check int) "derived M passes the audit" 0 (List.length full_audit);
  let pathset = fig1_pathset () in
  let demand_ub = Graph.max_capacity (Pathset.graph pathset) in
  (* far below any demand the adversary wants to leave unpinned *)
  let cut_gap, cut_audit = dp_gap_with ~big_m:(0.02 *. demand_ub) () in
  Alcotest.(check bool)
    (Printf.sprintf "optimum visibly cut (%g < %g)" cut_gap full_gap)
    true
    (cut_gap < full_gap -. 1e-3);
  Alcotest.(check bool) "audit flags saturated gates" true (cut_audit <> [])

(* ------------------------------------------------------------------ *)
(* golden model digests                                                *)
(* ------------------------------------------------------------------ *)

(* (vars, rows, SOS1, [Model_digest]) of each model, pinned when the DP
   and POP followers were first written directly as Ir values: the
   encoding must keep emitting these models bit for bit, and a change
   that means to alter them updates the digests on purpose. *)
let check_golden what (vars, rows, sos1, digest) model =
  Alcotest.(check (triple int int int))
    (what ^ " sizes") (vars, rows, sos1)
    (Model.num_vars model, Model.num_constrs model, Model.num_sos1 model);
  Alcotest.(check string) (what ^ " digest") digest (Model_digest.digest model)

let pathset_of g = Pathset.compute (Demand.full_space g) ~k:2

let solve_gap ?(jobs = 1) ?backend gp =
  let options =
    { Branch_bound.default_options with jobs; backend; time_limit = 60. }
  in
  let r = Solver.solve ~options ~presolve:true gp.Gap_problem.model in
  Alcotest.(check bool) "solved" true
    (r.Branch_bound.outcome = Branch_bound.Optimal);
  r.Branch_bound.objective

let test_dp_golden_both_backends () =
  let pathset = fig1_pathset () in
  let heuristic = Gap_problem.Dp { threshold = 5. } in
  check_golden "fig1 DP"
    (41, 26, 14, "64cd05259141b1faec587cd6119dd545")
    (Gap_problem.build pathset ~heuristic ()).Gap_problem.model;
  let value backend =
    solve_gap ?backend (Gap_problem.build pathset ~heuristic ())
  in
  let v = value None in
  List.iter
    (fun backend ->
      let vb = value (Some backend) in
      if Float.abs (v -. vb) > 1e-6 then
        Alcotest.failf "dp default %g <> %s %g" v
          (Backend.kind_to_string backend)
          vb)
    [ Backend.Sparse; Backend.Dense ]

let test_pop_golden_and_jobs () =
  let pathset = fig1_pathset () in
  let num_pairs = Demand.size (Pathset.space pathset) in
  let partitions =
    List.init 2 (fun i ->
        Pop.random_partition ~rng:(Rng.create (i + 1)) ~num_pairs ~parts:2)
  in
  let heuristic =
    Gap_problem.Pop { parts = 2; partitions; reduce = `Average }
  in
  check_golden "fig1 POP"
    (60, 32, 24, "6a98815015e7721b8c2ab6cc353e7393")
    (Gap_problem.build pathset ~heuristic ()).Gap_problem.model;
  let v1 = solve_gap (Gap_problem.build pathset ~heuristic ()) in
  let v4 = solve_gap ~jobs:4 (Gap_problem.build pathset ~heuristic ()) in
  Alcotest.(check (float 1e-5)) "jobs=1 = jobs=4" v1 v4

(* the models findgap-dp (b4 DP at its first threshold fraction) and
   prove-small (star-4 DP, line-4 POP) search *)
let b4_dp () =
  let g = Topologies.b4 () in
  (pathset_of g, Gap_problem.Dp { threshold = 0.05 *. Graph.max_capacity g })

let line4_pop () =
  let ev =
    Evaluate.make_pop
      (pathset_of (Topologies.line ~n:4 ()))
      ~parts:2 ~instances:2 ~rng:(Rng.create 1) ()
  in
  (ev.Evaluate.pathset, Adversary.heuristic_of_spec ev)

let test_benchmark_models_golden () =
  let build (pathset, heuristic) =
    (Gap_problem.build pathset ~heuristic ()).Gap_problem.model
  in
  check_golden "b4 DP"
    (1924, 1132, 698, "8118d665a50b6fe0f7089ae6aab31fb5")
    (build (b4_dp ()));
  let star = Topologies.star ~n:4 () in
  check_golden "star-4 DP"
    (120, 84, 42, "c8c83187e442b2418b2f46cad4404408")
    (build
       ( pathset_of star,
         Gap_problem.Dp { threshold = 0.05 *. Graph.max_capacity star } ));
  check_golden "line-4 POP"
    (164, 89, 69, "657ce1eddffa906e562853fe1a5f2b73")
    (build (line4_pop ()))

let test_naive_metaopt_golden () =
  let check what golden (pathset, heuristic) =
    let model = Gap_problem.naive_metaopt pathset ~heuristic in
    check_golden what golden model;
    Alcotest.(check (triple int int int))
      (what ^ " = baseline_sizes")
      (List.assoc "naive-metaopt" (Gap_problem.baseline_sizes pathset ~heuristic))
      (Model.num_vars model, Model.num_constrs model, Model.num_sos1 model)
  in
  check "naive fig1 DP"
    (57, 30, 24, "39f6548fe684d6410d4fca5bae47971b")
    (fig1_pathset (), Gap_problem.Dp { threshold = 50. });
  check "naive b4 DP"
    (2528, 1396, 1132, "9cb00fb6ee33a31fb4fd32bdba5fd919")
    (b4_dp ());
  check "naive line-4 POP"
    (212, 101, 99, "f0f0730be5f3c6ac5410852779c45f37")
    (line4_pop ())

(* the golden checks are only as strong as the digest: a change to any
   one field a public accessor exposes, down to one ulp of a bound, must
   change it, and rebuilding the same model must not *)
let digest_sample variant =
  let is v = variant = v in
  let m = Model.create () in
  let x =
    Model.add_var
      ~name:(if is `Var_name then "x1" else "x")
      ~lb:(if is `Var_lb then 0.5 else 0.)
      ~ub:(if is `Var_ub then 9. else 10.)
      ~kind:(if is `Var_kind then Model.Integer else Model.Continuous)
      m
  in
  let y = Model.add_var ~name:"y" ~ub:10. m in
  let z = Model.add_var ~name:"z" ~ub:10. m in
  ignore
    (Model.add_constr
       ~name:(if is `Row_name then "c1" else "c")
       m
       (Linexpr.of_terms [ (x, 1.); (y, if is `Row_coef then 3. else 2.) ])
       (if is `Row_sense then Model.Ge else Model.Le)
       (if is `Row_rhs then Float.succ 6. else 6.));
  Model.add_sos1 m (if is `Sos1 then [ x; z ] else [ y; z ]);
  Model.set_objective m
    (if is `Obj_dir then Model.Minimize else Model.Maximize)
    (Linexpr.of_terms
       ~constant:(if is `Obj_const then 1. else 0.)
       [ (x, if is `Obj_coef then 2. else 1.); (z, 1.) ]);
  m

let test_digest_sees_every_field () =
  let base = Model_digest.digest (digest_sample `Base) in
  Alcotest.(check string) "rebuild is stable" base
    (Model_digest.digest (digest_sample `Base));
  let variants =
    [
      ("var name", `Var_name);
      ("var lb", `Var_lb);
      ("var ub", `Var_ub);
      ("var kind", `Var_kind);
      ("row name", `Row_name);
      ("row sense", `Row_sense);
      ("row rhs by one ulp", `Row_rhs);
      ("row coefficient", `Row_coef);
      ("sos1 group", `Sos1);
      ("objective direction", `Obj_dir);
      ("objective coefficient", `Obj_coef);
      ("objective constant", `Obj_const);
    ]
  in
  let digests =
    List.map
      (fun (what, v) ->
        let d = Model_digest.digest (digest_sample v) in
        Alcotest.(check bool) (what ^ " changes the digest") true (d <> base);
        d)
      variants
  in
  Alcotest.(check int)
    "every variant has its own digest" (List.length variants)
    (List.length (List.sort_uniq compare digests))

(* ------------------------------------------------------------------ *)
(* Flow_rows: the follower the DP and POP encodings rewrite            *)
(* ------------------------------------------------------------------ *)

let test_flow_rows_indexing () =
  let pathset = fig1_pathset () in
  let only k = k mod 2 = 1 in
  let fr = Flow_rows.make pathset ~only in
  let expected = ref 0 in
  for k = 0 to Pathset.num_pairs pathset - 1 do
    let inc = only k && Pathset.routable pathset k in
    Alcotest.(check bool)
      (Printf.sprintf "pair %d included" k)
      inc (Flow_rows.included fr k);
    if inc then begin
      let np = Array.length (Pathset.paths_of_pair pathset k) in
      for p = 0 to np - 1 do
        Alcotest.(check (pair int int))
          "pair_of_var inverts var" (k, p)
          (Flow_rows.pair_of_var fr (Flow_rows.var fr ~pair:k ~path:p))
      done;
      Alcotest.check_raises "bad path" (Invalid_argument "Flow_rows.var: bad path")
        (fun () -> ignore (Flow_rows.var fr ~pair:k ~path:np));
      expected := !expected + np
    end
    else
      Alcotest.check_raises "excluded pair"
        (Invalid_argument "Flow_rows.var: excluded pair") (fun () ->
          ignore (Flow_rows.var fr ~pair:k ~path:0))
  done;
  Alcotest.(check bool) "some pairs included" true (!expected > 0);
  Alcotest.(check int) "one column per included path" !expected
    (Flow_rows.num_vars fr);
  Alcotest.(check (list (pair int (float 0.))))
    "objective: unit weight on every column"
    (List.init !expected (fun v -> (v, 1.)))
    (Flow_rows.objective fr)

let test_flow_rows_shapes () =
  let pathset = fig1_pathset () in
  let g = Pathset.graph pathset in
  let host = Model.create () in
  let demand_vars = Model.add_vars ~name:"d" host (Pathset.num_pairs pathset) in
  let fr = Flow_rows.make pathset ~only:(fun k -> k <> 0) in
  let sorted l = List.sort compare l in
  let dem = Flow_rows.demand_rows fr ~demand_vars in
  Alcotest.(check int)
    "one demand row per included pair"
    (List.length
       (List.filter (Flow_rows.included fr)
          (List.init (Pathset.num_pairs pathset) Fun.id)))
    (List.length dem);
  List.iter
    (fun (r : F.Ir.row) ->
      let k = Scanf.sscanf r.F.Ir.row_name "dem_%d" Fun.id in
      let np = Array.length (Pathset.paths_of_pair pathset k) in
      Alcotest.(check bool) (r.F.Ir.row_name ^ " is <= 0") true
        (r.F.Ir.sense = F.Ir.Le && r.F.Ir.rhs = 0.);
      Alcotest.(check (list (pair int (float 0.))))
        (r.F.Ir.row_name ^ " sums the pair's paths")
        (List.init np (fun p -> (Flow_rows.var fr ~pair:k ~path:p, 1.)))
        (sorted r.F.Ir.inner_terms);
      Alcotest.(check bool) (r.F.Ir.row_name ^ " minus its demand") true
        (r.F.Ir.outer_terms = [ (demand_vars.(k), -1.) ]))
    dem;
  let cap = Flow_rows.capacity_rows fr in
  for e = 0 to Graph.num_edges g - 1 do
    let users =
      List.filter_map
        (fun (k, p) ->
          if Flow_rows.included fr k then Some (Flow_rows.var fr ~pair:k ~path:p, 1.)
          else None)
        (Pathset.pairs_using_edge pathset e)
    in
    let name = Printf.sprintf "cap_%d" e in
    match List.find_opt (fun r -> r.F.Ir.row_name = name) cap with
    | None -> Alcotest.(check int) (name ^ " absent: no users") 0 (List.length users)
    | Some r ->
        check_float (name ^ " rhs") (Graph.capacity g e) r.F.Ir.rhs;
        Alcotest.(check (list (pair int (float 0.))))
          (name ^ " covers the edge's users") (sorted users)
          (sorted r.F.Ir.inner_terms)
  done

(* the max-total-flow follower over every pair, with fresh host demand
   variables: the follower both encodings KKT-rewrite *)
let flow_follower pathset host =
  let demand_vars = Model.add_vars ~name:"d" host (Pathset.num_pairs pathset) in
  let fr = Flow_rows.make pathset ~only:(fun _ -> true) in
  let rows = Flow_rows.demand_rows fr ~demand_vars @ Flow_rows.capacity_rows fr in
  (demand_vars, Flow_rows.follower fr ~name:"mf" rows)

let sample_demands pathset =
  let space = Pathset.space pathset in
  let cap = Graph.max_capacity (Pathset.graph pathset) in
  let rng = Rng.create 7 in
  [
    Demand.zero space;
    Demand.constant space cap;
    Demand.uniform space ~rng ~max:cap;
    Demand.uniform space ~rng ~max:(0.3 *. cap);
  ]

let test_flow_follower_is_opt () =
  List.iter
    (fun (what, g) ->
      let pathset = pathset_of g in
      let demand_vars, ir = flow_follower pathset (Model.create ()) in
      List.iter
        (fun d ->
          let of_var = Hashtbl.create 16 in
          Array.iteri (fun k v -> Hashtbl.replace of_var v d.(k)) demand_vars;
          let direct =
            F.Ir.solve_directly ir ~outer_values:(Hashtbl.find of_var)
          in
          Alcotest.(check (float 1e-6))
            (what ^ ": follower = OptMaxFlow")
            (Opt_max_flow.solve pathset d).Opt_max_flow.total
            direct.Solver.objective)
        (sample_demands pathset))
    [
      ("fig1", Topologies.fig1 ());
      ("line-4", Topologies.line ~n:4 ());
      ("abilene", Topologies.abilene ());
    ]

(* with the demands fixed, the KKT system of either emitter pins its
   value to OptMaxFlow *)
let test_flow_follower_kkt_value () =
  let emitters =
    [
      ("reference", fun m ir -> (Kkt_reference.emit m ir).Kkt_reference.value);
      ("rewriter", fun m ir -> (F.Kkt_rewrite.emit m ir).F.Kkt_rewrite.value);
    ]
  in
  List.iter
    (fun (what, g) ->
      let pathset = pathset_of g in
      List.iter
        (fun d ->
          let opt = (Opt_max_flow.solve pathset d).Opt_max_flow.total in
          List.iter
            (fun (engine, emit) ->
              let host = Model.create () in
              let demand_vars, ir = flow_follower pathset host in
              Array.iteri
                (fun k v -> Model.set_var_bounds host v ~lb:d.(k) ~ub:d.(k))
                demand_vars;
              let value = emit host ir in
              let p = solve_feasibility host in
              Alcotest.(check (float 1e-5))
                (Printf.sprintf "%s %s value = OptMaxFlow" what engine)
                opt
                (Linexpr.eval value (Array.get p)))
            emitters)
        (sample_demands pathset))
    [ ("fig1", Topologies.fig1 ()); ("line-4", Topologies.line ~n:4 ()) ]

(* the reference and the rewriter emit the same model for real flow
   followers too, over every pair and over a POP-like subset *)
let test_flow_follower_reference_digest () =
  List.iter
    (fun (what, g, only) ->
      let pathset = pathset_of g in
      let digest emit =
        let host = Model.create () in
        let demand_vars =
          Model.add_vars ~name:"d" host (Pathset.num_pairs pathset)
        in
        let fr = Flow_rows.make pathset ~only in
        emit host
          (Flow_rows.follower fr ~name:"mf"
             (Flow_rows.demand_rows fr ~demand_vars
             @ Flow_rows.capacity_rows fr));
        Model_digest.digest host
      in
      Alcotest.(check string)
        (what ^ ": same model")
        (digest (fun m ir -> ignore (Kkt_reference.emit m ir)))
        (digest (fun m ir -> ignore (F.Kkt_rewrite.emit m ir))))
    [
      ("fig1, every pair", Topologies.fig1 (), fun _ -> true);
      ("b4, even pairs", Topologies.b4 (), fun k -> k mod 2 = 0);
    ]

(* ------------------------------------------------------------------ *)
(* binpack                                                             *)
(* ------------------------------------------------------------------ *)

let thirds = [| 0.4; 0.4; 0.3; 0.3; 0.3; 0.3 |]

let test_ffd_known_answers () =
  let cfg = F.Binpack.config () in
  let p = F.Binpack.ffd cfg thirds in
  Alcotest.(check int) "ffd on the thirds pattern" 3 p.F.Binpack.bins;
  let opt_bins, outcome = F.Binpack.opt cfg thirds in
  Alcotest.(check bool) "opt proven" true (outcome = Branch_bound.Optimal);
  Alcotest.(check int) "opt repacks into 2" 2 opt_bins;
  (* no gap cases: FFD is optimal on these *)
  let even = [| 0.6; 0.6; 0.35; 0.35; 0.; 0. |] in
  Alcotest.(check int) "ffd pairs big+small" 2 (F.Binpack.ffd cfg even).F.Binpack.bins;
  Alcotest.(check int) "opt agrees" 2 (fst (F.Binpack.opt cfg even))

let test_normalize_sorts_decreasing () =
  let cfg = F.Binpack.config ~items:4 () in
  let a = F.Binpack.normalize cfg [| 0.2; 0.9; 0.5; 1.4 |] in
  Alcotest.(check (array (float 1e-9)))
    "clamped and sorted" [| 1.0; 0.9; 0.5; 0.2 |] a

(* fix the encoded model's size variables to a concrete (grid-snapped)
   instance: the white-box objective must equal the simulated FFD bins
   minus the exact OPT bins *)
let test_encode_matches_simulator () =
  let cfg = F.Binpack.config () in
  let check_instance name a =
    let a = F.Binpack.normalize cfg a in
    let enc = F.Binpack.encode cfg in
    Array.iteri
      (fun i s ->
        ignore
          (Model.add_constr
             ~name:(Printf.sprintf "fix_%d" i)
             enc.F.Binpack.model (Linexpr.var s) Model.Eq a.(i)))
      enc.F.Binpack.sizes;
    let r =
      Solver.solve
        ~options:
          { Branch_bound.default_options with node_limit = 4000; time_limit = 20. }
        ~presolve:true enc.F.Binpack.model
    in
    Alcotest.(check bool) (name ^ " solved") true
      (r.Branch_bound.outcome = Branch_bound.Optimal);
    let ffd = (F.Binpack.ffd cfg a).F.Binpack.bins in
    let opt_bins, outcome = F.Binpack.opt cfg a in
    Alcotest.(check bool) (name ^ " opt proven") true
      (outcome = Branch_bound.Optimal);
    Alcotest.(check (float 1e-5))
      (name ^ " white-box gap = simulated gap")
      (float_of_int (ffd - opt_bins))
      r.Branch_bound.objective
  in
  check_instance "thirds" thirds;
  (* a snapped non-adversarial instance exercising partial fills *)
  check_instance "mixed" [| 0.55; 0.45; 0.35; 0.25; 0.2; 0.1 |]

let test_find_gap_seeded () =
  let r = F.Binpack.find_gap (F.Binpack.config ()) in
  Alcotest.(check bool) "nonzero adversarial gap" true (r.F.Binpack.gap >= 1);
  Alcotest.(check int) "gap = ffd - opt"
    (r.F.Binpack.ffd_bins - r.F.Binpack.opt_bins)
    r.F.Binpack.gap;
  Alcotest.(check bool) "oracle proved every OPT" true r.F.Binpack.oracle_closed;
  (* the reported instance really is adversarial when re-simulated *)
  let p = F.Binpack.ffd r.F.Binpack.config r.F.Binpack.instance in
  Alcotest.(check int) "instance replays" r.F.Binpack.ffd_bins p.F.Binpack.bins

let test_find_gap_two_dims () =
  let cfg = F.Binpack.config ~items:6 ~dims:2 () in
  let r =
    F.Binpack.find_gap
      ~options:{ F.Binpack.default_options with run_milp = false }
      cfg
  in
  Alcotest.(check bool) "2-d probes find a gap" true (r.F.Binpack.gap >= 1)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "follower"
    [
      ( "ir",
        [
          Alcotest.test_case "construction" `Quick test_ir_construction;
          Alcotest.test_case "solve directly" `Quick test_ir_solve_directly;
          Alcotest.test_case "rejects bad columns" `Quick test_ir_rejects_bad_columns;
        ] );
      ( "kkt_rewrite",
        [
          Alcotest.test_case "matches hand emitter" `Quick test_rewrite_matches_hand_exactly;
          Alcotest.test_case "big-M mode agrees" `Quick test_rewrite_big_m_agrees;
          Alcotest.test_case "finite column ub" `Quick test_rewrite_finite_ub;
          q rewrite_differential_property;
        ] );
      ( "bigm",
        [
          Alcotest.test_case "presolve var intervals" `Quick test_var_intervals;
          Alcotest.test_case "derive and fallback" `Quick test_bigm_derivation_and_fallback;
          Alcotest.test_case "small big-M detected" `Slow test_dp_small_big_m_detected;
        ] );
      ( "golden",
        [
          Alcotest.test_case "dp digest, both backends" `Slow test_dp_golden_both_backends;
          Alcotest.test_case "pop digest, jobs 1=4" `Slow test_pop_golden_and_jobs;
          Alcotest.test_case "benchmark models" `Quick test_benchmark_models_golden;
          Alcotest.test_case "naive-metaopt models" `Quick test_naive_metaopt_golden;
          Alcotest.test_case "digest sees every field" `Quick
            test_digest_sees_every_field;
        ] );
      ( "flow_rows",
        [
          Alcotest.test_case "indexing" `Quick test_flow_rows_indexing;
          Alcotest.test_case "row shapes" `Quick test_flow_rows_shapes;
          Alcotest.test_case "follower = OptMaxFlow" `Quick test_flow_follower_is_opt;
          Alcotest.test_case "kkt value = OptMaxFlow" `Quick
            test_flow_follower_kkt_value;
          Alcotest.test_case "reference = rewriter" `Quick
            test_flow_follower_reference_digest;
        ] );
      ( "binpack",
        [
          Alcotest.test_case "ffd/opt known answers" `Quick test_ffd_known_answers;
          Alcotest.test_case "normalize" `Quick test_normalize_sorts_decreasing;
          Alcotest.test_case "encoding = simulator" `Slow test_encode_matches_simulator;
          Alcotest.test_case "seeded find-gap" `Slow test_find_gap_seeded;
          Alcotest.test_case "two dims probes" `Quick test_find_gap_two_dims;
        ] );
    ]
