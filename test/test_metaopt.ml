(* Tests for the metaoptimization core (Repro_metaopt): KKT rewrite,
   heuristic encodings, gap problem, black-box baselines and the
   end-to-end white-box adversary. *)

open Repro_lp
open Repro_topology
open Repro_te
open Repro_metaopt

let check_float = Alcotest.(check (float 1e-5))

(* ------------------------------------------------------------------ *)
(* KKT rewrite: Kkt_rewrite and the hand-derived reference            *)
(* ------------------------------------------------------------------ *)

module Ir = Repro_follower.Ir

(* Both emitters, each reduced to (host copies of x, follower value):
   every KKT case below runs against the reference and the rewriter. *)
let emitters =
  [
    ( "reference",
      fun model ir ->
        let e = Kkt_reference.emit model ir in
        (e.Kkt_reference.x, e.Kkt_reference.value) );
    ( "rewrite",
      fun model ir ->
        let e = Repro_follower.Kkt_rewrite.emit model ir in
        (e.Repro_follower.Kkt_rewrite.x, e.Repro_follower.Kkt_rewrite.value) );
  ]

let for_each_emitter f = List.iter (fun (name, emit) -> f name emit) emitters

let follower ~name ~num_vars ~objective rows =
  let ir = Ir.create ~name () in
  ignore (Ir.add_cols ir num_vars);
  Ir.set_objective ir objective;
  Ir.add_rows ir rows;
  ir

let le_row ?(outer_terms = []) row_name inner_terms rhs =
  { Ir.row_name; inner_terms; outer_terms; sense = Ir.Le; rhs }

(* max x s.t. x <= P, with outer variable P fixed by bounds: any
   KKT-feasible point must put x = P (the LP analog of Fig 2's worked
   example: the follower's response is pinned by the rewrite alone). *)
let test_kkt_pins_follower_optimum () =
  for_each_emitter (fun name emit ->
      let model = Model.create () in
      let p = Model.add_var ~name:"P" ~lb:7. ~ub:7. model in
      let x, _ =
        emit model
          (follower ~name:"toy" ~num_vars:1 ~objective:[ (0, 1.) ]
             [ le_row "cap" [ (0, 1.) ] ~outer_terms:[ (p, -1.) ] 0. ])
      in
      (* pure feasibility: no objective preference on x *)
      Model.set_objective model Model.Maximize Linexpr.zero;
      let r = Solver.solve model in
      Alcotest.(check bool) (name ^ " solved") true
        (r.Branch_bound.outcome = Branch_bound.Optimal);
      check_float
        (name ^ " follower forced to optimum")
        7.
        (Option.get r.Branch_bound.primal).(x.(0)))

(* Even when the host objective pulls the follower's copy DOWN, KKT keeps
   it at the follower's optimum - this is exactly why the heuristic term
   of eq. (1) needs the rewrite. *)
let test_kkt_resists_adversarial_host_objective () =
  for_each_emitter (fun name emit ->
      let model = Model.create () in
      let p = Model.add_var ~name:"P" ~lb:5. ~ub:5. model in
      let _, value =
        emit model
          (follower ~name:"toy" ~num_vars:1 ~objective:[ (0, 1.) ]
             [ le_row "cap" [ (0, 1.) ] ~outer_terms:[ (p, -1.) ] 0. ])
      in
      Model.set_objective model Model.Minimize value;
      let r = Solver.solve model in
      check_float
        (name ^ " minimizing the follower value cannot dent it")
        5. r.Branch_bound.objective)

let test_kkt_equality_rows () =
  (* max x1 + x2 s.t. x1 + x2 = 4, x1 <= 3: optimum 4 *)
  for_each_emitter (fun name emit ->
      let model = Model.create () in
      let _, value =
        emit model
          (follower ~name:"eq" ~num_vars:2 ~objective:[ (0, 1.); (1, 1.) ]
             [
               {
                 Ir.row_name = "sum";
                 inner_terms = [ (0, 1.); (1, 1.) ];
                 outer_terms = [];
                 sense = Ir.Eq;
                 rhs = 4.;
               };
               le_row "x1cap" [ (0, 1.) ] 3.;
             ])
      in
      Model.set_objective model Model.Minimize value;
      let r = Solver.solve model in
      check_float (name ^ " equality follower") 4. r.Branch_bound.objective)

let test_kkt_infeasible_follower_infeasible_host () =
  (* x <= -1 with x >= 0 is an infeasible follower: KKT must be too *)
  for_each_emitter (fun name emit ->
      let model = Model.create () in
      ignore
        (emit model
           (follower ~name:"inf" ~num_vars:1 ~objective:[ (0, 1.) ]
              [ le_row "neg" [ (0, 1.) ] (-1.) ]));
      Model.set_objective model Model.Maximize Linexpr.zero;
      let r = Solver.solve model in
      Alcotest.(check bool) (name ^ " infeasible") true
        (r.Branch_bound.outcome = Branch_bound.Infeasible))

(* Property: for random follower LPs, the KKT system's value equals the
   directly-solved follower optimum, for both emitters. *)
let kkt_matches_direct_property =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* m = int_range 1 4 in
      let* a = array_size (return (m * n)) (float_range 0. 4.) in
      let* b = array_size (return m) (float_range 1. 10.) in
      let* c = array_size (return n) (float_range 0.1 5.) in
      return (n, m, a, b, c))
  in
  QCheck.Test.make ~count:60 ~name:"KKT value = direct follower optimum"
    (QCheck.make gen) (fun (n, m, a, b, c) ->
      (* nonneg A and c > 0 with b >= 1: feasible (x=0) and bounded *)
      let rows =
        List.init m (fun i ->
            le_row (Printf.sprintf "r%d" i)
              (List.filter_map
                 (fun j ->
                   let v = a.((i * n) + j) in
                   if v = 0. then None else Some (j, v))
                 (List.init n (fun j -> j)))
              b.(i))
      in
      (* keep it bounded: budget row over all vars *)
      let budget = le_row "budget" (List.init n (fun j -> (j, 1.))) 50. in
      let ir =
        follower ~name:"prop" ~num_vars:n
          ~objective:(List.init n (fun j -> (j, c.(j))))
          (budget :: rows)
      in
      let direct = Ir.solve_directly ir ~outer_values:(fun _ -> 0.) in
      List.for_all
        (fun (name, emit) ->
          let model = Model.create () in
          let xs, _ = emit model ir in
          Model.set_objective model Model.Maximize Linexpr.zero;
          let r = Solver.solve model in
          if r.Branch_bound.outcome <> Branch_bound.Optimal then
            QCheck.Test.fail_reportf "%s: KKT system not solved" name;
          let x = Array.map (fun v -> (Option.get r.Branch_bound.primal).(v)) xs in
          let kkt_value = Ir.value ir x in
          if Float.abs (kkt_value -. direct.Solver.objective) > 1e-4 then
            QCheck.Test.fail_reportf "%s: kkt %g <> direct %g" name kkt_value
              direct.Solver.objective
          else true)
        emitters)

(* ------------------------------------------------------------------ *)
(* Evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let fig1_pathset () =
  let g = Topologies.fig1 () in
  Pathset.compute (Demand.full_space g) ~k:2

let fig1_demand pathset ~d01 ~d12 ~d02 =
  let space = Pathset.space pathset in
  let demand = Demand.zero space in
  demand.(Option.get (Demand.index space ~src:0 ~dst:1)) <- d01;
  demand.(Option.get (Demand.index space ~src:1 ~dst:2)) <- d12;
  demand.(Option.get (Demand.index space ~src:0 ~dst:2)) <- d02;
  demand

let test_evaluate_dp_fig1 () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let demand = fig1_demand pathset ~d01:130. ~d12:180. ~d02:50. in
  check_float "opt" 360. (Evaluate.opt_value ev demand);
  check_float "dp" 260. (Option.get (Evaluate.heuristic_value ev demand));
  check_float "gap" 100. (Option.get (Evaluate.gap ev demand));
  check_float "normalized" (100. /. 360.)
    (Option.get (Evaluate.normalized_gap ev demand))

let test_evaluate_pop_average () =
  let g = Topologies.abilene () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let rng = Rng.create 5 in
  let ev = Evaluate.make_pop pathset ~parts:2 ~instances:3 ~rng () in
  Alcotest.(check int) "three instances" 3 (List.length (Evaluate.partitions ev));
  let demand = Demand.uniform (Pathset.space pathset) ~rng ~max:400. in
  let h = Option.get (Evaluate.heuristic_value ev demand) in
  let opt = Evaluate.opt_value ev demand in
  Alcotest.(check bool) "pop <= opt" true (h <= opt +. 1e-6);
  (* average equals the mean of per-instance runs *)
  let totals =
    List.map
      (fun p -> (Pop.solve pathset ~parts:2 p demand).Pop.total)
      (Evaluate.partitions ev)
  in
  check_float "average" (List.fold_left ( +. ) 0. totals /. 3.) h

let test_evaluate_pop_kth_smallest () =
  let g = Topologies.swan () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let rng = Rng.create 6 in
  let ev_avg = Evaluate.make_pop pathset ~parts:2 ~instances:4 ~rng:(Rng.create 6) () in
  let ev_tail =
    Evaluate.make_pop pathset ~parts:2 ~instances:4 ~rng:(Rng.create 6)
      ~reduce:(`Kth_smallest 1) ()
  in
  let demand = Demand.uniform (Pathset.space pathset) ~rng ~max:300. in
  let avg = Option.get (Evaluate.heuristic_value ev_avg demand) in
  let worst = Option.get (Evaluate.heuristic_value ev_tail demand) in
  Alcotest.(check bool) "worst instance <= average" true (worst <= avg +. 1e-9)

let test_evaluate_dp_infeasible () =
  let g = Graph.create ~num_nodes:3 () in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:10. () in
  let _ = Graph.add_edge g ~src:1 ~dst:2 ~capacity:10. () in
  let space = Demand.space_of_pairs g [| (0, 1); (0, 2) |] in
  let pathset = Pathset.compute space ~k:1 in
  let ev = Evaluate.make_dp pathset ~threshold:8. in
  Alcotest.(check bool) "infeasible pinning = None" true
    (Evaluate.gap ev [| 8.; 8. |] = None)

(* A cache hook is consulted before any solve: cached values are
   returned as they are (no insert), and a cached infeasibility makes
   the gap [None] without an OPT lookup. *)
let test_evaluate_cache_hook_answers_first () =
  let pathset = fig1_pathset () in
  let demand = fig1_demand pathset ~d01:130. ~d12:180. ~d02:50. in
  let inserts = ref 0 and opt_lookups = ref 0 in
  let hook heur =
    {
      Evaluate.lookup =
        (fun ~tag _ ->
          if tag = "opt" then (
            incr opt_lookups;
            Some (Some 500.))
          else Some heur);
      insert = (fun ~tag:_ _ _ -> incr inserts);
    }
  in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let cached = Evaluate.with_cache ev (Some (hook (Some 123.))) in
  check_float "gap from cached values" 377.
    (Option.get (Evaluate.gap cached demand));
  let infeasible = Evaluate.with_cache ev (Some (hook None)) in
  opt_lookups := 0;
  Alcotest.(check bool) "cached infeasibility" true
    (Evaluate.gap infeasible demand = None);
  Alcotest.(check int) "no OPT lookup for an infeasible input" 0 !opt_lookups;
  Alcotest.(check int) "hits insert nothing" 0 !inserts

(* A memoising hook leaves every value unchanged and turns a repeated
   query into a lookup: one OPT and one heuristic insert per distinct
   demand. *)
let test_evaluate_memo_hook_transparent () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let table = Hashtbl.create 16 and inserts = ref 0 in
  let hook =
    {
      Evaluate.lookup = (fun ~tag d -> Hashtbl.find_opt table (tag, d));
      insert =
        (fun ~tag d v ->
          incr inserts;
          Hashtbl.replace table (tag, Array.copy d) v);
    }
  in
  let memo = Evaluate.with_cache ev (Some hook) in
  let demands =
    [
      fig1_demand pathset ~d01:130. ~d12:180. ~d02:50.;
      fig1_demand pathset ~d01:10. ~d12:20. ~d02:30.;
      fig1_demand pathset ~d01:180. ~d12:0. ~d02:180.;
    ]
  in
  List.iter
    (fun d ->
      let plain = Evaluate.gap ev d in
      Alcotest.(check (option (float 1e-9))) "first query" plain
        (Evaluate.gap memo d);
      Alcotest.(check (option (float 1e-9))) "repeated query" plain
        (Evaluate.gap memo d))
    demands;
  Alcotest.(check int) "one opt + one heur insert per demand" 6 !inserts

(* ------------------------------------------------------------------ *)
(* Input constraints                                                   *)
(* ------------------------------------------------------------------ *)

let test_constraints_box_and_goalpost () =
  let reference = [| 10.; 20.; 30. |] in
  let c =
    Input_constraints.combine
      (Input_constraints.box ~upper:[| 100.; 100.; 25. |] ())
      (Input_constraints.goalpost ~reference ~distance:5. ~relative:false ())
  in
  Alcotest.(check bool) "ok point" true
    (Input_constraints.satisfied c [| 12.; 18.; 25. |]);
  Alcotest.(check bool) "goalpost violated" false
    (Input_constraints.satisfied c [| 16.; 20.; 30. |]);
  Alcotest.(check bool) "box violated" false
    (Input_constraints.satisfied c [| 10.; 20.; 26. |]);
  let projected = Input_constraints.project c [| 100.; 0.; 60. |] in
  Alcotest.(check bool) "projection satisfies" true
    (Input_constraints.satisfied c projected)

let test_constraints_relative_goalpost () =
  let c =
    Input_constraints.goalpost ~reference:[| 100.; 10. |] ~distance:0.2
      ~relative:true ()
  in
  Alcotest.(check bool) "within 20%" true (Input_constraints.satisfied c [| 119.; 8.5 |]);
  Alcotest.(check bool) "outside 20%" false
    (Input_constraints.satisfied c [| 121.; 10. |])

let test_constraints_partial_goalpost () =
  let c =
    Input_constraints.goalpost ~pairs:[ 0 ] ~reference:[| 10.; 10. |]
      ~distance:1. ~relative:false ()
  in
  (* pair 1 is unconstrained *)
  Alcotest.(check bool) "partial" true (Input_constraints.satisfied c [| 10.5; 999. |])

let test_constraints_within_factor_of_average () =
  let c = Input_constraints.within_factor_of_average ~num_pairs:3 ~factor:2. in
  Alcotest.(check bool) "balanced ok" true
    (Input_constraints.satisfied c [| 10.; 12.; 14. |]);
  Alcotest.(check bool) "spike rejected" false
    (Input_constraints.satisfied c [| 100.; 1.; 1. |])

let test_constraints_hose_model () =
  let g = Topologies.fig1 () in
  let space = Demand.full_space g in
  let egress = [| 100.; 50.; 10. |] and ingress = [| 500.; 500.; 120. |] in
  ignore
    (Alcotest.check_raises "size check"
       (Invalid_argument "Input_constraints.hose: need one cap per node")
       (fun () ->
         ignore (Input_constraints.hose ~space ~egress:[| 1. |] ~ingress)));
  let c = Input_constraints.hose ~space ~egress ~ingress in
  let demand src dst v =
    let d = Demand.zero space in
    d.(Option.get (Demand.index space ~src ~dst)) <- v;
    d
  in
  Alcotest.(check bool) "within egress" true
    (Input_constraints.satisfied c (demand 0 1 99.));
  Alcotest.(check bool) "egress violated" false
    (Input_constraints.satisfied c (demand 0 1 101.));
  Alcotest.(check bool) "ingress violated" false
    (Input_constraints.satisfied c (demand 0 2 121.));
  (* sums across destinations count against the source's egress cap *)
  let d = Demand.zero space in
  d.(Option.get (Demand.index space ~src:1 ~dst:0)) <- 30.;
  d.(Option.get (Demand.index space ~src:1 ~dst:2)) <- 30.;
  Alcotest.(check bool) "egress sums" false (Input_constraints.satisfied c d);
  (* and the white-box adversary respects hose caps: node 0's egress cap
     of 170 admits at most gap 90 (d02 = 50, d01 = 120, d12 free) *)
  let hose_caps =
    Input_constraints.hose ~space ~egress:[| 170.; 200.; 10. |]
      ~ingress:[| 500.; 500.; 500. |]
  in
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let options = { Adversary.default_options with constraints = hose_caps } in
  let r = Adversary.find ev ~options () in
  Alcotest.(check bool) "adversary within hose" true
    (Input_constraints.satisfied hose_caps r.Adversary.demands);
  Alcotest.(check bool)
    (Printf.sprintf "gap %.1f positive but throttled" r.Adversary.gap)
    true
    (r.Adversary.gap > 0. && r.Adversary.gap <= 90. +. 1e-6)

let test_constraints_apply_to_model () =
  let model = Model.create () in
  let dvars = Model.add_vars ~ub:100. model 2 in
  let c =
    Input_constraints.combine
      (Input_constraints.goalpost ~reference:[| 50.; 50. |] ~distance:10.
         ~relative:false ())
      (Input_constraints.within_factor_of_average ~num_pairs:2 ~factor:1.1)
  in
  Input_constraints.apply model ~demand_vars:dvars c;
  Model.set_objective model Model.Maximize (Linexpr.var dvars.(0));
  let r = Solver.solve_lp model in
  (* d0 <= 60 by goalpost; d0 <= 1.1*(d0+d1)/2 binds too:
     max d0 with d1 <= 60: d0 <= 0.55 d0 + 0.55 d1 -> 0.45 d0 <= 0.55*60 *)
  Alcotest.(check (float 1e-4)) "tightest bound wins"
    (Float.min 60. (0.55 *. 60. /. 0.45))
    r.Solver.objective

let test_constraints_none () =
  let d = [| 0.; 1e6; 3.5 |] in
  Alcotest.(check bool) "anything goes" true
    (Input_constraints.satisfied Input_constraints.none d);
  Alcotest.(check (array (float 0.))) "projection is the identity" d
    (Input_constraints.project Input_constraints.none d)

let test_constraints_project_clamps_box () =
  let c =
    Input_constraints.box ~lower:[| 5.; 0.; 1. |] ~upper:[| 10.; 20.; 2. |] ()
  in
  Alcotest.(check (array (float 0.))) "clamped to the nearest bound"
    [| 5.; 20.; 1.5 |]
    (Input_constraints.project c [| -3.; 99.; 1.5 |]);
  Alcotest.(check bool) "below lower rejected" false
    (Input_constraints.satisfied c [| 4.; 0.; 1. |])

(* a row with an average term is scale-invariant: scaling cannot repair
   it, so [project] must leave the input alone for [satisfied] to
   reject, not collapse it to zero *)
let test_constraints_project_leaves_average_rows () =
  let c = Input_constraints.within_factor_of_average ~num_pairs:3 ~factor:1.5 in
  let spike = [| 90.; 0.; 0. |] in
  Alcotest.(check (array (float 0.))) "spike unchanged" spike
    (Input_constraints.project c spike);
  Alcotest.(check bool) "still rejected" false
    (Input_constraints.satisfied c (Input_constraints.project c spike))

(* a violated hose cap is restored by one uniform down-scaling, which
   keeps the demands' ratios *)
let test_constraints_project_scales_hose_caps () =
  let space = Demand.full_space (Topologies.fig1 ()) in
  let c =
    Input_constraints.hose ~space ~egress:[| 100.; 500.; 500. |]
      ~ingress:[| 500.; 500.; 500. |]
  in
  let d = Demand.zero space in
  let i01 = Option.get (Demand.index space ~src:0 ~dst:1) in
  let i02 = Option.get (Demand.index space ~src:0 ~dst:2) in
  let i12 = Option.get (Demand.index space ~src:1 ~dst:2) in
  d.(i01) <- 150.;
  d.(i02) <- 50.;
  d.(i12) <- 40.;
  Alcotest.(check bool) "egress 200 > 100 violated" false
    (Input_constraints.satisfied c d);
  let p = Input_constraints.project c d in
  Alcotest.(check bool) "projection satisfies" true
    (Input_constraints.satisfied c p);
  Alcotest.(check (float 1e-9)) "d01 halved" 75. p.(i01);
  Alcotest.(check (float 1e-9)) "d02 halved" 25. p.(i02);
  Alcotest.(check (float 1e-9)) "every pair scales alike" 20. p.(i12)

(* a [<=] row with a zero bound ([d0 <= d1]) is scale-invariant as well:
   it is left to [satisfied], while a positive-bound row in the same set
   still scales *)
let test_constraints_project_skips_zero_bound () =
  let row terms bound =
    { Input_constraints.terms; avg_coef = 0.; sense = Model.Le; bound }
  in
  let ordered =
    { Input_constraints.none with intra = [ row [ (0, 1.); (1, -1.) ] 0. ] }
  in
  let d = [| 30.; 10. |] in
  Alcotest.(check (array (float 0.))) "zero-bound row not projected" d
    (Input_constraints.project ordered d);
  Alcotest.(check bool) "and rejected" false
    (Input_constraints.satisfied ordered d);
  let with_sum =
    {
      ordered with
      intra = row [ (0, 1.); (1, 1.) ] 20. :: ordered.Input_constraints.intra;
    }
  in
  Alcotest.(check (array (float 1e-9))) "sum cap scales to 20" [| 15.; 5. |]
    (Input_constraints.project with_sum d)

(* ------------------------------------------------------------------ *)
(* Gap problem encodings vs oracle                                     *)
(* ------------------------------------------------------------------ *)

(* Fix the demand variables to a concrete matrix and solve the metaopt
   MILP: its objective must equal the oracle gap at that matrix. This
   validates the whole encoding chain (big-M, KKT, SOS1 branching). *)
let gap_model_at_fixed_demand pathset heuristic demand =
  let gp = Gap_problem.build pathset ~heuristic () in
  Array.iteri
    (fun k v ->
      Model.set_var_bounds gp.Gap_problem.model v ~lb:demand.(k) ~ub:demand.(k))
    gp.Gap_problem.demand_vars;
  let r =
    Branch_bound.solve
      ~options:
        { Branch_bound.default_options with time_limit = 30.; stall_time = 30. }
      gp.Gap_problem.model
  in
  r

let test_dp_encoding_matches_oracle_fig1 () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let cases =
    [
      (130., 180., 50.);
      (100., 100., 30.);
      (20., 20., 20.);
      (180., 180., 0.);
      (130., 180., 60.) (* d02 above threshold: nothing pinned *);
    ]
  in
  List.iter
    (fun (d01, d12, d02) ->
      let demand = fig1_demand pathset ~d01 ~d12 ~d02 in
      let r = gap_model_at_fixed_demand pathset (Gap_problem.Dp { threshold = 50. }) demand in
      Alcotest.(check bool) "solved" true
        (r.Branch_bound.outcome = Branch_bound.Optimal);
      let oracle = Option.get (Evaluate.gap ev demand) in
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "gap at (%g,%g,%g)" d01 d12 d02)
        oracle r.Branch_bound.objective)
    cases

let test_pop_encoding_matches_oracle () =
  let g = Topologies.line ~n:4 ~capacity:100. () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let rng = Rng.create 77 in
  let ev = Evaluate.make_pop pathset ~parts:2 ~instances:2 ~rng () in
  let heuristic = Adversary.heuristic_of_spec ev in
  let demand = Demand.uniform (Pathset.space pathset) ~rng ~max:80. in
  let r = gap_model_at_fixed_demand pathset heuristic demand in
  Alcotest.(check bool) "solved" true
    (r.Branch_bound.outcome = Branch_bound.Optimal);
  let oracle = Option.get (Evaluate.gap ev demand) in
  Alcotest.(check (float 1e-3)) "pop gap matches" oracle r.Branch_bound.objective

let test_pop_tail_encoding_matches_oracle () =
  let g = Topologies.line ~n:3 ~capacity:100. () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let rng = Rng.create 13 in
  let ev =
    Evaluate.make_pop pathset ~parts:2 ~instances:3 ~rng
      ~reduce:(`Kth_smallest 1) ()
  in
  let heuristic = Adversary.heuristic_of_spec ev in
  let demand = Demand.uniform (Pathset.space pathset) ~rng ~max:70. in
  let r = gap_model_at_fixed_demand pathset heuristic demand in
  let oracle = Option.get (Evaluate.gap ev demand) in
  Alcotest.(check (float 1e-3)) "tail gap matches" oracle r.Branch_bound.objective

(* Randomized version of the encoding consistency check: demands drawn
   away from the threshold's epsilon sliver, MILP optimum at fixed demands
   must equal the simulation oracle. *)
let dp_encoding_oracle_property =
  QCheck.Test.make ~count:15 ~name:"DP encoding = oracle on random fig1 demands"
    QCheck.(triple (int_range 0 180) (int_range 0 180) (int_range 0 60))
    (fun (d01, d12, d02) ->
      (* integer demands can still sit exactly on the threshold: that is
         the pinned side in both semantics, so no gray-zone exclusion is
         needed *)
      let pathset = fig1_pathset () in
      let ev = Evaluate.make_dp pathset ~threshold:50. in
      let demand =
        fig1_demand pathset ~d01:(float_of_int d01) ~d12:(float_of_int d12)
          ~d02:(float_of_int d02)
      in
      let r =
        gap_model_at_fixed_demand pathset
          (Gap_problem.Dp { threshold = 50. })
          demand
      in
      match (r.Branch_bound.outcome, Evaluate.gap ev demand) with
      | Branch_bound.Optimal, Some oracle ->
          if Float.abs (r.Branch_bound.objective -. oracle) > 1e-3 then
            QCheck.Test.fail_reportf "milp %g <> oracle %g at (%d,%d,%d)"
              r.Branch_bound.objective oracle d01 d12 d02
          else true
      | Branch_bound.Infeasible, None -> true
      | outcome, oracle ->
          QCheck.Test.fail_reportf "mismatch: milp %s, oracle %s"
            (match outcome with
            | Branch_bound.Optimal -> "optimal"
            | Branch_bound.Infeasible -> "infeasible"
            | _ -> "other")
            (match oracle with
            | Some _ -> "feasible"
            | None -> "infeasible"))

let test_gap_problem_sizes () =
  let pathset = fig1_pathset () in
  let gp = Gap_problem.build pathset ~heuristic:(Gap_problem.Dp { threshold = 50. }) () in
  let vars, constrs, sos = Gap_problem.size gp in
  Alcotest.(check bool) "has vars" true (vars > 0);
  Alcotest.(check bool) "has constrs" true (constrs > 0);
  Alcotest.(check bool) "has sos" true (sos > 0);
  let baselines =
    Gap_problem.baseline_sizes pathset ~heuristic:(Gap_problem.Dp { threshold = 50. })
  in
  Alcotest.(check int) "three baselines" 3 (List.length baselines);
  let _, (opt_vars, _, opt_sos) = List.hd baselines in
  Alcotest.(check bool) "metaopt larger than opt alone" true (vars > opt_vars);
  Alcotest.(check int) "plain opt has no sos" 0 opt_sos;
  (* the naive ablation (OPT also KKT-rewritten) must be strictly larger *)
  let _, (naive_vars, _, naive_sos) = List.nth baselines 2 in
  Alcotest.(check bool) "naive bigger" true (naive_vars > vars && naive_sos > sos)

(* ------------------------------------------------------------------ *)
(* White-box adversary end to end                                      *)
(* ------------------------------------------------------------------ *)

let test_whitebox_fig1_finds_max_gap () =
  (* the provably maximal gap on fig1 with T=50 is 100 (see test_te for
     the arithmetic): the white-box search must find it *)
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let r = Adversary.find ev () in
  Alcotest.(check (float 0.5)) "gap 100" 100. r.Adversary.gap;
  (* oracle-consistency of the reported numbers *)
  check_float "opt - heur = gap" r.Adversary.gap
    (r.Adversary.opt_value -. r.Adversary.heuristic_value);
  (match r.Adversary.upper_bound with
  | Some ub -> Alcotest.(check bool) "bound >= gap" true (ub >= r.Adversary.gap -. 1e-6)
  | None -> Alcotest.fail "expected a bound");
  (* the found demands are a genuine witness *)
  let verified = Option.get (Evaluate.gap ev r.Adversary.demands) in
  check_float "witness verified" r.Adversary.gap verified

let test_whitebox_trace_monotone () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let r = Adversary.find ev () in
  let gaps = List.map snd r.Adversary.trace in
  Alcotest.(check bool) "non-empty trace" true (gaps <> []);
  Alcotest.(check (list (float 1e-9))) "monotone" (List.sort compare gaps) gaps

let test_whitebox_respects_constraints () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let space = Pathset.space pathset in
  (* goalpost centered near the adversarial matrix but capping d(0->2) at
     45 (< the pinning threshold): the best reachable gap is 2 * 45 = 90,
     strictly below the unconstrained 100 *)
  let reference = Demand.zero space in
  reference.(Option.get (Demand.index space ~src:0 ~dst:1)) <- 130.;
  reference.(Option.get (Demand.index space ~src:1 ~dst:2)) <- 180.;
  reference.(Option.get (Demand.index space ~src:0 ~dst:2)) <- 40.;
  let constraints =
    Input_constraints.goalpost ~reference ~distance:5. ~relative:false ()
  in
  let options = { Adversary.default_options with constraints } in
  let r = Adversary.find ev ~options () in
  Alcotest.(check bool) "demands satisfy goalpost" true
    (Input_constraints.satisfied constraints r.Adversary.demands);
  Alcotest.(check (float 0.5)) "constrained max gap is 90" 90. r.Adversary.gap

let test_whitebox_pop_small () =
  let g = Topologies.line ~n:4 ~capacity:100. () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let ev = Evaluate.make_pop pathset ~parts:2 ~instances:2 ~rng:(Rng.create 3) () in
  let options =
    {
      Adversary.default_options with
      bb =
        { Branch_bound.default_options with time_limit = 20.; stall_time = 4. };
    }
  in
  let r = Adversary.find ev ~options () in
  Alcotest.(check bool) "found a positive gap" true (r.Adversary.gap > 1.);
  let verified = Option.get (Evaluate.gap ev r.Adversary.demands) in
  check_float "verified" r.Adversary.gap verified

(* Every bound the adversary reports comes from the branch-and-bound
   tree, so it can never sit below a gap that is known to exist. b4 DP
   at threshold 500: probing alone finds a verified gap (13 000); the
   tree without probing, cut to a few nodes, must still bound it. *)
let test_whitebox_bound_is_sound () =
  let g = Topologies.b4 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let ev = Evaluate.make_dp pathset ~threshold:500. in
  let probed =
    Adversary.find ev
      ~options:{ Adversary.default_options with run_milp = false }
      ()
  in
  Alcotest.(check bool) "probe-only run reports no bound" true
    (probed.Adversary.upper_bound = None);
  let known = probed.Adversary.gap in
  check_float "probed gap verified" known
    (Option.get (Evaluate.gap ev probed.Adversary.demands));
  check_float "probing finds the known gap" 13000. known;
  List.iter
    (fun jobs ->
      let options =
        {
          Adversary.default_options with
          search = Adversary.Direct;
          probe_budget = 0;
          jobs;
          bb =
            {
              Branch_bound.default_options with
              node_limit = 4;
              time_limit = 30.;
              stall_time = 30.;
            };
        }
      in
      let r = Adversary.find ev ~options () in
      match r.Adversary.upper_bound with
      | None -> Alcotest.fail "the tree reports a bound"
      | Some ub ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: bound %.1f >= known gap %.1f" jobs ub
               known)
            true
            (ub >= known -. 1e-6))
    [ 1; 2 ]

(* [oracle_calls] counts every oracle evaluation of a find — probe
   candidates, probe refinement and the tree's primal heuristic —
   serially and with the probes fanned out over a pool. A pass-through
   cache hook sees each [Evaluate.gap] as one "heur" insert;
   [assemble_result] adds one more when it re-reads the winner. fig1's
   POP candidates repeat (8 candidates, 3 distinct), which the pooled
   probe pass must not score twice. *)
let test_whitebox_oracle_calls_counted () =
  let pathset = fig1_pathset () in
  let dp = Evaluate.make_dp pathset ~threshold:50. in
  let pop =
    Evaluate.make_pop pathset ~parts:2 ~instances:2 ~rng:(Rng.create 1) ()
  in
  List.iter
    (fun (what, ev, jobs, run_milp) ->
      let heur_inserts = Atomic.make 0 in
      let hook =
        {
          Evaluate.lookup = (fun ~tag:_ _ -> None);
          insert =
            (fun ~tag _ _ -> if tag = "heur" then Atomic.incr heur_inserts);
        }
      in
      let r =
        Adversary.find
          (Evaluate.with_cache ev (Some hook))
          ~options:{ Adversary.default_options with jobs; run_milp }
          ()
      in
      Alcotest.(check bool) (what ^ ": calls counted") true
        (r.Adversary.stats.Adversary.oracle_calls > 0);
      Alcotest.(check int)
        (what ^ ": oracle_calls = Evaluate.gap calls")
        (Atomic.get heur_inserts - 1)
        r.Adversary.stats.Adversary.oracle_calls)
    [
      ("dp jobs=1", dp, 1, true);
      ("dp jobs=2", dp, 2, true);
      ("pop probes jobs=2", pop, 2, false);
    ]

(* Probing alone (no tree) on fig1 reaches the maximal gap, runs no
   node and claims no bound. *)
let test_whitebox_probe_only () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let r =
    Adversary.find ev
      ~options:{ Adversary.default_options with run_milp = false }
      ()
  in
  Alcotest.(check bool) "no bound" true (r.Adversary.upper_bound = None);
  Alcotest.(check int) "no tree nodes" 0 r.Adversary.stats.Adversary.nodes;
  check_float "probes reach 100" 100. r.Adversary.gap;
  check_float "witness verified" r.Adversary.gap
    (Option.get (Evaluate.gap ev r.Adversary.demands))

(* The tree's bound covers every input in the search box: each probe
   candidate and a batch of random demands scores at most the bound. *)
let test_whitebox_bound_caps_inputs () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let r =
    Adversary.find ev
      ~options:{ Adversary.default_options with demand_ub = Some 180. }
      ()
  in
  let ub =
    match r.Adversary.upper_bound with
    | Some ub -> ub
    | None -> Alcotest.fail "expected a bound"
  in
  let rng = Rng.create 17 in
  let inputs =
    Probes.dp_candidates pathset ~threshold:50. ~demand_ub:180.
    @ List.init 40 (fun _ ->
          Demand.uniform (Pathset.space pathset) ~rng ~max:180.)
  in
  List.iter
    (fun d ->
      match Evaluate.gap ev d with
      | None -> ()
      | Some g ->
          Alcotest.(check bool)
            (Printf.sprintf "gap %.2f <= bound %.2f" g ub)
            true
            (g <= ub +. 1e-6))
    inputs

(* With probing off the tree's own primal heuristic still reaches the
   fig1 maximum, and its oracle calls are counted. *)
let test_whitebox_tree_without_probes () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let r =
    Adversary.find ev
      ~options:{ Adversary.default_options with probe_budget = 0 }
      ()
  in
  Alcotest.(check (float 0.5)) "gap 100" 100. r.Adversary.gap;
  (match r.Adversary.upper_bound with
  | Some ub -> Alcotest.(check bool) "bound >= gap" true (ub >= 100. -. 1e-6)
  | None -> Alcotest.fail "expected a bound");
  Alcotest.(check bool) "heuristic calls counted" true
    (r.Adversary.stats.Adversary.oracle_calls > 0)

(* ------------------------------------------------------------------ *)
(* Black-box baselines                                                 *)
(* ------------------------------------------------------------------ *)

let test_blackbox_hill_climb_fig1 () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let options = { Blackbox.default_options with time_limit = 3. } in
  let r = Blackbox.hill_climb ev ~rng:(Rng.create 1) ~options () in
  Alcotest.(check bool) "positive gap" true (r.Blackbox.gap > 0.);
  Alcotest.(check bool) "counted evaluations" true (r.Blackbox.evaluations > 10);
  let verified = Option.get (Evaluate.gap ev r.Blackbox.demands) in
  check_float "verified" r.Blackbox.gap verified

let test_blackbox_sa_fig1 () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let options = { Blackbox.default_options with time_limit = 3. } in
  let r = Blackbox.simulated_annealing ev ~rng:(Rng.create 2) ~options () in
  Alcotest.(check bool) "positive gap" true (r.Blackbox.gap > 0.);
  let verified = Option.get (Evaluate.gap ev r.Blackbox.demands) in
  check_float "verified" r.Blackbox.gap verified

let test_whitebox_beats_blackbox_fig1 () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let wb = Adversary.find ev () in
  let options = { Blackbox.default_options with time_limit = 2. } in
  let hc = Blackbox.hill_climb ev ~rng:(Rng.create 11) ~options () in
  Alcotest.(check bool) "white-box at least as good" true
    (wb.Adversary.gap >= hc.Blackbox.gap -. 1e-6)

let test_blackbox_respects_constraints () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let space = Pathset.space pathset in
  let constraints =
    Input_constraints.box ~upper:(Demand.constant space 40.) ()
  in
  let options =
    { Blackbox.default_options with time_limit = 1.; constraints }
  in
  let r = Blackbox.hill_climb ev ~rng:(Rng.create 7) ~options () in
  Alcotest.(check bool) "bounded demands" true
    (Array.for_all (fun d -> d <= 40. +. 1e-9) r.Blackbox.demands)

(* Under an evaluation cap (and a time limit far away) a walk stops at
   the cap and repeats exactly for the same seed. *)
let check_evaluation_cap name run =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let options =
    { Blackbox.default_options with time_limit = 60.; max_evaluations = 40 }
  in
  let a = run ev ~rng:(Rng.create 5) ~options () in
  let b = run ev ~rng:(Rng.create 5) ~options () in
  Alcotest.(check int) (name ^ ": stops at the cap") 40 a.Blackbox.evaluations;
  Alcotest.(check int) (name ^ ": same count") a.Blackbox.evaluations
    b.Blackbox.evaluations;
  Alcotest.(check (float 0.)) (name ^ ": same gap") a.Blackbox.gap
    b.Blackbox.gap;
  Alcotest.(check (array (float 0.))) (name ^ ": same input") a.Blackbox.demands
    b.Blackbox.demands

let test_blackbox_hill_climb_cap () =
  check_evaluation_cap "hill climb" (fun ev ~rng ~options () ->
      Blackbox.hill_climb ev ~rng ~options ())

let test_blackbox_sa_cap () =
  check_evaluation_cap "annealing" (fun ev ~rng ~options () ->
      Blackbox.simulated_annealing ev ~rng ~options ())

(* [evaluations] counts oracle calls: with a pass-through cache hook,
   one heuristic insert per evaluation. *)
let test_blackbox_evaluations_are_oracle_calls () =
  let pathset = fig1_pathset () in
  let heur_inserts = ref 0 in
  let hook =
    {
      Evaluate.lookup = (fun ~tag:_ _ -> None);
      insert = (fun ~tag _ _ -> if tag = "heur" then incr heur_inserts);
    }
  in
  let ev =
    Evaluate.with_cache (Evaluate.make_dp pathset ~threshold:50.) (Some hook)
  in
  let options =
    { Blackbox.default_options with time_limit = 60.; max_evaluations = 60 }
  in
  let r = Blackbox.hill_climb ev ~rng:(Rng.create 9) ~options () in
  Alcotest.(check int) "evaluations = heuristic solves" !heur_inserts
    r.Blackbox.evaluations

let test_blackbox_trace_monotone () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let options =
    { Blackbox.default_options with time_limit = 60.; max_evaluations = 200 }
  in
  let r = Blackbox.hill_climb ev ~rng:(Rng.create 3) ~options () in
  let gaps = List.map snd r.Blackbox.trace in
  Alcotest.(check bool) "non-empty trace" true (gaps <> []);
  Alcotest.(check (list (float 1e-9))) "monotone" (List.sort compare gaps) gaps;
  check_float "ends at the reported gap" r.Blackbox.gap
    (List.fold_left Float.max neg_infinity gaps)

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let test_probes_dp_candidates () =
  let pathset = fig1_pathset () in
  let cands = Probes.dp_candidates pathset ~threshold:50. ~demand_ub:180. in
  Alcotest.(check bool) "several candidates" true (List.length cands >= 3);
  (* corners present (unroutable pairs stay at zero) *)
  let corner level c =
    Array.length c > 0
    && Array.for_all Fun.id
         (Array.mapi
            (fun k v -> if Pathset.routable pathset k then v = level else v = 0.)
            c)
  in
  Alcotest.(check bool) "all-at-bound corner" true
    (List.exists (corner 180.) cands);
  Alcotest.(check bool) "all-at-threshold corner" true
    (List.exists (corner 50.) cands);
  (* the hop-sweep family alone finds the max gap on fig1 *)
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  match Probes.best_candidate ev ~constraints:Input_constraints.none cands with
  | None -> Alcotest.fail "no feasible candidate"
  | Some (_, g) -> check_float "hop sweep reaches 100" 100. g

let test_probes_refine_keeps_best () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let start = fig1_demand pathset ~d01:130. ~d12:180. ~d02:50. in
  match
    Probes.refine ev ~constraints:Input_constraints.none ~budget:100
      ~levels:[ 0.; 50.; 180. ] start
  with
  | None, _ -> Alcotest.fail "refine lost a feasible start"
  | Some (_, g), calls ->
      Alcotest.(check bool) "never worse than start" true (g >= 100.);
      Alcotest.(check bool) "calls within budget + start" true
        (calls >= 1 && calls <= 101)

let test_probes_refine_zero_budget () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let start = fig1_demand pathset ~d01:130. ~d12:180. ~d02:50. in
  match
    Probes.refine ev ~constraints:Input_constraints.none ~budget:0
      ~levels:[ 0.; 50.; 180. ] start
  with
  | None, _ -> Alcotest.fail "refine lost a feasible start"
  | Some (d, g), calls ->
      Alcotest.(check int) "only the start is scored" 1 calls;
      check_float "start's gap" 100. g;
      Alcotest.(check (array (float 0.))) "start kept" start d

(* An infeasible start (DP pinning overload) yields nothing, after one
   oracle call. *)
let test_probes_refine_infeasible_start () =
  let g = Graph.create ~num_nodes:3 () in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:10. () in
  let _ = Graph.add_edge g ~src:1 ~dst:2 ~capacity:10. () in
  let space = Demand.space_of_pairs g [| (0, 1); (0, 2) |] in
  let pathset = Pathset.compute space ~k:1 in
  let ev = Evaluate.make_dp pathset ~threshold:8. in
  match
    Probes.refine ev ~constraints:Input_constraints.none ~budget:10
      ~levels:[ 0.; 8. ] [| 8.; 8. |]
  with
  | None, calls -> Alcotest.(check int) "one call" 1 calls
  | Some _, _ -> Alcotest.fail "infeasible start accepted"

(* [score] projects into the box before scoring and rejects what the
   projection cannot repair (a [>=] intra-input row). *)
let test_probes_score_projects () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let n = Pathset.num_pairs pathset in
  let box = Input_constraints.box ~upper:(Array.make n 40.) () in
  let wild = Array.make n 1000. in
  (match Probes.score ev ~constraints:box wild with
  | None -> Alcotest.fail "box projection should repair the input"
  | Some (d, g) ->
      Alcotest.(check bool) "projected into the box" true
        (Input_constraints.satisfied box d);
      check_float "scored at the projection" (Option.get (Evaluate.gap ev d)) g);
  let floor0 =
    {
      Input_constraints.none with
      intra =
        [
          {
            Input_constraints.terms = [ (0, 1.) ];
            avg_coef = 0.;
            sense = Model.Ge;
            bound = 10.;
          };
        ];
    }
  in
  Alcotest.(check bool) "intra violation rejected" true
    (Probes.score ev ~constraints:floor0 (Array.make n 0.) = None)

(* a spike on one pair breaks "within 1.5x of the average"; scaling the
   whole input down cannot repair a row that scales with the input, so
   the spike is rejected instead of scored as the all-zero matrix *)
let test_probes_score_rejects_average_spike () =
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let n = Pathset.num_pairs pathset in
  let spread =
    Input_constraints.within_factor_of_average ~num_pairs:n ~factor:1.5
  in
  let spike = Array.init n (fun k -> if k = 0 then 100. else 0.) in
  Alcotest.(check bool) "spike rejected" true
    (Probes.score ev ~constraints:spread spike = None);
  (* an absolute sum cap is still repaired by scaling down *)
  let cap =
    {
      Input_constraints.none with
      intra =
        [
          {
            Input_constraints.terms = List.init n (fun k -> (k, 1.));
            avg_coef = 0.;
            sense = Model.Le;
            bound = 50.;
          };
        ];
    }
  in
  match Probes.score ev ~constraints:cap spike with
  | None -> Alcotest.fail "a sum cap should be projected, not rejected"
  | Some (d, _) -> check_float "scaled onto the cap" 50. d.(0)

let test_probes_best_candidate_skips_infeasible () =
  let g = Graph.create ~num_nodes:3 () in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:10. () in
  let _ = Graph.add_edge g ~src:1 ~dst:2 ~capacity:10. () in
  let space = Demand.space_of_pairs g [| (0, 1); (0, 2) |] in
  let pathset = Pathset.compute space ~k:1 in
  let ev = Evaluate.make_dp pathset ~threshold:8. in
  let constraints = Input_constraints.none in
  Alcotest.(check bool) "no candidates" true
    (Probes.best_candidate ev ~constraints [] = None);
  Alcotest.(check bool) "only infeasible" true
    (Probes.best_candidate ev ~constraints [ [| 8.; 8. |] ] = None);
  match Probes.best_candidate ev ~constraints [ [| 8.; 8. |]; [| 2.; 2. |] ] with
  | Some (d, _) ->
      Alcotest.(check (array (float 0.))) "feasible one wins" [| 2.; 2. |] d
  | None -> Alcotest.fail "feasible candidate dropped"

let test_probes_pop_candidates () =
  let g = Topologies.line ~n:4 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let rng = Rng.create 3 in
  let partitions =
    [ Pop.random_partition ~rng ~num_pairs:(Pathset.num_pairs pathset) ~parts:2 ]
  in
  let cands =
    Probes.pop_candidates pathset ~partitions ~parts:2 ~demand_ub:100.
  in
  (* all-at-bound + one per (instance, part) + co-location seeds *)
  Alcotest.(check bool) "enough candidates" true (List.length cands >= 3);
  (* per-part concentration: each such candidate zeroes the other part *)
  let partition = List.hd partitions in
  let concentrated =
    List.filter
      (fun c ->
        Array.for_all (fun v -> v = 0. || v = 100.) c
        &&
        let parts_used =
          List.sort_uniq compare
            (List.filteri (fun _ _ -> true)
               (Array.to_list (Array.mapi (fun k v -> (v > 0., partition.(k))) c))
            |> List.filter_map (fun (hot, p) -> if hot then Some p else None))
        in
        List.length parts_used = 1)
      cands
  in
  Alcotest.(check bool) "has single-part concentrations" true
    (List.length concentrated >= 2)

(* ------------------------------------------------------------------ *)
(* Extensions: quantized demand grid (section 5, scaling)              *)
(* ------------------------------------------------------------------ *)

let test_quantized_gap_problem () =
  let pathset = fig1_pathset () in
  let gp =
    Gap_problem.build pathset
      ~heuristic:(Gap_problem.Dp { threshold = 50. })
      ~quantize:25. ()
  in
  let r =
    Branch_bound.solve
      ~options:
        { Branch_bound.default_options with time_limit = 60.; stall_time = 60. }
      gp.Gap_problem.model
  in
  Alcotest.(check bool) "solved" true
    (r.Branch_bound.outcome = Branch_bound.Optimal);
  (* grid coarsens the optimum a little: between 90 and the true 100 *)
  Alcotest.(check bool)
    (Printf.sprintf "gap %.1f in [90, 100]" r.Branch_bound.objective)
    true
    (r.Branch_bound.objective >= 90. -. 1e-6
    && r.Branch_bound.objective <= 100. +. 1e-6);
  let demands =
    Gap_problem.demands_of_primal gp (Option.get r.Branch_bound.primal)
  in
  Array.iter
    (fun d ->
      let snapped = 25. *. Float.round (d /. 25.) in
      Alcotest.(check (float 1e-4)) "on the grid" snapped d)
    demands

let test_quantized_adversary () =
  (* end-to-end: the adversary with a grid of 25 reports an on-grid input
     whose gap it verified; fig1's best 25-grid point scores 95 *)
  let pathset = fig1_pathset () in
  let ev = Evaluate.make_dp pathset ~threshold:50. in
  let options = { Adversary.default_options with quantize = Some 25. } in
  let r = Adversary.find ev ~options () in
  Array.iter
    (fun d ->
      Alcotest.(check (float 1e-6)) "on grid" (25. *. Float.round (d /. 25.)) d)
    r.Adversary.demands;
  Alcotest.(check bool)
    (Printf.sprintf "grid gap %.1f in [90, 95]" r.Adversary.gap)
    true
    (r.Adversary.gap >= 90. -. 1e-6 && r.Adversary.gap <= 95. +. 1e-6);
  let verified = Option.get (Evaluate.gap ev r.Adversary.demands) in
  check_float "verified" r.Adversary.gap verified

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "metaopt"
    [
      ( "kkt",
        [
          Alcotest.test_case "pins follower" `Quick test_kkt_pins_follower_optimum;
          Alcotest.test_case "resists host" `Quick test_kkt_resists_adversarial_host_objective;
          Alcotest.test_case "equality rows" `Quick test_kkt_equality_rows;
          Alcotest.test_case "infeasible follower" `Quick test_kkt_infeasible_follower_infeasible_host;
          q kkt_matches_direct_property;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "dp fig1" `Quick test_evaluate_dp_fig1;
          Alcotest.test_case "pop average" `Quick test_evaluate_pop_average;
          Alcotest.test_case "pop tail" `Quick test_evaluate_pop_kth_smallest;
          Alcotest.test_case "dp infeasible" `Quick test_evaluate_dp_infeasible;
          Alcotest.test_case "cache hook answers first" `Quick
            test_evaluate_cache_hook_answers_first;
          Alcotest.test_case "memo hook transparent" `Quick
            test_evaluate_memo_hook_transparent;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "box+goalpost" `Quick test_constraints_box_and_goalpost;
          Alcotest.test_case "relative goalpost" `Quick test_constraints_relative_goalpost;
          Alcotest.test_case "partial goalpost" `Quick test_constraints_partial_goalpost;
          Alcotest.test_case "factor of average" `Quick test_constraints_within_factor_of_average;
          Alcotest.test_case "hose model" `Quick test_constraints_hose_model;
          Alcotest.test_case "apply to model" `Quick test_constraints_apply_to_model;
          Alcotest.test_case "none" `Quick test_constraints_none;
          Alcotest.test_case "project clamps box" `Quick
            test_constraints_project_clamps_box;
          Alcotest.test_case "project leaves average rows" `Quick
            test_constraints_project_leaves_average_rows;
          Alcotest.test_case "project scales hose caps" `Quick
            test_constraints_project_scales_hose_caps;
          Alcotest.test_case "project skips zero-bound rows" `Quick
            test_constraints_project_skips_zero_bound;
        ] );
      ( "encodings",
        [
          Alcotest.test_case "dp matches oracle" `Quick test_dp_encoding_matches_oracle_fig1;
          Alcotest.test_case "pop matches oracle" `Quick test_pop_encoding_matches_oracle;
          Alcotest.test_case "pop tail matches oracle" `Quick test_pop_tail_encoding_matches_oracle;
          Alcotest.test_case "sizes" `Quick test_gap_problem_sizes;
          q dp_encoding_oracle_property;
        ] );
      ( "whitebox",
        [
          Alcotest.test_case "fig1 max gap" `Quick test_whitebox_fig1_finds_max_gap;
          Alcotest.test_case "trace monotone" `Quick test_whitebox_trace_monotone;
          Alcotest.test_case "constrained" `Quick test_whitebox_respects_constraints;
          Alcotest.test_case "pop small" `Quick test_whitebox_pop_small;
          Alcotest.test_case "bound is sound" `Quick test_whitebox_bound_is_sound;
          Alcotest.test_case "oracle calls counted" `Quick
            test_whitebox_oracle_calls_counted;
          Alcotest.test_case "probe only" `Quick test_whitebox_probe_only;
          Alcotest.test_case "bound caps inputs" `Quick
            test_whitebox_bound_caps_inputs;
          Alcotest.test_case "tree without probes" `Quick
            test_whitebox_tree_without_probes;
        ] );
      ( "blackbox",
        [
          Alcotest.test_case "hill climb" `Quick test_blackbox_hill_climb_fig1;
          Alcotest.test_case "simulated annealing" `Quick test_blackbox_sa_fig1;
          Alcotest.test_case "whitebox >= blackbox" `Quick test_whitebox_beats_blackbox_fig1;
          Alcotest.test_case "constraints" `Quick test_blackbox_respects_constraints;
          Alcotest.test_case "hill climb evaluation cap" `Quick
            test_blackbox_hill_climb_cap;
          Alcotest.test_case "annealing evaluation cap" `Quick
            test_blackbox_sa_cap;
          Alcotest.test_case "evaluations are oracle calls" `Quick
            test_blackbox_evaluations_are_oracle_calls;
          Alcotest.test_case "trace monotone" `Quick test_blackbox_trace_monotone;
        ] );
      ( "probes",
        [
          Alcotest.test_case "dp candidates" `Quick test_probes_dp_candidates;
          Alcotest.test_case "refine keeps best" `Quick test_probes_refine_keeps_best;
          Alcotest.test_case "pop candidates" `Quick test_probes_pop_candidates;
          Alcotest.test_case "refine zero budget" `Quick
            test_probes_refine_zero_budget;
          Alcotest.test_case "refine infeasible start" `Quick
            test_probes_refine_infeasible_start;
          Alcotest.test_case "score projects" `Quick test_probes_score_projects;
          Alcotest.test_case "score rejects average spike" `Quick
            test_probes_score_rejects_average_spike;
          Alcotest.test_case "best candidate skips infeasible" `Quick
            test_probes_best_candidate_skips_infeasible;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "quantized grid" `Quick test_quantized_gap_problem;
          Alcotest.test_case "quantized adversary" `Quick test_quantized_adversary;
        ] );
    ]
