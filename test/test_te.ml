(* Tests for the traffic-engineering substrate (Repro_te): OptMaxFlow,
   Demand Pinning, POP, allocations, sorting networks. The paper's Fig 1
   numbers are asserted exactly. *)

open Repro_topology
open Repro_te

let check_float = Alcotest.(check (float 1e-6))

let fig1_setup () =
  let g = Topologies.fig1 () in
  let space = Demand.full_space g in
  let pathset = Pathset.compute space ~k:2 in
  let demand = Demand.zero space in
  let set s d v =
    match Demand.index space ~src:s ~dst:d with
    | Some k -> demand.(k) <- v
    | None -> Alcotest.fail "missing pair"
  in
  (* paper Fig 1 demands (nodes 1,2,3 are 0,1,2): 1->3: 50, 1->2: 130, 2->3: 180 *)
  set 0 2 50.;
  set 0 1 130.;
  set 1 2 180.;
  (g, space, pathset, demand)

(* ------------------------------------------------------------------ *)
(* Pathset                                                             *)
(* ------------------------------------------------------------------ *)

let test_pathset_fig1 () =
  let g, space, pathset, _ = fig1_setup () in
  ignore g;
  let k02 = Option.get (Demand.index space ~src:0 ~dst:2) in
  Alcotest.(check bool) "0->2 routable" true (Pathset.routable pathset k02);
  Alcotest.(check int) "two paths for 0->2" 2
    (Array.length (Pathset.paths_of_pair pathset k02));
  Alcotest.(check int) "shortest is 2 hops" 2 (Paths.hops (Pathset.shortest pathset k02));
  (* reverse pairs are unroutable in the unidirectional triangle *)
  let k20 = Option.get (Demand.index space ~src:2 ~dst:0) in
  Alcotest.(check bool) "2->0 unroutable" false (Pathset.routable pathset k20)

let test_pathset_incidence () =
  let g = Topologies.line ~n:3 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  (* middle edge 0->1 is used by pairs (0,1) and (0,2) *)
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let users = Pathset.pairs_using_edge pathset e01 in
  Alcotest.(check int) "two users" 2 (List.length users)

let test_mcf_only_filter_and_scale () =
  let open Repro_lp in
  let g = Topologies.line ~n:2 ~capacity:100. () in
  let space = Demand.full_space g in
  let pathset = Pathset.compute space ~k:1 in
  let model = Model.create () in
  (* include only pair 0, capacities halved *)
  let vars =
    Mcf.add_feasible_flow ~only:(fun k -> k = 0) ~cap_scale:0.5 model pathset
      (Mcf.Const [| 1000.; 1000. |])
  in
  Alcotest.(check int) "pair 1 excluded" 0 (Array.length vars.(1));
  Model.set_objective model Model.Maximize (Mcf.total_flow_expr vars);
  let r = Solver.solve_lp model in
  Alcotest.(check (float 1e-6)) "halved capacity binds" 50. r.Solver.objective;
  (* reading back into an allocation fills excluded pairs with zeros *)
  let alloc = Mcf.allocation_of_primal pathset vars r.Solver.primal in
  Alcotest.(check (float 1e-9)) "excluded pair carries 0" 0.
    (Allocation.flow_of_pair alloc 1)

let test_mcf_demand_bound_as_variable () =
  let open Repro_lp in
  (* the metaopt usage: demand enters as a model variable *)
  let g = Topologies.line ~n:2 ~capacity:100. () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:1 in
  let model = Model.create () in
  let dvars = Model.add_vars ~ub:30. model 2 in
  let vars = Mcf.add_feasible_flow model pathset (Mcf.Var dvars) in
  Model.set_objective model Model.Maximize (Mcf.total_flow_expr vars);
  let r = Solver.solve_lp model in
  (* flows chase the demand variables up to their 30-unit bound *)
  Alcotest.(check (float 1e-6)) "demand-var bound binds" 60. r.Solver.objective

(* ------------------------------------------------------------------ *)
(* OptMaxFlow                                                          *)
(* ------------------------------------------------------------------ *)

let test_opt_fig1 () =
  let _, _, pathset, demand = fig1_setup () in
  let r = Opt_max_flow.solve pathset demand in
  check_float "OPT carries everything" 360. r.Opt_max_flow.total;
  match Allocation.check r.Opt_max_flow.allocation ~demand () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_opt_respects_capacity () =
  let g = Topologies.line ~n:2 () in
  let space = Demand.full_space g in
  let pathset = Pathset.compute space ~k:1 in
  let demand = Demand.constant space 5000. in
  let r = Opt_max_flow.solve pathset demand in
  (* one edge each direction, capacity 1000 *)
  check_float "capped" 2000. r.Opt_max_flow.total

let test_opt_zero_demand () =
  let g = Topologies.b4 () in
  let space = Demand.full_space g in
  let pathset = Pathset.compute space ~k:2 in
  let r = Opt_max_flow.solve pathset (Demand.zero space) in
  check_float "zero" 0. r.Opt_max_flow.total

let test_opt_multipath_split () =
  (* two disjoint 2-hop paths of capacity 10 each: demand 20 can be served
     only by splitting *)
  let g = Graph.create ~num_nodes:4 () in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:10. () in
  let _ = Graph.add_edge g ~src:1 ~dst:3 ~capacity:10. () in
  let _ = Graph.add_edge g ~src:0 ~dst:2 ~capacity:10. () in
  let _ = Graph.add_edge g ~src:2 ~dst:3 ~capacity:10. () in
  let space = Demand.space_of_pairs g [| (0, 3) |] in
  let pathset = Pathset.compute space ~k:2 in
  let r = Opt_max_flow.solve pathset [| 20. |] in
  check_float "split across paths" 20. r.Opt_max_flow.total

(* ------------------------------------------------------------------ *)
(* Demand pinning                                                      *)
(* ------------------------------------------------------------------ *)

let test_dp_fig1 () =
  let _, space, pathset, demand = fig1_setup () in
  match Demand_pinning.solve pathset ~threshold:50. demand with
  | Demand_pinning.Infeasible_pinning _ -> Alcotest.fail "should be feasible"
  | Demand_pinning.Feasible { total; pinned_flow; pinned; allocation } ->
      (* the paper's headline: DP carries 260 vs OPT 360, gap 100 *)
      check_float "DP total" 260. total;
      check_float "pinned volume" 50. pinned_flow;
      let k02 = Option.get (Demand.index space ~src:0 ~dst:2) in
      let k01 = Option.get (Demand.index space ~src:0 ~dst:1) in
      Alcotest.(check bool) "0->2 pinned" true pinned.(k02);
      Alcotest.(check bool) "0->1 not pinned" false pinned.(k01);
      (match Allocation.check allocation ~demand () with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (* the pinned pair's flow rides the shortest (two-hop) path *)
      check_float "pinned on shortest" 50. allocation.Allocation.flows.(k02).(0)

let test_dp_zero_threshold_equals_opt () =
  let _, _, pathset, demand = fig1_setup () in
  let opt = (Opt_max_flow.solve pathset demand).Opt_max_flow.total in
  match Demand_pinning.solve pathset ~threshold:0. demand with
  | Demand_pinning.Feasible { total; pinned_flow; _ } ->
      check_float "nothing pinned" 0. pinned_flow;
      check_float "equals OPT" opt total
  | Demand_pinning.Infeasible_pinning _ -> Alcotest.fail "feasible"

let test_dp_never_beats_opt () =
  let g = Topologies.abilene () in
  let space = Demand.full_space g in
  let pathset = Pathset.compute space ~k:2 in
  let rng = Rng.create 99 in
  for _ = 1 to 5 do
    let demand = Demand.uniform space ~rng ~max:300. in
    let opt = (Opt_max_flow.solve pathset demand).Opt_max_flow.total in
    match Demand_pinning.solve pathset ~threshold:50. demand with
    | Demand_pinning.Feasible { total; _ } ->
        Alcotest.(check bool) "DP <= OPT" true (total <= opt +. 1e-6)
    | Demand_pinning.Infeasible_pinning _ -> ()
  done

let test_dp_infeasible_pinning () =
  (* two small demands share the only link out of node 0: 8 + 8 > 10 *)
  let g = Graph.create ~num_nodes:3 () in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:10. () in
  let _ = Graph.add_edge g ~src:1 ~dst:2 ~capacity:10. () in
  let space = Demand.space_of_pairs g [| (0, 1); (0, 2) |] in
  let pathset = Pathset.compute space ~k:1 in
  match Demand_pinning.solve pathset ~threshold:8. [| 8.; 8. |] with
  | Demand_pinning.Infeasible_pinning { load; capacity; _ } ->
      check_float "overload" 16. load;
      check_float "capacity" 10. capacity
  | Demand_pinning.Feasible _ -> Alcotest.fail "should be infeasible"

let test_dp_pins_predicate () =
  Alcotest.(check bool) "zero not pinned" false (Demand_pinning.pins ~threshold:5. 0.);
  Alcotest.(check bool) "at threshold pinned" true (Demand_pinning.pins ~threshold:5. 5.);
  Alcotest.(check bool) "above not pinned" false (Demand_pinning.pins ~threshold:5. 5.1)

(* ------------------------------------------------------------------ *)
(* POP                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pop_single_part_is_opt () =
  let _, _, pathset, demand = fig1_setup () in
  let partition = Array.make (Pathset.num_pairs pathset) 0 in
  let r = Pop.solve pathset ~parts:1 partition demand in
  let opt = (Opt_max_flow.solve pathset demand).Opt_max_flow.total in
  check_float "POP(1) = OPT" opt r.Pop.total

let test_pop_never_beats_opt () =
  let g = Topologies.b4 () in
  let space = Demand.full_space g in
  let pathset = Pathset.compute space ~k:2 in
  let rng = Rng.create 4 in
  let demand = Demand.uniform space ~rng ~max:200. in
  let opt = (Opt_max_flow.solve pathset demand).Opt_max_flow.total in
  List.iter
    (fun parts ->
      let partition =
        Pop.random_partition ~rng ~num_pairs:(Demand.size space) ~parts
      in
      let r = Pop.solve pathset ~parts partition demand in
      Alcotest.(check bool)
        (Printf.sprintf "POP(%d) <= OPT" parts)
        true
        (r.Pop.total <= opt +. 1e-6);
      (* union allocation is feasible at full capacities *)
      match Allocation.check r.Pop.allocation ~demand () with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ 2; 3; 4 ]

let test_pop_partition_balanced () =
  let rng = Rng.create 8 in
  let p = Pop.random_partition ~rng ~num_pairs:10 ~parts:3 in
  let counts = Array.make 3 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) p;
  Array.iter
    (fun c -> Alcotest.(check bool) "balanced" true (c >= 3 && c <= 4))
    counts

let test_pop_per_part_sums () =
  let _, _, pathset, demand = fig1_setup () in
  let rng = Rng.create 2 in
  let partition =
    Pop.random_partition ~rng ~num_pairs:(Pathset.num_pairs pathset) ~parts:2
  in
  let r = Pop.solve pathset ~parts:2 partition demand in
  check_float "parts sum to total" r.Pop.total
    (Array.fold_left ( +. ) 0. r.Pop.per_part)

let test_client_split () =
  let split = Pop.client_split [| 100.; 30.; 10. |] ~threshold:40. ~max_splits:2 in
  (* 100 -> halve twice (100 >= 40, 50 >= 40) -> 4 x 25
     30 < 40 -> 1 x 30 ; 10 -> 1 x 10 *)
  Alcotest.(check int) "virtual clients" 6 (Array.length split.Pop.origin);
  check_float "volume preserved" 140.
    (Array.fold_left ( +. ) 0. split.Pop.volumes);
  let of_origin k =
    List.filter_map
      (fun (o, v) -> if o = k then Some v else None)
      (Array.to_list (Array.map2 (fun o v -> (o, v)) split.Pop.origin split.Pop.volumes))
  in
  Alcotest.(check (list (float 1e-9))) "pair 0 split into quarters"
    [ 25.; 25.; 25.; 25. ] (of_origin 0);
  Alcotest.(check (list (float 1e-9))) "pair 1 untouched" [ 30. ] (of_origin 1)

let test_client_split_respects_max () =
  let split = Pop.client_split [| 1000. |] ~threshold:1. ~max_splits:3 in
  Alcotest.(check int) "8 clients" 8 (Array.length split.Pop.origin);
  check_float "each 125" 125. split.Pop.volumes.(0)

let test_pop_with_client_split_feasible () =
  let g = Topologies.abilene () in
  let space = Demand.full_space g in
  let pathset = Pathset.compute space ~k:2 in
  let rng = Rng.create 31 in
  let demand = Demand.bimodal space ~rng ~fraction_large:0.2 ~small_max:20. ~large_max:600. in
  let r =
    Pop.solve_with_client_split pathset ~parts:2 ~rng ~threshold:100. ~max_splits:2 demand
  in
  let opt = (Opt_max_flow.solve pathset demand).Opt_max_flow.total in
  Alcotest.(check bool) "<= OPT" true (r.Pop.total <= opt +. 1e-6);
  match Allocation.check r.Pop.allocation ~demand () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let test_allocation_check_catches_violations () =
  let _, space, pathset, demand = fig1_setup () in
  let a = Allocation.zero pathset in
  let k01 = Option.get (Demand.index space ~src:0 ~dst:1) in
  a.Allocation.flows.(k01).(0) <- 1000.;
  (match Allocation.check a ~demand () with
  | Ok () -> Alcotest.fail "should flag demand violation"
  | Error _ -> ());
  a.Allocation.flows.(k01).(0) <- -1.;
  (match Allocation.check a ~demand () with
  | Ok () -> Alcotest.fail "should flag negative flow"
  | Error _ -> ())

let test_allocation_merge () =
  let _, _, pathset, _ = fig1_setup () in
  let a = Allocation.zero pathset and b = Allocation.zero pathset in
  a.Allocation.flows.(0).(0) <- 3.;
  b.Allocation.flows.(0).(0) <- 4.;
  let m = Allocation.merge a b in
  check_float "merged" 7. m.Allocation.flows.(0).(0);
  check_float "total" 7. (Allocation.total_flow m)

let test_allocation_edge_load () =
  let _, space, pathset, _ = fig1_setup () in
  let g = Pathset.graph pathset in
  let a = Allocation.zero pathset in
  let k02 = Option.get (Demand.index space ~src:0 ~dst:2) in
  (* path 0 of pair 0->2 is the two-hop 0->1->2 *)
  a.Allocation.flows.(k02).(0) <- 10.;
  let load = Allocation.edge_load a in
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let e12 = Option.get (Graph.find_edge g 1 2) in
  let e02 = Option.get (Graph.find_edge g 0 2) in
  check_float "e01" 10. load.(e01);
  check_float "e12" 10. load.(e12);
  check_float "e02 untouched" 0. load.(e02)

(* ------------------------------------------------------------------ *)
(* Sorting network                                                     *)
(* ------------------------------------------------------------------ *)

let test_sorting_network_sorts () =
  let cases = [ [||]; [| 1. |]; [| 3.; 1. |]; [| 5.; 2.; 9.; 1.; 7. |] ] in
  List.iter
    (fun a ->
      let expected = Array.copy a in
      Array.sort compare expected;
      Alcotest.(check (array (float 1e-12))) "sorted" expected
        (Sorting_network.sort_floats a))
    cases

let sorting_network_property =
  QCheck.Test.make ~count:200 ~name:"sorting network sorts any input"
    QCheck.(array_of_size (QCheck.Gen.int_range 0 12) (float_range (-100.) 100.))
    (fun a ->
      let expected = Array.copy a in
      Array.sort compare expected;
      Sorting_network.sort_floats a = expected)

let test_sorting_network_milp_encoding () =
  (* fix inputs as constants; the k-th largest output must match *)
  let open Repro_lp in
  let model = Model.create () in
  let values = [| 4.; 9.; 1.; 6. |] in
  let inputs =
    Array.map (fun v -> Model.add_var ~lb:v ~ub:v model) values
  in
  let second = Sorting_network.kth_largest model ~lo:0. ~hi:10. inputs 2 in
  Model.set_objective model Model.Maximize (Linexpr.var second);
  let r = Solver.solve model in
  Alcotest.(check (float 1e-5)) "2nd largest" 6. r.Branch_bound.objective;
  (* also check minimize pins the same value: the encoding is exact, not
     just an upper bound *)
  let model2 = Model.create () in
  let inputs2 = Array.map (fun v -> Model.add_var ~lb:v ~ub:v model2) values in
  let second2 = Sorting_network.kth_largest model2 ~lo:0. ~hi:10. inputs2 2 in
  Model.set_objective model2 Model.Minimize (Linexpr.var second2);
  let r2 = Solver.solve model2 in
  Alcotest.(check (float 1e-5)) "2nd largest (min)" 6. r2.Branch_bound.objective

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let te_feasibility_property =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* n = int_range 4 7 in
      let* max_d = float_range 10. 500. in
      return (seed, n, max_d))
  in
  QCheck.Test.make ~count:25 ~name:"OPT >= DP and OPT >= POP, all allocations feasible"
    (QCheck.make gen) (fun (seed, n, max_d) ->
      let rng = Rng.create seed in
      let g = Topologies.circle ~n ~neighbors:1 ~capacity:100. () in
      let space = Demand.full_space g in
      let pathset = Pathset.compute space ~k:2 in
      let demand = Demand.uniform space ~rng ~max:max_d in
      let opt = Opt_max_flow.solve pathset demand in
      (match Allocation.check opt.Opt_max_flow.allocation ~demand () with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "OPT infeasible: %s" e);
      (match Demand_pinning.solve pathset ~threshold:5. demand with
      | Demand_pinning.Feasible { total; allocation; _ } ->
          if total > opt.Opt_max_flow.total +. 1e-6 then
            QCheck.Test.fail_reportf "DP %g beats OPT %g" total opt.Opt_max_flow.total;
          (match Allocation.check allocation ~demand () with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "DP infeasible: %s" e)
      | Demand_pinning.Infeasible_pinning _ -> ());
      let partition =
        Pop.random_partition ~rng ~num_pairs:(Demand.size space) ~parts:2
      in
      let pop = Pop.solve pathset ~parts:2 partition demand in
      if pop.Pop.total > opt.Opt_max_flow.total +. 1e-6 then
        QCheck.Test.fail_reportf "POP beats OPT";
      (match Allocation.check pop.Pop.allocation ~demand () with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "POP infeasible: %s" e);
      true)

let client_split_volume_property =
  QCheck.Test.make ~count:100 ~name:"client splitting preserves volume"
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_range 1 10) (float_range 0. 1000.))
        (pair (float_range 1. 200.) (int_range 0 4)))
    (fun (demand, (threshold, max_splits)) ->
      let split = Pop.client_split demand ~threshold ~max_splits in
      let by_origin = Array.make (Array.length demand) 0. in
      Array.iteri
        (fun v k -> by_origin.(k) <- by_origin.(k) +. split.Pop.volumes.(v))
        split.Pop.origin;
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) demand by_origin)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "te"
    [
      ( "pathset",
        [
          Alcotest.test_case "fig1" `Quick test_pathset_fig1;
          Alcotest.test_case "incidence" `Quick test_pathset_incidence;
        ] );
      ( "mcf",
        [
          Alcotest.test_case "only + cap_scale" `Quick test_mcf_only_filter_and_scale;
          Alcotest.test_case "demand as variable" `Quick test_mcf_demand_bound_as_variable;
        ] );
      ( "opt_max_flow",
        [
          Alcotest.test_case "fig1 = 360" `Quick test_opt_fig1;
          Alcotest.test_case "capacity cap" `Quick test_opt_respects_capacity;
          Alcotest.test_case "zero demand" `Quick test_opt_zero_demand;
          Alcotest.test_case "multipath split" `Quick test_opt_multipath_split;
        ] );
      ( "demand_pinning",
        [
          Alcotest.test_case "fig1 = 260" `Quick test_dp_fig1;
          Alcotest.test_case "threshold 0 = OPT" `Quick test_dp_zero_threshold_equals_opt;
          Alcotest.test_case "never beats OPT" `Quick test_dp_never_beats_opt;
          Alcotest.test_case "infeasible pinning" `Quick test_dp_infeasible_pinning;
          Alcotest.test_case "pins predicate" `Quick test_dp_pins_predicate;
        ] );
      ( "pop",
        [
          Alcotest.test_case "1 part = OPT" `Quick test_pop_single_part_is_opt;
          Alcotest.test_case "never beats OPT" `Quick test_pop_never_beats_opt;
          Alcotest.test_case "balanced partition" `Quick test_pop_partition_balanced;
          Alcotest.test_case "per-part sums" `Quick test_pop_per_part_sums;
          Alcotest.test_case "client split" `Quick test_client_split;
          Alcotest.test_case "client split max" `Quick test_client_split_respects_max;
          Alcotest.test_case "client split pop" `Quick test_pop_with_client_split_feasible;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "check violations" `Quick test_allocation_check_catches_violations;
          Alcotest.test_case "merge" `Quick test_allocation_merge;
          Alcotest.test_case "edge load" `Quick test_allocation_edge_load;
        ] );
      ( "sorting_network",
        [
          Alcotest.test_case "sorts" `Quick test_sorting_network_sorts;
          Alcotest.test_case "milp encoding" `Quick test_sorting_network_milp_encoding;
        ] );
      ( "properties",
        [
          q sorting_network_property;
          q te_feasibility_property;
          q client_split_volume_property;
        ] );
    ]
