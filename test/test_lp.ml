(* Tests for the LP/MILP solver substrate (Repro_lp). *)

open Repro_lp

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Linexpr                                                             *)
(* ------------------------------------------------------------------ *)

let test_linexpr_basic () =
  let e = Linexpr.(add (var ~coef:2. 0) (var ~coef:3. 1)) in
  check_float "coef x0" 2. (Linexpr.coef e 0);
  check_float "coef x1" 3. (Linexpr.coef e 1);
  check_float "coef x2" 0. (Linexpr.coef e 2);
  let e = Linexpr.add_term e 0 (-2.) in
  Alcotest.(check int) "x0 dropped" 1 (Linexpr.size e);
  check_float "eval" 6. (Linexpr.eval e (fun _ -> 2.))

let test_linexpr_alg () =
  let a = Linexpr.of_terms ~constant:1. [ (0, 1.); (1, -2.) ] in
  let b = Linexpr.of_terms ~constant:2. [ (1, 2.); (2, 5.) ] in
  let s = Linexpr.add a b in
  check_float "const" 3. (Linexpr.const_part s);
  check_float "x1 cancels" 0. (Linexpr.coef s 1);
  check_float "x2" 5. (Linexpr.coef s 2);
  let d = Linexpr.sub s s in
  Alcotest.(check bool) "self-sub is zero" true (Linexpr.equal d Linexpr.zero);
  let sc = Linexpr.scale (-2.) a in
  check_float "scaled const" (-2.) (Linexpr.const_part sc);
  check_float "scaled x1" 4. (Linexpr.coef sc 1)

let test_linexpr_sum_of_terms () =
  let e = Linexpr.of_terms [ (3, 1.); (3, 2.5); (1, -1.) ] in
  check_float "dup summed" 3.5 (Linexpr.coef e 3);
  check_float "other" (-1.) (Linexpr.coef e 1);
  Alcotest.(check int) "size" 2 (Linexpr.size e)

let test_linexpr_map_vars () =
  let e = Linexpr.of_terms [ (0, 1.); (1, 2.) ] in
  let m = Linexpr.map_vars (fun _ -> 7) e in
  check_float "merged coef" 3. (Linexpr.coef m 7);
  Alcotest.(check int) "one var" 1 (Linexpr.size m)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model_build () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~ub:4. m in
  let y = Model.add_var ~name:"y" ~kind:Model.Binary m in
  let _c = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Le 3. in
  Model.set_objective m Model.Maximize (Linexpr.var x);
  Alcotest.(check int) "vars" 2 (Model.num_vars m);
  Alcotest.(check int) "constrs" 1 (Model.num_constrs m);
  Alcotest.(check bool) "is mip" true (Model.is_mip m);
  check_float "binary ub" 1. (Model.var_ub m y);
  Alcotest.(check string) "name" "x" (Model.var_name m x)

let test_model_constant_folding () =
  let m = Model.create () in
  let x = Model.add_var m in
  (* x + 5 <= 8  ==>  x <= 3 *)
  let c = Model.add_constr m (Linexpr.of_terms ~constant:5. [ (x, 1.) ]) Model.Le 8. in
  check_float "rhs folded" 3. (Model.constr_rhs m c);
  check_float "no const left" 0. (Linexpr.const_part (Model.constr_expr m c))

let test_model_violation () =
  let m = Model.create () in
  let x = Model.add_var ~ub:2. m in
  let y = Model.add_var ~kind:Model.Binary m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Ge 1. in
  Model.add_sos1 m [ x; y ];
  check_float "feasible" 0. (Model.max_violation m [| 2.; 0. |]);
  Alcotest.(check bool) "sos violated" true (Model.max_violation m [| 1.; 1. |] > 0.5);
  Alcotest.(check bool) "int violated" true (Model.max_violation m [| 2.; 0.5 |] > 0.4);
  Alcotest.(check bool) "bound violated" true (Model.max_violation m [| 3.; 0. |] > 0.5)

(* ------------------------------------------------------------------ *)
(* Simplex: LP solving                                                 *)
(* ------------------------------------------------------------------ *)

let lp_status = Alcotest.testable (Fmt.of_to_string (function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration-limit")) ( = )

let test_lp_single_var () =
  let m = Model.create () in
  let x = Model.add_var m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Le 5. in
  Model.set_objective m Model.Maximize (Linexpr.var x);
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" 5. r.objective;
  check_float "x" 5. (Solver.value r x)

let test_lp_two_var () =
  (* max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6  -> (4, 0), obj 12 *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Le 4. in
  let _ = Model.add_constr m Linexpr.(add (var x) (var ~coef:3. y)) Model.Le 6. in
  Model.set_objective m Model.Maximize Linexpr.(add (var ~coef:3. x) (var ~coef:2. y));
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" 12. r.objective;
  check_float "x" 4. (Solver.value r x);
  check_float "y" 0. (Solver.value r y)

let test_lp_equality () =
  (* x + y = 10, 0 <= x <= 6, max x - y -> x=6, y=4 *)
  let m = Model.create () in
  let x = Model.add_var ~ub:6. m and y = Model.add_var m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Eq 10. in
  Model.set_objective m Model.Maximize Linexpr.(sub (var x) (var y));
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" 2. r.objective;
  check_float "x" 6. (Solver.value r x);
  check_float "y" 4. (Solver.value r y)

let test_lp_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Ge 3. in
  let _ = Model.add_constr m (Linexpr.var x) Model.Le 1. in
  Model.set_objective m Model.Minimize (Linexpr.var x);
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Infeasible r.status

let test_lp_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Ge 1. in
  Model.set_objective m Model.Maximize (Linexpr.var x);
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Unbounded r.status

let test_lp_free_var () =
  (* min x with x free, constraint x >= -5 *)
  let m = Model.create () in
  let x = Model.add_var ~lb:neg_infinity m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Ge (-5.) in
  Model.set_objective m Model.Minimize (Linexpr.var x);
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" (-5.) r.objective

let test_lp_var_bounds_only () =
  (* no constraints: min over box bounds *)
  let m = Model.create () in
  let x = Model.add_var ~lb:2. ~ub:7. m in
  let y = Model.add_var ~lb:(-3.) ~ub:1. m in
  Model.set_objective m Model.Minimize Linexpr.(add (var x) (var ~coef:2. y));
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" (-4.) r.objective;
  check_float "x" 2. (Solver.value r x);
  check_float "y" (-3.) (Solver.value r y)

let test_lp_negative_rhs () =
  (* -x <= -3  ==>  x >= 3; min x -> 3 *)
  let m = Model.create () in
  let x = Model.add_var m in
  let _ = Model.add_constr m (Linexpr.var ~coef:(-1.) x) Model.Le (-3.) in
  Model.set_objective m Model.Minimize (Linexpr.var x);
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" 3. r.objective

let test_lp_objective_constant () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1. m in
  Model.set_objective m Model.Maximize (Linexpr.of_terms ~constant:10. [ (x, 1.) ]);
  let r = Solver.solve_lp m in
  check_float "obj includes constant" 11. r.objective

let test_lp_degenerate () =
  (* classic degenerate LP: multiple constraints tight at optimum *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Le 1. in
  let _ = Model.add_constr m (Linexpr.var x) Model.Le 1. in
  let _ = Model.add_constr m (Linexpr.var y) Model.Le 1. in
  let _ = Model.add_constr m Linexpr.(add (var ~coef:2. x) (var y)) Model.Le 2. in
  Model.set_objective m Model.Maximize Linexpr.(add (var x) (var y)) ;
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" 1. r.objective

let test_lp_duals_le () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example):
     optimum (2, 6) obj 36, duals (0, 1.5, 1). *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  let c1 = Model.add_constr m (Linexpr.var x) Model.Le 4. in
  let c2 = Model.add_constr m (Linexpr.var ~coef:2. y) Model.Le 12. in
  let c3 = Model.add_constr m Linexpr.(add (var ~coef:3. x) (var ~coef:2. y)) Model.Le 18. in
  Model.set_objective m Model.Maximize Linexpr.(add (var ~coef:3. x) (var ~coef:5. y));
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "status" Simplex.Optimal r.status;
  check_float "obj" 36. r.objective;
  check_float "x" 2. (Solver.value r x);
  check_float "y" 6. (Solver.value r y);
  check_float "dual c1" 0. r.duals.(c1);
  check_float "dual c2" 1.5 r.duals.(c2);
  check_float "dual c3" 1. r.duals.(c3)

let test_lp_resolve_after_bound_change () =
  (* warm restart with dual simplex after tightening a bound *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Le 10. in
  Model.set_objective m Model.Maximize Linexpr.(add (var ~coef:2. x) (var y));
  let sf = Standard_form.of_model m in
  let s = Simplex.create sf in
  let r1 = Simplex.solve_fresh s in
  check_float "initial obj" 20. r1.Simplex.objective;
  Simplex.set_bounds s x ~lb:0. ~ub:3.;
  let r2 = Simplex.resolve s in
  Alcotest.check lp_status "status" Simplex.Optimal r2.Simplex.status;
  check_float "after x<=3" 13. r2.Simplex.objective;
  (* relax the bound back *)
  Simplex.set_bounds s x ~lb:0. ~ub:infinity;
  let r3 = Simplex.resolve s in
  check_float "restored" 20. r3.Simplex.objective;
  (* fix x to zero (SOS1-style branching) *)
  Simplex.set_bounds s x ~lb:0. ~ub:0.;
  let r4 = Simplex.resolve s in
  check_float "x fixed 0" 10. r4.Simplex.objective

let test_lp_resolve_to_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Ge 5. in
  Model.set_objective m Model.Minimize (Linexpr.var x);
  let s = Simplex.create (Standard_form.of_model m) in
  let r1 = Simplex.solve_fresh s in
  check_float "obj" 5. r1.Simplex.objective;
  Simplex.set_bounds s x ~lb:0. ~ub:2.;
  let r2 = Simplex.resolve s in
  Alcotest.check lp_status "now infeasible" Simplex.Infeasible r2.Simplex.status

(* ------------------------------------------------------------------ *)
(* Branch and bound: MILP + SOS1                                       *)
(* ------------------------------------------------------------------ *)

let bb_outcome = Alcotest.testable (Fmt.of_to_string (function
  | Branch_bound.Optimal -> "optimal"
  | Branch_bound.Feasible -> "feasible"
  | Branch_bound.No_incumbent -> "no-incumbent"
  | Branch_bound.Infeasible -> "infeasible"
  | Branch_bound.Unbounded -> "unbounded")) ( = )

let test_milp_knapsack () =
  (* max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binary -> 21 *)
  let m = Model.create () in
  let vs = Model.add_vars ~kind:Model.Binary m 4 in
  let profits = [| 8.; 11.; 6.; 4. |] and weights = [| 5.; 7.; 4.; 3. |] in
  let expr coefs = Linexpr.of_terms (Array.to_list (Array.mapi (fun i v -> (v, coefs.(i))) vs)) in
  let _ = Model.add_constr m (expr weights) Model.Le 14. in
  Model.set_objective m Model.Maximize (expr profits);
  let r = Solver.solve m in
  Alcotest.check bb_outcome "outcome" Branch_bound.Optimal r.Branch_bound.outcome;
  check_float "obj" 21. r.Branch_bound.objective;
  match r.Branch_bound.primal with
  | None -> Alcotest.fail "no primal"
  | Some x ->
      check_float "a" 0. x.(vs.(0));
      check_float "b" 1. x.(vs.(1));
      check_float "c" 1. x.(vs.(2));
      check_float "d" 1. x.(vs.(3))

let test_milp_integer_rounding () =
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Le 3.7 in
  Model.set_objective m Model.Maximize (Linexpr.var x);
  let r = Solver.solve m in
  check_float "floor" 3. r.Branch_bound.objective

let test_milp_infeasible () =
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Binary m in
  let _ = Model.add_constr m (Linexpr.var ~coef:2. x) Model.Eq 1. in
  Model.set_objective m Model.Maximize (Linexpr.var x);
  let r = Solver.solve m in
  Alcotest.check bb_outcome "outcome" Branch_bound.Infeasible r.Branch_bound.outcome

let test_sos1_pick_best () =
  (* max x + y, x <= 4, y <= 3, SOS1(x, y) -> 4 *)
  let m = Model.create () in
  let x = Model.add_var ~ub:4. m and y = Model.add_var ~ub:3. m in
  Model.add_sos1 m [ x; y ];
  Model.set_objective m Model.Maximize Linexpr.(add (var x) (var y));
  let r = Solver.solve m in
  Alcotest.check bb_outcome "outcome" Branch_bound.Optimal r.Branch_bound.outcome;
  check_float "obj" 4. r.Branch_bound.objective

let test_sos1_forced_choice () =
  (* min x + 2y, x + y >= 2, SOS1(x, y) -> x = 2, obj 2 *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Ge 2. in
  Model.add_sos1 m [ x; y ];
  Model.set_objective m Model.Minimize Linexpr.(add (var x) (var ~coef:2. y));
  let r = Solver.solve m in
  check_float "obj" 2. r.Branch_bound.objective

let test_sos1_triple () =
  (* three-member SOS1: max x+y+z, each <= ub, only one may be nonzero *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1. m
  and y = Model.add_var ~ub:5. m
  and z = Model.add_var ~ub:3. m in
  Model.add_sos1 m [ x; y; z ];
  Model.set_objective m Model.Maximize Linexpr.(sum [ var x; var y; var z ]);
  let r = Solver.solve m in
  check_float "obj" 5. r.Branch_bound.objective

let test_milp_mixed_int_sos () =
  (* binary b, continuous x,y with SOS1(x,y):
     max 3b + x + y, x <= 2 + 2b, y <= 3 - 3b  -> b=1: x<=4, y<=0: 3+4=7
                                                   b=0: max(2,3)=3 -> 7 *)
  let m = Model.create () in
  let b = Model.add_var ~kind:Model.Binary m in
  let x = Model.add_var m and y = Model.add_var m in
  let _ = Model.add_constr m Linexpr.(sub (var x) (var ~coef:2. b)) Model.Le 2. in
  let _ = Model.add_constr m Linexpr.(add (var y) (var ~coef:3. b)) Model.Le 3. in
  Model.add_sos1 m [ x; y ];
  Model.set_objective m Model.Maximize Linexpr.(sum [ var ~coef:3. b; var x; var y ]);
  let r = Solver.solve m in
  check_float "obj" 7. r.Branch_bound.objective

let test_bb_primal_heuristic_incumbent () =
  (* heuristic supplies a trusted solution value; check it is reported *)
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer ~ub:10. m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Le 7.5 in
  Model.set_objective m Model.Maximize (Linexpr.var x);
  let called = ref false in
  let h _relax =
    called := true;
    Some (6., None)
  in
  let r = Branch_bound.solve ~primal_heuristic:h m in
  Alcotest.check bb_outcome "outcome" Branch_bound.Optimal r.Branch_bound.outcome;
  check_float "true optimum still found" 7. r.Branch_bound.objective;
  (* the root relaxation sits at x = 7.5, so the heuristic is consulted *)
  Alcotest.(check bool) "heuristic called" true !called

let test_bb_incumbent_trace () =
  let m = Model.create () in
  let vs = Model.add_vars ~kind:Model.Binary m 6 in
  let expr coefs =
    Linexpr.of_terms (List.mapi (fun i v -> (v, coefs.(i))) (Array.to_list vs))
  in
  let _ =
    Model.add_constr m (expr [| 3.; 5.; 4.; 2.; 6.; 3. |]) Model.Le 10.
  in
  Model.set_objective m Model.Maximize (expr [| 4.; 7.; 5.; 3.; 8.; 4. |]);
  let seen = ref [] in
  let r = Branch_bound.solve ~on_incumbent:(fun v -> seen := v :: !seen) m in
  Alcotest.(check bool) "trace non-empty" true (List.length r.Branch_bound.incumbent_trace > 0);
  Alcotest.(check bool) "callback fired" true (List.length !seen > 0);
  (* trace values must be non-decreasing for a max problem *)
  let values = List.map snd r.Branch_bound.incumbent_trace in
  let sorted = List.sort compare values in
  Alcotest.(check (list (float 1e-9))) "monotone" sorted values

(* ------------------------------------------------------------------ *)
(* Containers: Heap, Buf                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (fun (p, x) -> Heap.push h p x) [ (3., "c"); (5., "a"); (1., "e"); (4., "b"); (2., "d") ];
  Alcotest.(check int) "size" 5 (Heap.size h);
  check_float "max priority" 5. (Heap.max_priority h);
  let order = List.init 5 (fun _ -> snd (Heap.pop h)) in
  Alcotest.(check (list string)) "descending priority" [ "a"; "b"; "c"; "d"; "e" ] order;
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop h))

let heap_sorts_property =
  QCheck.Test.make ~count:200 ~name:"heap pops in non-increasing priority order"
    QCheck.(list (float_range (-100.) 100.))
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p ()) ps;
      let out = List.init (List.length ps) (fun _ -> fst (Heap.pop h)) in
      out = List.sort (fun a b -> compare b a) ps)

let test_buf_growth () =
  let b = Buf.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "push index" i (Buf.push b (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Buf.length b);
  Alcotest.(check int) "get" 84 (Buf.get b 42);
  Buf.set b 42 (-1);
  Alcotest.(check int) "set" (-1) (Buf.get b 42);
  Alcotest.(check int) "fold" 99 (Buf.fold_left (fun acc _ -> acc + 1) (-1) b);
  Alcotest.check_raises "oob" (Invalid_argument "Buf: index out of bounds")
    (fun () -> ignore (Buf.get b 100));
  let arr = Buf.to_array b in
  Alcotest.(check int) "to_array length" 100 (Array.length arr)

(* ------------------------------------------------------------------ *)
(* Simplex hardening                                                   *)
(* ------------------------------------------------------------------ *)

(* Beale's classic cycling example: Dantzig pricing can cycle on it
   without an anti-cycling rule; the Bland fallback must terminate at the
   known optimum 0.05 (x = (0.04, 0, 1, 0)). *)
let test_lp_beale_cycling () =
  let m = Model.create () in
  let x = Model.add_vars m 4 in
  let expr l = Linexpr.of_terms (List.map (fun (i, c) -> (x.(i), c)) l) in
  let _ =
    Model.add_constr m
      (expr [ (0, 0.25); (1, -60.); (2, -0.04); (3, 9.) ])
      Model.Le 0.
  in
  let _ =
    Model.add_constr m
      (expr [ (0, 0.5); (1, -90.); (2, -0.02); (3, 3.) ])
      Model.Le 0.
  in
  let _ = Model.add_constr m (expr [ (2, 1.) ]) Model.Le 1. in
  Model.set_objective m Model.Maximize
    (expr [ (0, 0.75); (1, -150.); (2, 0.02); (3, -6.) ]);
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "terminates" Simplex.Optimal r.status;
  Alcotest.(check (float 1e-9)) "Beale optimum" 0.05 r.objective

let test_lp_duals_equality_row () =
  (* max 2x + 3y s.t. x + y = 10, x <= 6: optimum (0,10)? obj 30 with y=10;
     or (6,4): 12+12=24 -> optimum y=10. dual of equality = 3 (marginal
     value of one more unit of rhs). *)
  let m = Model.create () in
  let x = Model.add_var ~ub:6. m and y = Model.add_var m in
  let ceq = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Eq 10. in
  Model.set_objective m Model.Maximize Linexpr.(add (var ~coef:2. x) (var ~coef:3. y));
  let r = Solver.solve_lp m in
  check_float "obj" 30. r.objective;
  check_float "equality dual" 3. r.duals.(ceq);
  (* sanity: perturbing the rhs by +1 moves the optimum by the dual *)
  let m2 = Model.create () in
  let x2 = Model.add_var ~ub:6. m2 and y2 = Model.add_var m2 in
  let _ = Model.add_constr m2 Linexpr.(add (var x2) (var y2)) Model.Eq 11. in
  Model.set_objective m2 Model.Maximize Linexpr.(add (var ~coef:2. x2) (var ~coef:3. y2));
  check_float "marginal" (30. +. 3.) (Solver.solve_lp m2).objective

let test_lp_ge_row_duals () =
  (* min 3x + 2y s.t. x + y >= 4, x >= 1: optimum (1, 3) obj 9;
     dual of the >= row = 2 (cost of one more required unit) *)
  let m = Model.create () in
  let x = Model.add_var ~lb:1. m and y = Model.add_var m in
  let cge = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Ge 4. in
  Model.set_objective m Model.Minimize Linexpr.(add (var ~coef:3. x) (var ~coef:2. y));
  let r = Solver.solve_lp m in
  check_float "obj" 9. r.objective;
  check_float "x" 1. r.primal.(x);
  check_float "y" 3. r.primal.(y);
  check_float "ge dual" 2. r.duals.(cge)

let test_lp_iteration_limit () =
  (* a tiny limit must return Iteration_limit, not loop or crash *)
  let m = Model.create () in
  let xs = Model.add_vars m 10 in
  for i = 0 to 8 do
    ignore
      (Model.add_constr m
         Linexpr.(add (var xs.(i)) (var xs.(i + 1)))
         Model.Le (float_of_int (i + 1)))
  done;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) xs)));
  let sf = Standard_form.of_model m in
  let s = Simplex.create sf in
  let r = Simplex.solve_fresh ~iter_limit:1 s in
  Alcotest.check lp_status "limited" Simplex.Iteration_limit r.Simplex.status

let test_lp_large_random_consistency () =
  (* a mid-size LP: primal feasibility and strong duality at scale *)
  let rng = Random.State.make [| 2024 |] in
  let n = 60 and mm = 40 in
  let m = Model.create () in
  let xs = Model.add_vars m n in
  let rows =
    Array.init mm (fun _ ->
        let terms =
          List.filter_map
            (fun j ->
              if Random.State.float rng 1. < 0.3 then
                Some (j, Random.State.float rng 4.)
              else None)
            (List.init n (fun j -> j))
        in
        let rhs = 5. +. Random.State.float rng 50. in
        (terms, rhs))
  in
  Array.iter
    (fun (terms, rhs) ->
      ignore
        (Model.add_constr m
           (Linexpr.of_terms (List.map (fun (j, c) -> (xs.(j), c)) terms))
           Model.Le rhs))
    rows;
  ignore
    (Model.add_constr m
       (Linexpr.of_terms (List.init n (fun j -> (xs.(j), 1.))))
       Model.Le 500.);
  let c = Array.init n (fun _ -> Random.State.float rng 3.) in
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
  let r = Solver.solve_lp m in
  Alcotest.check lp_status "optimal" Simplex.Optimal r.status;
  (* duality check *)
  let dual_obj = ref (500. *. r.duals.(mm)) in
  Array.iteri (fun i (_, rhs) -> dual_obj := !dual_obj +. (rhs *. r.duals.(i))) rows;
  Alcotest.(check (float 1e-3)) "strong duality at scale" r.objective !dual_obj

(* ------------------------------------------------------------------ *)
(* Presolve                                                            *)
(* ------------------------------------------------------------------ *)

let test_presolve_singleton_rows () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  (* 2x <= 10 -> ub 5; -y <= -3 -> lb 3; x + y <= 100 stays *)
  let _ = Model.add_constr m (Linexpr.var ~coef:2. x) Model.Le 10. in
  let _ = Model.add_constr m (Linexpr.var ~coef:(-1.) y) Model.Le (-3.) in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Le 100. in
  Model.set_objective m Model.Maximize Linexpr.(add (var x) (var y));
  match Presolve.reduce m with
  | Presolve.Infeasible_model -> Alcotest.fail "feasible model"
  | Presolve.Reduced red ->
      Alcotest.(check bool) "rows dropped" true (red.Presolve.rows_dropped >= 2);
      Alcotest.(check bool) "bounds tightened" true (red.Presolve.bounds_tightened >= 2);
      (* the last row becomes redundant (max lhs = 5 + y_ub...) - solve both *)
      let r0 = Solver.solve m in
      let r1 = Solver.solve ~presolve:true m in
      check_float "same optimum" r0.Branch_bound.objective r1.Branch_bound.objective

let test_presolve_fixes_variables () =
  let m = Model.create () in
  let x = Model.add_var ~lb:4. ~ub:4. m in
  let y = Model.add_var ~ub:10. m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Le 7. in
  Model.set_objective m Model.Maximize Linexpr.(add (var ~coef:5. x) (var y));
  match Presolve.reduce m with
  | Presolve.Infeasible_model -> Alcotest.fail "feasible"
  | Presolve.Reduced red ->
      Alcotest.(check int) "one fixed" 1 red.Presolve.vars_fixed;
      Alcotest.(check int) "one var left" 1 (Model.num_vars red.Presolve.model);
      let r = Solver.solve ~presolve:true m in
      check_float "objective with substitution" 23. r.Branch_bound.objective;
      (match r.Branch_bound.primal with
      | Some p ->
          check_float "x restored" 4. p.(x);
          check_float "y restored" 3. p.(y)
      | None -> Alcotest.fail "no primal")

let test_presolve_detects_infeasible () =
  let m = Model.create () in
  let x = Model.add_var ~ub:2. m in
  let _ = Model.add_constr m (Linexpr.var x) Model.Ge 5. in
  Model.set_objective m Model.Minimize (Linexpr.var x);
  Alcotest.(check bool) "infeasible detected" true
    (Presolve.reduce m = Presolve.Infeasible_model)

let test_presolve_forcing_row () =
  (* x + y >= 20 with x <= 10, y <= 10 forces x = y = 10 *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10. m and y = Model.add_var ~ub:10. m in
  let _ = Model.add_constr m Linexpr.(add (var x) (var y)) Model.Ge 20. in
  Model.set_objective m Model.Minimize Linexpr.(add (var x) (var y));
  match Presolve.reduce m with
  | Presolve.Infeasible_model -> Alcotest.fail "feasible"
  | Presolve.Reduced red ->
      Alcotest.(check int) "both fixed" 2 red.Presolve.vars_fixed;
      Alcotest.(check int) "nothing left" 0 (Model.num_vars red.Presolve.model);
      let restored = Presolve.restore red [||] in
      check_float "x forced" 10. restored.(x);
      check_float "y forced" 10. restored.(y)

let test_presolve_sos_propagation () =
  let m = Model.create () in
  let x = Model.add_var ~lb:3. ~ub:3. m in
  let y = Model.add_var ~ub:5. m in
  let z = Model.add_var ~ub:5. m in
  Model.add_sos1 m [ x; y; z ];
  Model.set_objective m Model.Maximize Linexpr.(sum [ var x; var y; var z ]);
  match Presolve.reduce m with
  | Presolve.Infeasible_model -> Alcotest.fail "feasible"
  | Presolve.Reduced red ->
      (* x fixed nonzero zeroes y and z; the group disappears *)
      Alcotest.(check int) "all fixed" 3 red.Presolve.vars_fixed;
      Alcotest.(check int) "no sos left" 0 (Model.num_sos1 red.Presolve.model);
      let restored = Presolve.restore red [||] in
      check_float "y zeroed" 0. restored.(y);
      check_float "z zeroed" 0. restored.(z)

let test_presolve_integer_rounding () =
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer ~lb:1.2 ~ub:3.8 m in
  Model.set_objective m Model.Maximize (Linexpr.var x);
  match Presolve.reduce m with
  | Presolve.Infeasible_model -> Alcotest.fail "feasible"
  | Presolve.Reduced red ->
      check_float "integral ub" 3. (Model.var_ub red.Presolve.model 0);
      check_float "integral lb" 2. (Model.var_lb red.Presolve.model 0)

let presolve_equivalence_property =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* m = int_range 1 4 in
      let* a = array_size (return (m * n)) (float_range (-4.) 6.) in
      let* b = array_size (return m) (float_range 0.5 12.) in
      let* c = array_size (return n) (float_range (-3.) 8.) in
      return (n, m, a, b, c))
  in
  QCheck.Test.make ~count:100 ~name:"presolve preserves binary-MILP optima"
    (QCheck.make gen) (fun (n, m, a, b, c) ->
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
      let plain = Solver.solve model in
      let pre = Solver.solve ~presolve:true model in
      match (plain.Branch_bound.outcome, pre.Branch_bound.outcome) with
      | Branch_bound.Infeasible, Branch_bound.Infeasible -> true
      | Branch_bound.Optimal, Branch_bound.Optimal ->
          if
            Float.abs (plain.Branch_bound.objective -. pre.Branch_bound.objective)
            > 1e-6
          then
            QCheck.Test.fail_reportf "plain %g <> presolved %g"
              plain.Branch_bound.objective pre.Branch_bound.objective
          else begin
            (* restored primal must be feasible for the original model *)
            match pre.Branch_bound.primal with
            | Some x -> Model.max_violation model x < 1e-6
            | None -> QCheck.Test.fail_reportf "no restored primal"
          end
      | o1, o2 ->
          QCheck.Test.fail_reportf "outcome mismatch %s %s"
            (Fmt.str "%a" Branch_bound.pp_result plain)
            (Fmt.str "%a"
               (fun ppf _ -> Branch_bound.pp_result ppf pre)
               (o1, o2)))

(* ------------------------------------------------------------------ *)
(* LP file writer                                                      *)
(* ------------------------------------------------------------------ *)

let test_lp_file_sections () =
  let m = Model.create () in
  let x = Model.add_var ~name:"flow" ~ub:4. m in
  let y = Model.add_var ~name:"pick" ~kind:Model.Binary m in
  let z = Model.add_var ~name:"count" ~kind:Model.Integer ~ub:9. m in
  let _ = Model.add_constr ~name:"cap" m Linexpr.(add (var x) (var ~coef:2. y)) Model.Le 7. in
  Model.add_sos1 m [ x; z ];
  Model.set_objective m Model.Maximize Linexpr.(sum [ var x; var y; var z ]);
  let s = Lp_file.to_string m in
  let has sub =
    let n = String.length sub and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
    Alcotest.(check bool) ("has " ^ sub) true (go 0)
  in
  has "Maximize";
  has "Subject To";
  has "cap#0:";
  has "<= 7";
  has "Bounds";
  has "Generals";
  has "Binaries";
  has "SOS";
  has "S1 ::";
  has "End"

let test_lp_file_roundtrip_values () =
  (* writer must quote exact bounds, including infinities and fixations *)
  let m = Model.create () in
  let _free = Model.add_var ~name:"free" ~lb:neg_infinity m in
  let _fixed = Model.add_var ~name:"fx" ~lb:2.5 ~ub:2.5 m in
  Model.set_objective m Model.Minimize Linexpr.zero;
  let s = Lp_file.to_string m in
  let has sub =
    let n = String.length sub and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
    Alcotest.(check bool) ("has " ^ sub) true (go 0)
  in
  has "-inf";
  has "= 2.5"

let test_lp_file_parse_roundtrip () =
  (* write -> parse -> the models must be structurally identical and
     solve to the same optimum *)
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~lb:0. ~ub:4. m in
  let y = Model.add_var ~name:"y" ~kind:Model.Integer ~lb:(-2.) ~ub:10. m in
  let z = Model.add_var ~name:"z" ~kind:Model.Binary m in
  let f = Model.add_var ~name:"f" ~lb:neg_infinity ~ub:infinity m in
  ignore
    (Model.add_constr ~name:"c1" m
       (Linexpr.of_terms [ (x, 1.); (y, 2.); (f, -0.5) ])
       Model.Le 10.);
  ignore
    (Model.add_constr ~name:"c2" m
       (Linexpr.of_terms [ (y, 1.); (z, 3.) ])
       Model.Ge 1.);
  ignore
    (Model.add_constr ~name:"c3" m
       (Linexpr.of_terms [ (x, 1.); (f, 1.) ])
       Model.Eq 2.);
  Model.add_sos1 ~name:"s" m [ x; y ];
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms ~constant:7.5 [ (x, 3.); (y, -1.25); (z, 2.) ]);
  match Lp_file.of_string (Lp_file.to_string m) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m2 ->
      Alcotest.(check int) "vars" (Model.num_vars m) (Model.num_vars m2);
      Alcotest.(check int) "constrs" (Model.num_constrs m)
        (Model.num_constrs m2);
      Alcotest.(check int) "sos1" (Model.num_sos1 m) (Model.num_sos1 m2);
      Alcotest.(check bool) "still a mip" true (Model.is_mip m2);
      check_float "lb preserved" (-2.) (Model.var_lb m2 1);
      check_float "ub preserved" 10. (Model.var_ub m2 1);
      Alcotest.(check bool) "free var preserved" true
        (Model.var_lb m2 3 = neg_infinity && Model.var_ub m2 3 = infinity);
      let r1 = Solver.solve m in
      let r2 = Solver.solve m2 in
      check_float "same optimum" r1.Branch_bound.objective
        r2.Branch_bound.objective;
      (* second generation must be a textual fixed point: sanitized names
         survive re-sanitization unchanged *)
      let t2 = Lp_file.to_string m2 in
      (match Lp_file.of_string t2 with
      | Error e -> Alcotest.failf "re-parse failed: %s" e
      | Ok m3 ->
          Alcotest.(check string) "textual fixed point" t2
            (Lp_file.to_string m3))

let test_lp_file_parse_plain_dialect () =
  (* hand-written LP text: implicit coefficients, bare constants,
     missing Bounds entries default to [0, +inf) *)
  let text =
    "\\ a comment line\n\
     Minimize\n\
     obj: x + 2 y - z\n\
     Subject To\n\
     c1: x + y >= 2\n\
     c2: - x + z <= 1\n\
     Bounds\n\
     z <= 5\n\
     End\n"
  in
  match Lp_file.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m ->
      Alcotest.(check int) "vars" 3 (Model.num_vars m);
      Alcotest.(check int) "constrs" 2 (Model.num_constrs m);
      check_float "default lb" 0. (Model.var_lb m 0);
      Alcotest.(check bool) "default ub" true (Model.var_ub m 0 = infinity);
      check_float "z ub" 5. (Model.var_ub m 2);
      let r = Solver.solve_lp m in
      Alcotest.(check bool) "optimal" true (r.Solver.status = Simplex.Optimal);
      (* min x + 2y - z: x+y >= 2 -> x=2 (cheaper), z <= min(5, 1+x) = 3 *)
      check_float "objective" (2. -. 3.) r.Solver.objective

let test_lp_file_parse_errors () =
  let bad s =
    match Lp_file.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "Subject To\n c1: x <= 1\nEnd\n";
  (* no objective *)
  bad "Minimize\n obj: x\nSubject To\n c1: x\nEnd\n";
  (* missing relation *)
  bad "stray line before any section\n"

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

(* Random max-LPs of the form max c.x s.t. Ax <= b, 0 <= x, sum x <= B.
   x = 0 is feasible (b >= 0) and the budget row keeps them bounded, so
   the solver must return Optimal, and we can check the full optimality
   certificate: primal feasibility, dual feasibility, strong duality. *)
let random_lp_certificate =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* m = int_range 1 6 in
      let* a = array_size (return (m * n)) (float_range (-5.) 5.) in
      let* b = array_size (return m) (float_range 0. 10.) in
      let* c = array_size (return n) (float_range (-5.) 5.) in
      return (n, m, a, b, c))
  in
  QCheck.Test.make ~count:200 ~name:"simplex optimality certificate"
    (QCheck.make gen) (fun (n, m, a, b, c) ->
      let model = Model.create () in
      let xs = Model.add_vars model n in
      for i = 0 to m - 1 do
        let expr =
          Linexpr.of_terms
            (List.init n (fun j -> (xs.(j), a.((i * n) + j))))
        in
        ignore (Model.add_constr model expr Model.Le b.(i))
      done;
      ignore
        (Model.add_constr model
           (Linexpr.of_terms (List.init n (fun j -> (xs.(j), 1.))))
           Model.Le 100.);
      Model.set_objective model Model.Maximize
        (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
      let r = Solver.solve_lp model in
      if r.Solver.status <> Simplex.Optimal then
        QCheck.Test.fail_reportf "expected optimal, got non-optimal status";
      let tol = 1e-5 in
      (* primal feasibility *)
      for i = 0 to m - 1 do
        let lhs = ref 0. in
        for j = 0 to n - 1 do
          lhs := !lhs +. (a.((i * n) + j) *. r.Solver.primal.(j))
        done;
        if !lhs > b.(i) +. tol then
          QCheck.Test.fail_reportf "primal infeasible row %d: %g > %g" i !lhs b.(i)
      done;
      Array.iter
        (fun x -> if x < -.tol then QCheck.Test.fail_reportf "negative x")
        r.Solver.primal;
      (* dual feasibility: y >= 0 and c_j - sum_i y_i a_ij <= tol *)
      Array.iter
        (fun y -> if y < -.tol then QCheck.Test.fail_reportf "negative dual")
        r.Solver.duals;
      for j = 0 to n - 1 do
        let slack = ref c.(j) in
        for i = 0 to m - 1 do
          slack := !slack -. (r.Solver.duals.(i) *. a.((i * n) + j))
        done;
        (* budget row is index m *)
        slack := !slack -. r.Solver.duals.(m);
        if !slack > tol then
          QCheck.Test.fail_reportf "dual infeasible col %d: %g" j !slack
      done;
      (* strong duality *)
      let dual_obj = ref (100. *. r.Solver.duals.(m)) in
      for i = 0 to m - 1 do
        dual_obj := !dual_obj +. (b.(i) *. r.Solver.duals.(i))
      done;
      if Float.abs (!dual_obj -. r.Solver.objective) > 1e-4 then
        QCheck.Test.fail_reportf "duality gap: primal %g dual %g"
          r.Solver.objective !dual_obj;
      true)

(* Brute-force 0/1 enumeration must agree with branch and bound. *)
let random_binary_milp =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* m = int_range 1 4 in
      let* a = array_size (return (m * n)) (float_range (-4.) 6.) in
      let* b = array_size (return m) (float_range 0.5  12.) in
      let* c = array_size (return n) (float_range (-3.) 8.) in
      return (n, m, a, b, c))
  in
  QCheck.Test.make ~count:100 ~name:"branch&bound matches brute force on binary programs"
    (QCheck.make gen) (fun (n, m, a, b, c) ->
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
      let r = Solver.solve model in
      (* brute force *)
      let best = ref neg_infinity in
      for mask = 0 to (1 lsl n) - 1 do
        let x j = if mask land (1 lsl j) <> 0 then 1. else 0. in
        let ok = ref true in
        for i = 0 to m - 1 do
          let lhs = ref 0. in
          for j = 0 to n - 1 do
            lhs := !lhs +. (a.((i * n) + j) *. x j)
          done;
          if !lhs > b.(i) +. 1e-9 then ok := false
        done;
        if !ok then begin
          let v = ref 0. in
          for j = 0 to n - 1 do
            v := !v +. (c.(j) *. x j)
          done;
          if !v > !best then best := !v
        end
      done;
      if !best = neg_infinity then
        r.Branch_bound.outcome = Branch_bound.Infeasible
      else if Float.abs (r.Branch_bound.objective -. !best) > 1e-5 then
        QCheck.Test.fail_reportf "bb %g <> brute %g" r.Branch_bound.objective !best
      else true)

(* Warm-started resolves after arbitrary bound-change sequences must agree
   with from-scratch solves — the regression test for the stale-phase-1-
   costs bug that once made branch-and-bound prune valid subtrees. *)
let warm_restart_matches_fresh =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 100_000 in
      return seed)
  in
  QCheck.Test.make ~count:150 ~name:"warm resolve = fresh solve after bound changes"
    (QCheck.make gen) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 5 in
      let m = 1 + Random.State.int rng 5 in
      let model = Model.create () in
      let xs = Model.add_vars model n in
      for _ = 1 to m do
        let terms =
          List.init n (fun j -> (xs.(j), Random.State.float rng 10. -. 5.))
        in
        ignore
          (Model.add_constr model (Linexpr.of_terms terms) Model.Le
             (Random.State.float rng 10.))
      done;
      ignore
        (Model.add_constr model
           (Linexpr.of_terms (List.init n (fun j -> (xs.(j), 1.))))
           Model.Le 50.);
      Model.set_objective model Model.Maximize
        (Linexpr.of_terms
           (List.init n (fun j -> (xs.(j), Random.State.float rng 10. -. 3.))));
      let sf = Standard_form.of_model model in
      let s = Simplex.create sf in
      let _ = Simplex.solve_fresh s in
      let ok = ref true in
      for _step = 1 to 6 do
        let j = Random.State.int rng n in
        let lo, hi =
          match Random.State.int rng 4 with
          | 0 -> (0., 0.)
          | 1 -> (0., Random.State.float rng 5.)
          | 2 -> (Random.State.float rng 3., infinity)
          | _ -> (0., infinity)
        in
        Simplex.set_bounds s j ~lb:lo ~ub:hi;
        let warm = Simplex.resolve s in
        let s2 = Simplex.create sf in
        for v = 0 to n - 1 do
          Simplex.set_bounds s2 v ~lb:(Simplex.get_lb s v)
            ~ub:(Simplex.get_ub s v)
        done;
        let fresh = Simplex.solve_fresh s2 in
        if
          warm.Simplex.status <> fresh.Simplex.status
          || (warm.Simplex.status = Simplex.Optimal
             && Float.abs (warm.Simplex.objective -. fresh.Simplex.objective)
                > 1e-5)
        then ok := false
      done;
      !ok)

(* SOS1 via B&B must agree with trying each "only k may be nonzero" LP. *)
let random_sos1_milp =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* ubs = array_size (return n) (float_range 0. 5.) in
      let* c = array_size (return n) (float_range (-2.) 5.) in
      let* cap = float_range 1. 8. in
      return (n, ubs, c, cap))
  in
  QCheck.Test.make ~count:100 ~name:"sos1 branch&bound matches one-at-a-time enumeration"
    (QCheck.make gen) (fun (n, ubs, c, cap) ->
      let build () =
        let model = Model.create () in
        let xs = Array.init n (fun j -> Model.add_var ~ub:ubs.(j) model) in
        ignore
          (Model.add_constr model
             (Linexpr.of_terms (List.init n (fun j -> (xs.(j), 1.))))
             Model.Le cap);
        Model.set_objective model Model.Maximize
          (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
        (model, xs)
      in
      let model, xs = build () in
      Model.add_sos1 model (Array.to_list xs);
      let r = Solver.solve model in
      (* enumerate: allow only variable k to be nonzero *)
      let best = ref 0. in
      for k = 0 to n - 1 do
        let v = c.(k) *. Float.min ubs.(k) cap in
        if v > !best then best := v
      done;
      if Float.abs (r.Branch_bound.objective -. !best) > 1e-6 then
        QCheck.Test.fail_reportf "sos bb %g <> enum %g" r.Branch_bound.objective !best
      else true)

(* ------------------------------------------------------------------ *)
(* Basis eta file                                                      *)
(* ------------------------------------------------------------------ *)

(* Replace random columns of an explicit dense basis matrix one pivot at
   a time, mirror each replacement with [Basis.push], then rebuild the
   file with [Basis.refactorize]. After every stage ftran must solve
   [B x = b], btran must solve [B^T y = c], and every column of
   [ftran_batch] must equal the scalar ftran bit for bit. *)
let basis_solves_match_dense =
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 7 in
      let* pivots = int_range 0 12 in
      let* seed = int_range 0 100_000 in
      return (m, pivots, seed))
  in
  QCheck.Test.make ~count:200 ~name:"basis ftran/btran solve the dense basis"
    (QCheck.make gen) (fun (m, pivots, seed) ->
      let rng = Random.State.make [| seed |] in
      let rand_vec () =
        Array.init m (fun _ ->
            if Random.State.int rng 3 = 0 then 0.
            else Random.State.float rng 8. -. 4.)
      in
      (* bm.(p) is the column sitting at basis position p *)
      let bm = Array.init m (fun p -> Array.init m (fun i -> if i = p then 1. else 0.)) in
      let bas = Basis.create ~m in
      let check stage =
        let b = rand_vec () in
        let x = Array.copy b in
        Basis.ftran bas x;
        let c = rand_vec () in
        let y = Array.copy c in
        Basis.btran bas y;
        for i = 0 to m - 1 do
          let bx = ref 0. and bty = ref 0. in
          for p = 0 to m - 1 do
            bx := !bx +. (bm.(p).(i) *. x.(p));
            bty := !bty +. (bm.(i).(p) *. y.(p))
          done;
          if Float.abs (!bx -. b.(i)) > 1e-6 *. (1. +. Float.abs b.(i)) then
            QCheck.Test.fail_reportf "%s: (B x)[%d] = %g <> %g" stage i !bx b.(i);
          if Float.abs (!bty -. c.(i)) > 1e-6 *. (1. +. Float.abs c.(i)) then
            QCheck.Test.fail_reportf "%s: (B^T y)[%d] = %g <> %g" stage i !bty
              c.(i)
        done;
        let width = 3 in
        let cols = Array.init width (fun _ -> rand_vec ()) in
        let block = Array.make (m * width) 0. in
        Array.iteri
          (fun k col -> Array.iteri (fun i v -> block.((i * width) + k) <- v) col)
          cols;
        Basis.ftran_batch bas ~width block;
        Array.iteri
          (fun k col ->
            Basis.ftran bas col;
            Array.iteri
              (fun i v ->
                if Int64.bits_of_float v
                   <> Int64.bits_of_float block.((i * width) + k)
                then
                  QCheck.Test.fail_reportf "%s: batch column %d row %d differs"
                    stage k i)
              col)
          cols
      in
      check "identity";
      for _ = 1 to pivots do
        let a = rand_vec () in
        let w = Array.copy a in
        Basis.ftran bas w;
        (* pivot on the largest entry so the basis stays well conditioned *)
        let r = ref 0 in
        Array.iteri (fun i v -> if Float.abs v > Float.abs w.(!r) then r := i) w;
        if Float.abs w.(!r) > 0.5 then begin
          Basis.push bas ~r:!r w;
          bm.(!r) <- a
        end
      done;
      check "after pivots";
      let basis = Array.init m (fun p -> p) in
      let cols = Array.map Array.copy bm in
      let col v f = Array.iteri (fun i x -> if x <> 0. then f i x) cols.(v) in
      if Basis.refactorize bas ~col basis then begin
        Array.iteri (fun p v -> bm.(p) <- cols.(v)) basis;
        check "after refactorize"
      end;
      true)

(* ------------------------------------------------------------------ *)
(* Presolve.var_intervals                                              *)
(* ------------------------------------------------------------------ *)

(* The intervals feed big-M derivation, so they must be sound: every
   feasible point of a small bounded integer program lies inside them,
   and [None] (proved infeasible) is only returned when no point is. *)
let var_intervals_contain_feasible_points =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* m = int_range 1 4 in
      let* a = array_size (return (m * n)) (float_range (-4.) 6.) in
      let* b = array_size (return m) (float_range (-2.) 12.) in
      let* eq = array_size (return m) (float_range 0. 1.) in
      return (n, m, a, b, eq))
  in
  QCheck.Test.make ~count:200
    ~name:"var_intervals contain every feasible integer point"
    (QCheck.make gen) (fun (n, m, a, b, eq) ->
      let ub = 3 in
      let model = Model.create () in
      let xs =
        Array.init n (fun _ ->
            Model.add_var ~kind:Model.Integer ~ub:(float_of_int ub) model)
      in
      (* roughly one row in five is an equality with a rounded rhs, so
         some models have a few feasible points and some have none *)
      let rows =
        Array.init m (fun i ->
            let coefs = Array.init n (fun j -> Float.round a.((i * n) + j)) in
            let sense, rhs =
              if eq.(i) < 0.2 then (Model.Eq, Float.round b.(i))
              else (Model.Le, b.(i))
            in
            ignore
              (Model.add_constr model
                 (Linexpr.of_terms (List.init n (fun j -> (xs.(j), coefs.(j)))))
                 sense rhs);
            (coefs, sense, rhs))
      in
      let feasible x =
        Array.for_all
          (fun (coefs, sense, rhs) ->
            let lhs = ref 0. in
            Array.iteri (fun j c -> lhs := !lhs +. (c *. x.(j))) coefs;
            match sense with
            | Model.Eq -> Float.abs (!lhs -. rhs) <= 1e-9
            | _ -> !lhs <= rhs +. 1e-9)
          rows
      in
      let intervals = Presolve.var_intervals model in
      let x = Array.make n 0. in
      let rec enumerate j =
        if j = n then begin
          if feasible x then
            match intervals with
            | None ->
                QCheck.Test.fail_reportf
                  "reported infeasible but x = [%s] is feasible"
                  (String.concat "; "
                     (Array.to_list (Array.map string_of_float x)))
            | Some iv ->
                Array.iteri
                  (fun k v ->
                    let lo, hi = iv.(xs.(k)) in
                    if v < lo -. 1e-9 || v > hi +. 1e-9 then
                      QCheck.Test.fail_reportf
                        "x%d = %g lies outside its interval [%g, %g]" k v lo hi)
                  x
        end
        else
          for v = 0 to ub do
            x.(j) <- float_of_int v;
            enumerate (j + 1)
          done
      in
      enumerate 0;
      true)

(* ------------------------------------------------------------------ *)
(* One warm-started LP per tree node                                   *)
(* ------------------------------------------------------------------ *)

(* At one job the whole tree runs on one backend: the root is its first,
   cold solve and every later node makes exactly one warm [resolve], so
   the warm-start counters account for [nodes - 1] calls on both
   backends. *)
let test_bb_one_resolve_per_node () =
  let build seed =
    let rng = Random.State.make [| seed |] in
    let n = 8 and m = 5 in
    let model = Model.create () in
    let xs = Model.add_vars ~kind:Model.Binary model n in
    for _ = 1 to m do
      let terms =
        List.init n (fun j -> (xs.(j), Random.State.float rng 10. -. 4.))
      in
      ignore
        (Model.add_constr model (Linexpr.of_terms terms) Model.Le
           (1. +. Random.State.float rng 8.))
    done;
    Model.set_objective model Model.Maximize
      (Linexpr.of_terms
         (List.init n (fun j -> (xs.(j), Random.State.float rng 6. -. 1.))));
    model
  in
  let branched = ref false in
  List.iter
    (fun backend ->
      List.iter
        (fun seed ->
          let r =
            Branch_bound.solve
              ~options:
                {
                  Branch_bound.default_options with
                  backend = Some backend;
                  jobs = 1;
                }
              (build seed)
          in
          let s = r.Branch_bound.lp_stats in
          let label =
            Printf.sprintf "%s seed %d" (Backend.kind_to_string backend) seed
          in
          Alcotest.check bb_outcome (label ^ " outcome") Branch_bound.Optimal
            r.Branch_bound.outcome;
          if r.Branch_bound.nodes > 1 then branched := true;
          Alcotest.(check int)
            (label ^ " warm resolves = nodes - 1")
            (r.Branch_bound.nodes - 1)
            (s.Simplex.warm_hits + s.Simplex.warm_misses))
        [ 20240807; 1; 2; 3 ])
    [ Backend.Sparse; Backend.Dense ];
  Alcotest.(check bool) "some instance branched" true !branched

let () =
  let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests) in
  Alcotest.run "lp"
    [
      ( "linexpr",
        [
          Alcotest.test_case "basic" `Quick test_linexpr_basic;
          Alcotest.test_case "algebra" `Quick test_linexpr_alg;
          Alcotest.test_case "of_terms duplicates" `Quick test_linexpr_sum_of_terms;
          Alcotest.test_case "map_vars" `Quick test_linexpr_map_vars;
        ] );
      ( "model",
        [
          Alcotest.test_case "build" `Quick test_model_build;
          Alcotest.test_case "constant folding" `Quick test_model_constant_folding;
          Alcotest.test_case "violations" `Quick test_model_violation;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "single var" `Quick test_lp_single_var;
          Alcotest.test_case "two var" `Quick test_lp_two_var;
          Alcotest.test_case "equality" `Quick test_lp_equality;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "free var" `Quick test_lp_free_var;
          Alcotest.test_case "bounds only" `Quick test_lp_var_bounds_only;
          Alcotest.test_case "negative rhs" `Quick test_lp_negative_rhs;
          Alcotest.test_case "objective constant" `Quick test_lp_objective_constant;
          Alcotest.test_case "degenerate" `Quick test_lp_degenerate;
          Alcotest.test_case "dual values" `Quick test_lp_duals_le;
          Alcotest.test_case "warm restart" `Quick test_lp_resolve_after_bound_change;
          Alcotest.test_case "restart to infeasible" `Quick test_lp_resolve_to_infeasible;
        ] );
      ( "branch_bound",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "integer rounding" `Quick test_milp_integer_rounding;
          Alcotest.test_case "infeasible mip" `Quick test_milp_infeasible;
          Alcotest.test_case "sos1 pick best" `Quick test_sos1_pick_best;
          Alcotest.test_case "sos1 forced" `Quick test_sos1_forced_choice;
          Alcotest.test_case "sos1 triple" `Quick test_sos1_triple;
          Alcotest.test_case "mixed int+sos" `Quick test_milp_mixed_int_sos;
          Alcotest.test_case "primal heuristic" `Quick test_bb_primal_heuristic_incumbent;
          Alcotest.test_case "incumbent trace" `Quick test_bb_incumbent_trace;
          Alcotest.test_case "one resolve per node" `Quick test_bb_one_resolve_per_node;
        ] );
      ( "containers",
        [
          Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
          Alcotest.test_case "buf growth" `Quick test_buf_growth;
        ] );
      ( "simplex_hardening",
        [
          Alcotest.test_case "beale cycling" `Quick test_lp_beale_cycling;
          Alcotest.test_case "equality duals" `Quick test_lp_duals_equality_row;
          Alcotest.test_case "ge duals" `Quick test_lp_ge_row_duals;
          Alcotest.test_case "iteration limit" `Quick test_lp_iteration_limit;
          Alcotest.test_case "mid-size duality" `Quick test_lp_large_random_consistency;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "singleton rows" `Quick test_presolve_singleton_rows;
          Alcotest.test_case "fixed variables" `Quick test_presolve_fixes_variables;
          Alcotest.test_case "infeasible" `Quick test_presolve_detects_infeasible;
          Alcotest.test_case "forcing row" `Quick test_presolve_forcing_row;
          Alcotest.test_case "sos propagation" `Quick test_presolve_sos_propagation;
          Alcotest.test_case "integer rounding" `Quick test_presolve_integer_rounding;
        ] );
      ( "lp_file",
        [
          Alcotest.test_case "sections" `Quick test_lp_file_sections;
          Alcotest.test_case "bounds rendering" `Quick test_lp_file_roundtrip_values;
          Alcotest.test_case "parse roundtrip" `Quick test_lp_file_parse_roundtrip;
          Alcotest.test_case "parse plain dialect" `Quick test_lp_file_parse_plain_dialect;
          Alcotest.test_case "parse errors" `Quick test_lp_file_parse_errors;
        ] );
      qsuite "properties"
        [
          random_lp_certificate;
          warm_restart_matches_fresh;
          random_binary_milp;
          random_sos1_milp;
          presolve_equivalence_property;
          heap_sorts_property;
          basis_solves_match_dense;
          var_intervals_contain_feasible_points;
        ];
    ]
