(* Figure 2: the KKT rewrite worked example.

   The paper's example is a quadratic program (minimize the diameter of a
   rectangle with perimeter >= P); our follower class is linear (the TE
   followers are LPs), so we demonstrate the same encode/optimize/solve
   pipeline on the LP analog: maximize the rectangle's half-perimeter
   subject to w <= P/4 and l <= P/4. The KKT system alone (no objective)
   pins w = l = P/4 — the follower's optimum — exactly as the paper's
   figure shows the feasibility system recovering w = l = P/4. *)

module F = Repro_follower

let run () =
  Common.section "Figure 2: KKT rewrite worked example (LP analog)";
  let p_value = 8. in
  let model = Model.create ~name:"fig2" () in
  let p = Model.add_var ~name:"P" ~lb:p_value ~ub:p_value model in
  let follower = F.Ir.create ~name:"rect" () in
  ignore (F.Ir.add_cols follower 2);
  F.Ir.set_objective follower [ (0, 1.); (1, 1.) ];
  F.Ir.add_rows follower
    [
      {
        F.Ir.row_name = "w_cap";
        inner_terms = [ (0, 1.) ];
        outer_terms = [ (p, -0.25) ];
        sense = F.Ir.Le;
        rhs = 0.;
      };
      {
        F.Ir.row_name = "l_cap";
        inner_terms = [ (1, 1.) ];
        outer_terms = [ (p, -0.25) ];
        sense = F.Ir.Le;
        rhs = 0.;
      };
    ];
  let before_vars = Model.num_vars model
  and before_rows = Model.num_constrs model in
  let emitted = F.Kkt_rewrite.emit model follower in
  Common.row "encode:   follower 'max w + l s.t. w <= P/4, l <= P/4' (P = %g)" p_value;
  Common.row "KKT adds: %d variables, %d constraints, %d complementarity (SOS1) pairs"
    (Model.num_vars model - before_vars)
    (Model.num_constrs model - before_rows)
    emitted.F.Kkt_rewrite.num_complementarity;
  (* the host adversarially pulls the follower value DOWN; KKT resists *)
  Model.set_objective model Model.Minimize emitted.F.Kkt_rewrite.value;
  let r = Solver.solve model in
  let x = Option.get r.Branch_bound.primal in
  Common.row "solve:    w = %g, l = %g   (expected P/4 = %g each)"
    x.(emitted.F.Kkt_rewrite.x.(0)) x.(emitted.F.Kkt_rewrite.x.(1)) (p_value /. 4.);
  Common.row "          follower value pinned at %g even under a hostile host objective"
    r.Branch_bound.objective;
  Common.row
    "(paper's example is quadratic; the substitution to an LP follower is\n\
    \ recorded in DESIGN.md - the rewrite pipeline is identical)"
