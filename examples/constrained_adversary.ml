(* Constrained adversary: worst cases under realistic input restrictions
   (paper §3.3 "Realistic constraints on inputs").

     dune exec examples/constrained_adversary.exe

   An unconstrained worst case may be an implausible demand matrix. Here
   we anchor the search to a "historically observed" matrix (a gravity
   model stand-in) and ask: within +-20% of history, how bad can Demand
   Pinning get? We then tighten to +-5% and add an intra-input constraint
   (no demand above 3x the average) to show the gap shrinking as the
   input space gets more realistic - exactly the workflow the paper
   suggests for deciding when a heuristic is safe to use. *)

let () =
  let g = Topologies.abilene () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let space = Pathset.space pathset in
  let threshold = 0.05 *. Graph.max_capacity g in
  let ev = Evaluate.make_dp pathset ~threshold in
  (* the "historical" matrix: a gravity model scaled to half capacity *)
  let history =
    Demand.gravity space ~rng:(Rng.create 12) ~total:(0.5 *. Graph.total_capacity g)
  in
  let search ?(extra = Input_constraints.none) label constraints =
    let constraints = Input_constraints.combine constraints extra in
    let options =
      {
        Adversary.default_options with
        constraints;
        run_milp = false;
        probe_budget = 1500;
      }
    in
    let r = Adversary.find ev ~options () in
    assert (Input_constraints.satisfied constraints r.Adversary.demands);
    Fmt.pr "%-44s gap %8.1f  (gap/capacity %.3f)@." label r.Adversary.gap
      r.Adversary.normalized_gap;
    r
  in
  Fmt.pr "worst-case DP gap on Abilene under increasingly realistic inputs:@.@.";
  let unconstrained = search "unconstrained" Input_constraints.none in
  let loose =
    search "within +-20% of history (relative goalpost)"
      (Input_constraints.goalpost ~reference:history ~distance:0.2
         ~relative:true ())
  in
  let tight =
    search "within +-5% of history"
      (Input_constraints.goalpost ~reference:history ~distance:0.05
         ~relative:true ())
  in
  let realistic =
    search "+-20% of history AND <= 3x average demand"
      (Input_constraints.goalpost ~reference:history ~distance:0.2
         ~relative:true ())
      ~extra:
        (Input_constraints.within_factor_of_average
           ~num_pairs:(Demand.size space) ~factor:3.)
  in
  Fmt.pr "@.the gap shrinks as constraints tighten: %.3f -> %.3f -> %.3f -> %.3f@."
    unconstrained.Adversary.normalized_gap loose.Adversary.normalized_gap
    realistic.Adversary.normalized_gap tight.Adversary.normalized_gap;
  Fmt.pr
    "these are probe-only searches (no MILP), so each gap is a witnessed@.\
     lower bound on the worst case, not a certificate: rerun with@.\
     run_milp = true for a proven bound before calling the heuristic safe@.\
     for inputs near history.@."
