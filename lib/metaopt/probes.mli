(** Structure-aware primal probes for the white-box search.

    Commercial MILP solvers ship strong built-in primal heuristics
    (feasibility pump, RINS, rounding); the paper's Gurobi backend relies
    on them to "find a reasonable solution quickly" (§3.3). This module is
    our substitute: it generates candidate demand matrices from white-box
    structure and lets the exact oracle score them. Every accepted
    candidate corresponds to a genuinely feasible point of the metaopt
    MILP, so the values are valid incumbents.

    The candidate families mirror the qualitative drivers of each
    heuristic's optimality gap (§4):

    - DP is hurt by pairs with {e long} shortest paths pinned at the
      threshold while short-path pairs carry large demands ("pinning
      demands on longer paths uses up capacity on more edges");
    - POP is hurt by demand concentrated on pairs that land in the same
      partition, stranding the capacity shares of the other partitions.

    [refine] then hill-climbs coordinate-wise over the discrete value set
    [{0, threshold-ish, ub}] — the extremum points where worst gaps live
    (§5 "worst gaps happen only at extremum points"). *)

val dp_candidates :
  Pathset.t -> threshold:float -> demand_ub:float -> Demand.t list
(** Hop-sweep family: for each cut-off [h], pairs whose shortest path has
    at least [h] hops are set to the threshold (pinned), the rest to the
    demand bound; plus the all-at-bound and all-at-threshold corners. *)

val pop_candidates :
  Pathset.t ->
  partitions:Pop.partition list ->
  parts:int ->
  demand_ub:float ->
  Demand.t list
(** Concentration family: for each (instance, part), demand only on that
    part's pairs (at the bound); plus cross-instance co-location greedy
    sets and the all-at-bound corner. *)

val refine :
  Evaluate.t ->
  constraints:Input_constraints.t ->
  budget:int ->
  levels:float list ->
  Demand.t ->
  (Demand.t * float) option * int
(** Greedy coordinate descent: repeatedly try moving one pair's demand to
    each level, keeping oracle improvements, until [budget] oracle calls
    are exhausted or a full pass yields nothing. Returns the best
    (demands, gap) seen, [None] if nothing feasible was found, and the
    oracle calls made: the budgeted moves plus the one that scores the
    start. *)

val score :
  Evaluate.t ->
  constraints:Input_constraints.t ->
  Demand.t ->
  (Demand.t * float) option
(** Project one candidate into the constraints and score it with the
    oracle; [None] if it is rejected by the constraints or infeasible.
    The unit of work {!best_candidate} fans out over the pool. *)

val best_candidate :
  ?pool:Repro_engine.Pool.t ->
  Evaluate.t ->
  constraints:Input_constraints.t ->
  Demand.t list ->
  (Demand.t * float) option
(** Score candidates with the oracle (after projecting into the
    constraints) and keep the best feasible one. With a pool the scoring
    fans out over the workers; the reduction stays in candidate order so
    the winner is the same as the serial run. *)
