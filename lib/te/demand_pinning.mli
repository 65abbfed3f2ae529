(** Demand Pinning (paper eq. 4/5) — the production heuristic of
    BLASTSHIELD [21].

    Phase 1 pins every demand at or below the threshold [T_d] onto its
    shortest path in full. Phase 2 jointly routes the remaining demands
    over their path sets with the residual capacities.

    Pinning can be infeasible (paper §5): several small demands sharing a
    link on their shortest paths can overload it. The simulation reports
    this explicitly rather than silently clipping. *)

type result =
  | Feasible of {
      total : float;  (** pinned + residual flow *)
      pinned_flow : float;
      allocation : Allocation.t;
      pinned : bool array;  (** per pair: did phase 1 pin it? *)
    }
  | Infeasible_pinning of {
      edge : Graph.edge;
      load : float;
      capacity : float;
    }

val pins : threshold:float -> float -> bool
(** The pinning predicate: [0 < d <= threshold] ("at or below", Fig 1). *)

val solve :
  ?capacities:float array -> Pathset.t -> threshold:float -> Demand.t -> result
(** [capacities] overrides the graph's per-edge capacities. *)

val total_or_zero : result -> float
(** Heuristic value; 0 for infeasible pinnings (so searches avoid the
    infeasible region rather than rewarding it — see evaluate oracle). *)

val default_threshold_fraction : float
(** The paper's default: 5% of link capacity (§4 "Methodology"). *)
