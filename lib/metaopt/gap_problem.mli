(** Assembly of the single-shot metaoptimization (paper eq. 1):

    {v maximize   OPT(d) - Heuristic(d)
       over       d in ConstrainedSet v}

    Key structural simplification (shared with the authors' later MetaOpt
    system): OPT appears with a plus sign, so its inner maximization
    merges with the outer maximization — OPT is embedded as a plain
    FeasibleFlow block whose total flow is maximized jointly with the
    demand choice. Only the heuristic, which the adversary wants {e low},
    needs the KKT rewrite to pin it to its true optimum.

    The result is one MILP whose only integer content is (a) the
    complementarity SOS1 pairs from KKT and (b) the heuristic's own
    conditional binaries (DP thresholds, sorting-network selectors). *)

type heuristic =
  | Dp of { threshold : float }
  | Pop of {
      parts : int;
      partitions : Pop.partition list;
      reduce : [ `Average | `Kth_smallest of int ];
    }

type t = {
  model : Model.t;
  demand_vars : Model.var array;  (** one per pair of the demand space *)
  opt_vars : Mcf.flow_vars;  (** the OPT block's flow variables *)
  opt_value : Linexpr.t;
  heuristic_value : Linexpr.t;
  demand_ub : float;
  tracked : Repro_follower.Bigm.tracked list;
      (** audit handles for every big-M gate of the heuristic encoding *)
}

val build :
  Pathset.t ->
  heuristic:heuristic ->
  ?constraints:Input_constraints.t ->
  ?demand_ub:float ->
  ?quantize:float ->
  unit ->
  t
(** [demand_ub] bounds every demand variable (default: the topology's
    maximum edge capacity — one pair can at most saturate its bottleneck
    link, and larger demands only shift where clipping happens).

    [quantize step] restricts demands to the grid [{0, step, 2 step, ...}]
    (§5 "Scaling to larger problem sizes": worst gaps happen at extremum
    points, so a coarse grid trades little quality for a smaller search
    space). *)

val demands_of_primal : t -> float array -> Demand.t
(** Extract the demand matrix from a (partial or full) primal assignment
    of the model, clamped into the demand bounds. *)

(** Sizes for Fig 6: (variables, linear constraints, SOS1 groups). *)
val size : t -> int * int * int

val audit : ?tol:float -> t -> float array -> Repro_follower.Bigm.tracked list
(** Check a primal point against every tracked big-M gate
    ({!Repro_follower.Bigm.audit}); a non-empty result means some big-M
    constant was too small and may have cut the true optimum. *)

val naive_metaopt : Pathset.t -> heuristic:heuristic -> Model.t
(** The naive ablation of Fig 6: the same gap problem with OPT also
    KKT-rewritten instead of merged with the outer maximization. *)

val baseline_sizes :
  Pathset.t -> heuristic:heuristic -> (string * (int * int * int)) list
(** Sizes of the plain (non-metaopt) formulations for the same instance —
    the "OPT" and "Heuristic" bars of Fig 6 — plus the sizes of
    {!naive_metaopt}. *)
