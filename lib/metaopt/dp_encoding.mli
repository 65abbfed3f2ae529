(** Demand Pinning as a convex program inside the metaoptimization
    (paper §3.2, "Supporting DP").

    The heuristic's conditional "pin iff [d_k <= T_d]" is encoded with one
    host binary [z_k] per routable pair ([z_k = 0] — pinned) linked to the
    demand by big-M rows, and two big-M {e inner} rows per pair realizing
    the paper's or-constraints:

    {v sum_{p <> p-hat} f_k^p        <= M z_k
       d_k - f_k^{p-hat}             <= M z_k v}

    With [z_k = 0] these force all flow of pair k onto its shortest path
    and pin it to exactly [d_k] (combined with [f_k <= d_k]); with
    [z_k = 1] both rows are slack. The inner LP (given z) stays linear in
    [(f; d, z)], so {!Repro_follower.Kkt_rewrite.emit} applies.

    A tie tolerance [epsilon] excludes the open sliver [(T_d, T_d + eps)]
    from the unpinned branch so that [d_k = T_d] means pinned, matching
    the simulation semantics ("at or below the threshold", Fig 1). *)

type t = {
  indicators : (int * Model.var) list;  (** routable pair -> z binary *)
  flows : Flow_rows.t;
  value : Linexpr.t;  (** the heuristic's optimal total flow *)
  tracked : Repro_follower.Bigm.tracked list;
      (** audit handles for the pin rows' big-M gates *)
}

val encode :
  Model.t ->
  Pathset.t ->
  demand_vars:Model.var array ->
  threshold:float ->
  demand_ub:float ->
  ?epsilon:float ->
  ?big_m:float ->
  unit ->
  t
(** [demand_ub] must upper-bound every demand variable — it sizes the
    host linking rows. The {e pin} rows' big-M constants are derived per
    pair from presolve intervals ({!Repro_follower.Bigm.derive_ub}) and
    recorded in [tracked] for post-solve auditing; [big_m] overrides the
    derivation (regression tests use a deliberately small value to prove
    the audit catches it). [epsilon] defaults to [1e-6 * demand_ub]. *)
