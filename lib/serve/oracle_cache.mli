(** Glue between the solve cache and the metaopt oracle.

    [attach ~cache ~paths ev] returns the same oracle with an
    {!Repro_metaopt.Evaluate.cache_hook} that keys every oracle value by
    its canonical {!Fingerprint} into the given shared cache. Heuristic
    values are keyed by (topology, paths, heuristic spec, demand
    matrix); OPT values — which do not depend on the heuristic — are
    keyed by (topology, paths, demand matrix) only, so one OPT solve is
    shared across every heuristic configuration probing the same
    topology (e.g. a DP threshold sweep). Because the key is
    content-addressed, the hits compose across every consumer of the
    oracle: repeated probes of a black-box walk, parallel tree-search workers
    evaluating the same candidate on different domains, and independent
    daemon queries against the same instance all pay for one solve.

    The cached value is small (one float option), so [cost_bytes] is a
    constant; the win is CPU, not memory. *)

val attach :
  cache:float option Solve_cache.t ->
  paths:int ->
  Repro_metaopt.Evaluate.t ->
  Repro_metaopt.Evaluate.t

val detach : Repro_metaopt.Evaluate.t -> Repro_metaopt.Evaluate.t
(** Drop any attached hook. *)
