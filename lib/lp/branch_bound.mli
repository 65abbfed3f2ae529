(** Branch-and-bound for MILPs with SOS1 (complementarity) constraints.

    This plays the role of Gurobi in the paper: it solves models whose
    nonconvexity comes from integer variables and from SOS1 groups — the
    "special ordered sets" that the KKT rewrite uses to express
    complementary slackness (§3.1). Branching only ever tightens variable
    bounds, so every node is warm-started with the dual simplex.

    Each node is one LP: a {!Backend.resolve} from the basis already
    loaded (or, for a stolen node, from its parent's shipped basis),
    then a branch. A fractional integer variable splits into its floor
    and ceiling children, and the search dives into the nearer one. A
    violated SOS1 group splits into "the dominant member is zero" and
    "every other member is zero", and the search dives into the
    latter. SOS1 branching plus early incumbents is what the paper's
    MILP solves rely on (§3.3).

    The search mirrors the behaviours §3.3 exploits in commercial solvers:
    it reports incumbents as they are found (via [on_incumbent] and the
    incumbent trace), exposes the primal–dual gap, and stops early when
    incremental progress stalls below a configurable threshold within a
    time window — the paper's 0.5%-per-window timeout policy.

    The tree is searched by [jobs] workers over a shared-memory
    work-stealing node pool ({!Node_pool}). Each worker {e plunges}: it
    keeps one child of every node it expands in hand and heaps the
    sibling, so consecutive relaxations differ by one bound change and
    the dual simplex restarts in a few pivots. When a dive ends it takes
    the globally best open node, stealing from another worker's heap if
    that is where it lives. All workers share one incumbent, so a bound
    found by any of them prunes every subtree. At [jobs = 1] the single
    worker runs inline on the calling domain and the search is
    deterministic: the same model and options give the same result bit
    for bit. *)

type options = {
  time_limit : float;  (** wall-clock seconds; [infinity] disables *)
  node_limit : int;
      (** checked against a shared counter before each node is
          expanded. It is exact at [jobs = 1]; with [jobs > 1] the search
          can overshoot it by at most [jobs - 1] in-flight nodes *)
  gap_tol : float;  (** stop when relative MIP gap falls below this *)
  stall_time : float;
      (** stop when no relative improvement >= [stall_improvement] has been
          seen for this many seconds (and an incumbent exists) *)
  stall_improvement : float;
  int_tol : float;  (** integrality tolerance *)
  sos_tol : float;  (** SOS1 violation tolerance *)
  log_progress : bool;
  interrupt : unit -> bool;
      (** polled once per node; returning true stops the search with the
          current incumbent (how a caller stops a search from outside;
          a tracer may also use the poll as a per-node tick). With
          [jobs > 1] it is polled concurrently from every worker domain
          and must be thread-safe *)
  backend : Backend.kind option;
      (** LP engine for node relaxations; [None] (the default) resolves
          {!Backend.default} at solve time *)
  jobs : int;
      (** worker domains for the tree search, clamped to
          [1 .. ]{!Repro_engine.Jobs.max_jobs}. Defaults to
          {!Repro_engine.Jobs.default}[ ()] (the [REPRO_JOBS] environment
          variable, else 1). [1] runs one worker inline on the calling
          domain, with no domain pool and no basis snapshots (only a
          thief installs one); [> 1] runs the same loop on that many
          workers — same outcome and, within [gap_tol], same objective,
          but node ordering (and thus node counts) may differ *)
  deadline : Repro_resilience.Deadline.t option;
      (** unified wall/pivot/node budget shared by every worker and
          threaded into each node's simplex solve, so a stuck LP is cut
          off mid-pivot-loop rather than only between nodes. On expiry
          the search stops with [Feasible]/[No_incumbent] and a sound
          [best_bound] (budget-truncated subtrees stay folded into the
          open bound). [None] — the default — skips every check and
          keeps the search bit-identical to earlier builds. The caller
          can inspect {!Repro_resilience.Deadline.tripped} afterwards to
          learn which budget fired; {!Solver.solve_bounded} does exactly
          that *)
}

val default_options : options

type outcome =
  | Optimal  (** incumbent proven optimal within [gap_tol] *)
  | Feasible  (** stopped by a limit with an incumbent in hand *)
  | No_incumbent  (** stopped by a limit before finding any solution *)
  | Infeasible
  | Unbounded

(** Tree-search instrumentation for one solve. *)
type tree_stats = {
  workers : int;  (** workers that searched the tree *)
  steals : int;  (** nodes taken from another worker's heap *)
  idle_s : float;
      (** total seconds workers spent blocked waiting for work, summed
          over workers *)
  lost : int;
      (** workers that died mid-search (injected faults / supervision).
          Their in-flight subtrees are unproven: the result degrades to
          [Feasible]/[No_incumbent] with the lost bounds still counted
          in [best_bound] *)
}

(** The value for one worker or no tree: one worker, no steals, no idle
    time, none lost. A [jobs = 1] search whose worker survives reports
    exactly this; solves that never build a tree use it too. *)
val serial_tree_stats : tree_stats

type result = {
  outcome : outcome;
  objective : float;  (** incumbent objective, in model direction *)
  best_bound : float;  (** proven bound on the optimum, model direction *)
  mip_gap : float;  (** relative primal–dual gap; 0 when proven optimal *)
  primal : float array option;  (** incumbent assignment when available *)
  nodes : int;
  simplex_iterations : int;
  lp_stats : Simplex.stats;
      (** LP-engine internals over the whole search: pivots,
          refactorizations, eta count, warm-start hits/misses (summed
          across workers when [jobs > 1]) *)
  elapsed : float;
  incumbent_trace : (float * float) list;
      (** (seconds since start, incumbent objective) at each improvement,
          oldest first — the raw series behind Fig. 3 style plots *)
  tree : tree_stats;
}

(** [solve model] runs branch-and-bound.

    [pool] supplies the worker domains when [options.jobs > 1]; when
    omitted a private {!Repro_engine.Pool} of [jobs] domains is spun up
    for the solve and shut down afterwards. The pool's await is
    help-first, so a pool smaller than [jobs] still completes — surplus
    workers just find the tree already exhausted. At [jobs = 1] no pool
    is built and [pool] is ignored.

    [primal_heuristic] is called on each node's relaxation values and may
    return a trusted feasible objective value (model direction) with an
    optional full assignment — the mechanism the metaopt layer uses to turn
    relaxation demands into true-gap incumbents (§3.3 "solvers usually find
    a reasonable solution quickly"). Returned values are trusted: callers
    must only report objective values realized by some feasible point of
    the model. With [jobs > 1] it runs concurrently on worker domains and
    must be thread-safe.

    [on_incumbent] observes every incumbent improvement; with [jobs > 1]
    it is invoked under the search's incumbent lock (improvements are
    serialized and strictly monotone). *)
val solve :
  ?pool:Repro_engine.Pool.t ->
  ?options:options ->
  ?primal_heuristic:(float array -> (float * float array option) option) ->
  ?on_incumbent:(float -> unit) ->
  Model.t ->
  result

val pp_outcome : Format.formatter -> outcome -> unit
val pp_result : Format.formatter -> result -> unit

(** ["workers=%d steals=%d idle=%.2fs"]. *)
val pp_tree_stats : Format.formatter -> tree_stats -> unit
