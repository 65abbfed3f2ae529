(** The white-box adversary: the paper's main contribution, end to end.

    [find] builds the single-shot metaoptimization ({!Gap_problem}) for
    the heuristic described by an {!Evaluate.t} — the same object that
    serves as ground-truth oracle, so POP's random partitions are shared
    between the encoding and the verification — and searches it with
    branch-and-bound.

    §3.3 offers two gap-search modes. This module implements the Gurobi
    one: a structure-aware probing pass ({!Probes}), then one
    branch-and-bound tree with the stall-based timeout (stop when
    incremental progress over a window falls under the threshold). The
    tree's [best_bound] is the only bound reported. The Z3 mode, which
    bisects a gap target with timed feasibility probes, exists for
    solvers that report no incremental progress; this tree does, so it
    is not offered.

    Every node relaxation is turned into a candidate demand matrix and
    re-evaluated with the exact oracle; oracle gaps feed back into the
    search as trusted incumbents. The reported result is therefore always
    oracle-verified: [gap] is the true gap of [demands], never a claim of
    the relaxation. *)

(** The search strategy. A single constructor, kept as a type (and as
    the [search] field of {!options}) so that callers that spell out
    [search = Direct] — the end-to-end benchmark among them — keep
    building. *)
type search =
  | Direct
      (** probe, then one branch-and-bound tree (the §3.3 Gurobi mode) *)

type options = {
  bb : Branch_bound.options;
  search : search;
  constraints : Input_constraints.t;
  demand_ub : float option;  (** [None] — max link capacity *)
  probe_budget : int;
      (** oracle calls granted to the structure-aware probing pass
          ({!Probes}) that substitutes for a commercial solver's built-in
          primal heuristics; 0 disables probing *)
  run_milp : bool;
      (** when false, skip the branch-and-bound phase and report the best
          probed input only (no upper bound). Useful when the KKT model is
          too large for the MILP substrate to make progress within budget
          — e.g. POP with many partition instances. *)
  quantize : float option;
      (** restrict demands to this grid step (§5 "Scaling"): the MILP gets
          integer grid variables and every probe is snapped to the grid,
          so reported gaps are achievable within the quantized space. *)
  jobs : int;
      (** worker domains (clamped to [1, Repro_engine.Jobs.max_jobs]).
          With [jobs] > 1, probe scoring and the oracle's POP instances
          fan out over a pool (results bit-identical to serial) {e and}
          the branch-and-bound tree search itself runs on [jobs] workers
          (same outcome/objective within [bb.gap_tol]; node order may
          differ — see {!Branch_bound}). 1 is the fully serial path — no
          domains are spawned. *)
}

val default_options : options

type stats = {
  nodes : int;
  simplex_iterations : int;
  lp_stats : Simplex.stats;
      (** LP-engine internals summed over the search's B\&B runs:
          iterations, refactorizations, eta count, warm-start hits, and
          presolve row/column reductions *)
  tree : Branch_bound.tree_stats;
      (** tree-search counters of the main B\&B run (workers, steals,
          idle time); {!Branch_bound.serial_tree_stats} when the MILP
          phase ran with one worker or was skipped *)
  elapsed : float;
  model_vars : int;
  model_constrs : int;
  model_sos1 : int;
  oracle_calls : int;
      (** oracle queries of the search: probe candidates, probe
          refinement and the tree's primal heuristic (cache hits
          excluded) *)
}

type result = {
  demands : Demand.t;  (** the adversarial input found *)
  gap : float;  (** oracle-verified absolute gap at [demands] *)
  normalized_gap : float;  (** gap / total capacity (Fig 3 metric) *)
  opt_value : float;
  heuristic_value : float;
  upper_bound : float option;
      (** proven bound on the achievable gap: the branch-and-bound
          tree's [best_bound]; [None] when [run_milp] is false or the
          model was infeasible or unbounded *)
  outcome : Branch_bound.outcome;
  trace : (float * float) list;
      (** (seconds, best oracle gap so far) — the white-box Fig 3 series *)
  stats : stats;
}

val heuristic_of_spec : Evaluate.t -> Gap_problem.heuristic

(** [find ev ()] runs the search. [pool] supplies the worker domains
    (probe fan-out, parallel tree search);
    when omitted and [options.jobs] > 1 a private pool of [jobs] domains
    is created for the call. *)
val find :
  Evaluate.t -> ?options:options -> ?pool:Repro_engine.Pool.t -> unit -> result
