(** The white-box adversary: the paper's main contribution, end to end.

    [find] builds the single-shot metaoptimization ({!Gap_problem}) for
    the heuristic described by an {!Evaluate.t} — the same object that
    serves as ground-truth oracle, so POP's random partitions are shared
    between the encoding and the verification — and searches it with
    branch-and-bound.

    Mirroring §3.3 ("gap search"), three search modes are offered:

    - [Direct]: one solve with the stall-based timeout — the Gurobi mode
      (stop when incremental progress over a window falls under 0.5%);
    - [Binary_sweep]: repeatedly ask for {e any} input whose gap meets a
      target and bisect the target with a fixed per-probe timeout — the
      Z3 mode for solvers that do not report incremental progress;
    - [Portfolio]: race both white-box modes against hill-climbing and
      simulated-annealing workers (distinct seeds) over one shared
      {!Repro_engine.Incumbent} store. Any worker's oracle-verified gap
      immediately becomes every other worker's pruning bound and resets
      their stall detectors; with [jobs] > 1 the strategies run on a
      domain pool, with [jobs] = 1 they run sequentially with early exit.

    Every node relaxation is turned into a candidate demand matrix and
    re-evaluated with the exact oracle; oracle gaps feed back into the
    search as trusted incumbents. The reported result is therefore always
    oracle-verified: [gap] is the true gap of [demands], never a claim of
    the relaxation. *)

type search =
  | Direct
  | Binary_sweep of { probes : int; probe_time : float }
  | Portfolio of portfolio_options

and portfolio_options = {
  blackbox_seeds : int list;
      (** one hill-climbing and one simulated-annealing worker per seed *)
  blackbox_time : float;  (** per-black-box-worker budget, seconds *)
  sweep_probes : int;
      (** bisection probes of the Binary_sweep strategy; 0 drops it from
          the portfolio *)
  target_gap : float option;
      (** stop the whole race as soon as the shared incumbent reaches
          this gap — the time-to-target mode used for benchmarking *)
}

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
          With [jobs] > 1, [Direct]/[Binary_sweep] fan probe scoring and
          the oracle's POP instances over a pool (results bit-identical to
          serial) {e and} run the branch-and-bound tree search itself on
          [jobs] workers (same outcome/objective within [bb.gap_tol];
          node order may differ — see {!Branch_bound}). [Portfolio] runs
          its strategies concurrently instead, each strategy's tree
          search staying serial. 1 is the fully serial path — no domains
          are spawned. *)
}

val default_portfolio : portfolio_options
(** Seeds [1; 2], 8 s per black-box worker, 2 sweep probes, no target. *)

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
      (** for [Portfolio]: summed across all strategies of the race *)
}

type result = {
  demands : Demand.t;  (** the adversarial input found *)
  gap : float;  (** oracle-verified absolute gap at [demands] *)
  normalized_gap : float;  (** gap / total capacity (Fig 3 metric) *)
  opt_value : float;
  heuristic_value : float;
  upper_bound : float option;
      (** proven bound on the achievable gap (primal–dual bound of the
          metaoptimization), when the search produced one *)
  outcome : Branch_bound.outcome;
  trace : (float * float) list;
      (** (seconds, best oracle gap so far) — the white-box Fig 3 series.
          For [Portfolio], the shared incumbent store's improvement
          trace. *)
  stats : stats;
}

val heuristic_of_spec : Evaluate.t -> Gap_problem.heuristic

(** [find ev ()] runs the configured search. [pool] supplies the worker
    domains (probe fan-out, portfolio strategies, parallel tree search);
    when omitted and [options.jobs] > 1 a private pool of [jobs] domains
    is created for the call. *)
val find :
  Evaluate.t -> ?options:options -> ?pool:Repro_engine.Pool.t -> unit -> result

(** [find_diverse ev ~count ~radius ()] — §5 "diverse kinds of bad
    inputs": run [find] up to [count] times, after each run excluding an
    L-infinity ball of the given [radius] around the input just found.
    Results come in discovery order; the list is shorter than [count] if
    a round finds no positive gap outside the excluded regions. Every two
    returned inputs differ by at least [radius] in some coordinate. *)
val find_diverse :
  Evaluate.t -> ?options:options -> count:int -> radius:float -> unit -> result list
