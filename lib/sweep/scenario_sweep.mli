(** Batched scenario-sweep engine.

    Evaluates every scenario of a {!Plan} — OPT and the DP heuristic —
    against one topology in a single run, instead of thousands of
    independent [find-gap] invocations each rebuilding the symbolic
    model and refactorizing the LP basis from scratch:

    - the LP skeleton is built once ({!Shared_lp}) and specialized per
      scenario by RHS/bound edits only; OPT re-solves ride the
      factorized-basis RHS fast path ({!Repro_lp.Backend.resolve_rhs});
    - scenarios run in fixed-size contiguous chunks
      ({!Repro_engine.Chunks}) fanned out over a domain pool; chunk
      boundaries depend only on the plan and chunk size, and every
      chunk solves its scenarios in index order from its own fresh
      state, so results are independent of the worker count;
    - each completed scenario streams into the serve solve cache (when
      one is attached; keys are the canonical serve fingerprints, so
      sweeps and daemon queries share entries) and into an incremental
      JSONL file flushed per chunk;
    - a {!Repro_resilience.Deadline} is honored per chunk and per
      scenario: when the budget trips the sweep returns (and has
      already flushed) the scenarios it finished, with a [`Partial]
      outcome instead of dying. A chunk killed by a fault
      ([sweep_chunk] injection point, worker loss) degrades the sweep
      the same way.

    With a shared cache attached, concurrent chunks may race to insert
    the same OPT entry (one demand is probed under many thresholds);
    the raced values agree to LP tolerance but not necessarily bitwise,
    so run cacheless when bit-identical jobs=1 / jobs=N output matters
    — that guarantee is only about the solver pipeline. *)

type mode =
  | Shared_basis  (** shared skeleton + factorized-basis re-solves *)
  | Rebuild
      (** per-scenario model rebuild through
          {!Repro_metaopt.Evaluate} — the pre-sweep baseline, kept for
          benchmarking and differential testing *)

type options = {
  jobs : int;  (** worker domains; [<= 1] runs inline *)
  chunk : int;  (** scenarios per chunk (fixed, jobs-independent) *)
  backend : Backend.kind option;  (** [None] = process default *)
  mode : mode;
  deadline : Repro_resilience.Deadline.t option;
  cache : float option Repro_serve.Solve_cache.t option;
  jsonl : string option;  (** stream results to this path (truncated) *)
  batch_rhs : bool;
      (** [Shared_basis] only: answer each chunk's OPT solves with one
          batched multi-RHS kernel call
          ({!Repro_lp.Backend.resolve_rhs_batch}) instead of a scalar
          ftran per scenario. Cacheless output is bitwise identical to
          the scalar path; deadline checks coarsen from per-scenario to
          per-phase. *)
  basis_store : Repro_serve.Basis_store.t option;
      (** cross-sweep snapshot store: looked up once before the chunks
          run (every chunk state warm-starts from the same snapshots,
          keeping jobs=1 ≡ jobs=N) and written back once at the end
          from the final chunk's state *)
}

val default_options : options
(** jobs 1, chunk 32, default backend, [Shared_basis], no deadline, no
    cache, no JSONL, scalar RHS path, no basis store. *)

type scenario_result = {
  scenario : Plan.scenario;
  fingerprint : Repro_serve.Fingerprint.t;
      (** canonical instance fingerprint (graph, paths, DP spec,
          demand) — the serve cache key of the heuristic value *)
  opt : float;
  heur : float option;  (** [None] = DP pinning infeasible *)
  cached_opt : bool;
  cached_heur : bool;
}

val gap : scenario_result -> float option
(** [opt - heur]; [None] on heuristic infeasibility. *)

type result = {
  results : scenario_result option array;
      (** indexed by scenario; [None] = skipped (deadline, fault or
          solver failure) *)
  completed : int;
  from_cache : int;
      (** of [completed], how many were answered entirely from the
          attached solve cache (both OPT and heuristic values) — kept
          separate so throughput numbers distinguish real solves from
          cache hits *)
  skipped : int;
  chunks : int;
  lp_stats : Simplex.stats;
      (** aggregated over all chunk states ([Shared_basis] mode only);
          [rhs_ftran] / [rhs_dual] show the fast-path split,
          [rhs_batch] / [rhs_batch_cols] / [rhs_peeled] the batched
          kernel's *)
  basis_warm_hits : int;
      (** successful warm-start installs from the basis store, summed
          over chunk states (up to 2 per chunk: OPT + heuristic) *)
  wall_s : float;
  outcome : [ `Complete | `Partial of Repro_resilience.Outcome.reason ];
}

val run : ?options:options -> paths:int -> Pathset.t -> Plan.t -> result
(** [paths] is the path budget [k] the pathset was computed with (it is
    part of the canonical fingerprint). *)

val json_of_result : scenario_result -> Repro_serve.Json.t
(** The JSONL record: [{"i", "fp", "threshold", "scale", "seed", "opt",
    "heur", "gap", "cached"}]. *)

val verbose_stats_line : Simplex.stats -> string
(** One [key=value] line naming every solver-internals counter the
    sweep's fast path depends on — [rhs_ftran]/[rhs_dual] (the
    factorized-basis re-solve split),
    [rhs_batch]/[rhs_batch_cols]/[rhs_peeled] (the batched kernel's
    passes, zero-pivot columns, and dual-fallback peels),
    [refactorizations], [etas],
    [warm_hits]/[warm_misses] and the [presolve_rows]/[presolve_cols]
    reductions — for [sweep --verbose] and log scraping. *)
