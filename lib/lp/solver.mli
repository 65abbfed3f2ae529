(** Convenience facade over {!Simplex} and {!Branch_bound}.

    [solve_lp] solves the continuous relaxation of a model directly;
    [solve] dispatches to the LP path or branch-and-bound depending on
    whether the model has integer variables or SOS1 groups. *)

type lp_result = {
  status : Simplex.status;
  objective : float;  (** in the model's direction *)
  primal : float array;
  duals : float array;
  reduced_costs : float array;
  iterations : int;
  stats : Simplex.stats;  (** engine internals for this solve *)
}

(** Solve the continuous relaxation (integrality and SOS1 ignored).
    [backend] defaults to {!Backend.default}[ ()]. An expired [deadline]
    surfaces as status [Iteration_limit] with the bound-in-progress.

    [basis] warm-starts the solve from a previously captured snapshot
    (e.g. out of {!Repro_serve.Basis_store} — a dimension-compatible
    basis of the same model family): the snapshot is installed and the
    solve runs as a warm restart instead of from scratch. A snapshot
    that fails to install (dimension mismatch, singular refactorization)
    silently falls back to the cold path. *)
val solve_lp :
  ?iter_limit:int ->
  ?backend:Backend.kind ->
  ?basis:Simplex.basis_snapshot ->
  ?deadline:Repro_resilience.Deadline.t ->
  Model.t ->
  lp_result

(** [value result var] reads a variable out of an LP result. *)
val value : lp_result -> Model.var -> float

(** Solve the model with full integrality/SOS1 enforcement; pure LPs take
    the direct simplex path and are reported as a trivially-optimal
    branch-and-bound result.

    [presolve] (default false) runs {!Presolve.reduce} first and maps the
    primal solution back to the original variable space; the
    [primal_heuristic] callback then receives {e original-space} relaxation
    values. The reduction is recorded in the result's
    [lp_stats.presolve_rows]/[presolve_cols].

    [pool] supplies worker domains for the tree search when
    [options.jobs > 1]; see {!Branch_bound.solve}. *)
val solve :
  ?pool:Repro_engine.Pool.t ->
  ?options:Branch_bound.options ->
  ?presolve:bool ->
  ?primal_heuristic:(float array -> (float * float array option) option) ->
  ?on_incumbent:(float -> unit) ->
  Model.t ->
  Branch_bound.result

(** Like {!solve}, but budget-aware and with a structured outcome: the
    caller always learns whether the answer is proven ([Complete]), a
    sound incumbent/bound pair cut short by a budget or lost worker
    ([Feasible_bound]), a bound-only partial answer ([Degraded]), or a
    typed failure ([Failed] — solver exceptions are caught here, never
    re-raised). [deadline] overrides [options.deadline] when given; with
    neither, limits still map to outcomes via the legacy
    time/node/stall options. *)
val solve_bounded :
  ?pool:Repro_engine.Pool.t ->
  ?options:Branch_bound.options ->
  ?presolve:bool ->
  ?primal_heuristic:(float array -> (float * float array option) option) ->
  ?on_incumbent:(float -> unit) ->
  ?deadline:Repro_resilience.Deadline.t ->
  Model.t ->
  Branch_bound.result Repro_resilience.Outcome.t
