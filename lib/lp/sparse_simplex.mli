(** Sparse revised simplex over the CSC store of a {!Standard_form.t}.

    Drop-in alternative to the dense {!Simplex} backend with the exact
    same semantics and lifecycle ([create], [solve_fresh], then
    [set_bounds] + [resolve] cycles) and the same {!Simplex.solution}
    result type, but pivots in time proportional to the column nonzeros
    via a factorized basis inverse ({!Basis}) instead of sweeping a dense
    tableau. Use through {!Backend} rather than directly. *)

type t

val create : Standard_form.t -> t

(** Change a structural variable's bounds in place; the basis and
    nonbasic statuses are kept coherent, basic values are recomputed
    lazily at the next solve. *)
val set_bounds : t -> int -> lb:float -> ub:float -> unit

val get_lb : t -> int -> float
val get_ub : t -> int -> float

(** Fresh two-phase primal solve, ignoring any previous basis. An
    expired [deadline] stops the solve with {!Simplex.Iteration_limit}
    (see the dense backend for the contract). *)
val solve_fresh :
  ?iter_limit:int ->
  ?deadline:Repro_resilience.Deadline.t ->
  t ->
  Simplex.solution

(** Warm-started solve: dual simplex from the current factorized basis
    when possible, falling back to {!solve_fresh}. *)
val resolve :
  ?iter_limit:int ->
  ?deadline:Repro_resilience.Deadline.t ->
  t ->
  Simplex.solution

(** Overwrite row [i]'s right-hand side in this state (the shared
    standard form is not modified); see {!Simplex.set_rhs}. *)
val set_rhs : t -> int -> float -> unit

val get_rhs : t -> int -> float

(** Re-solve after RHS-only edits: one ftran through the existing
    factorization when the old basis stays primal feasible, a
    dual-simplex run from that basis otherwise. Contract as in
    {!Simplex.resolve_rhs}. *)
val resolve_rhs :
  ?iter_limit:int ->
  ?deadline:Repro_resilience.Deadline.t ->
  t ->
  Simplex.solution

(** Batched multi-RHS re-solve: one residual pass plus one
    {!Basis.ftran_batch} over the whole block, peeling columns that
    lost primal feasibility into the scalar dual-simplex fallback (the
    block is rebuilt after each peel, since the fallback's pivots moved
    the basis). Bitwise identical to sequential {!resolve_rhs} calls;
    contract as in {!Simplex.resolve_rhs_batch}. *)
val resolve_rhs_batch :
  ?iter_limit:int ->
  ?deadline:Repro_resilience.Deadline.t ->
  t ->
  float array array ->
  Simplex.solution array

(** Total pivots performed over the lifetime of this state. *)
val total_iterations : t -> int

(** Number of constraint rows — the length of every RHS vector. *)
val num_rows : t -> int

(** Capture the current basis + statuses (see
    {!Simplex.basis_snapshot}). *)
val snapshot_basis : t -> Simplex.basis_snapshot

(** Install a snapshot and refactorize the basis inverse for it; false
    means the snapshot does not fit or its basis is singular, in which
    case the next solve starts from scratch. *)
val install_basis : t -> Simplex.basis_snapshot -> bool

(** Lifetime counters (iterations, refactorizations, current eta count,
    warm hits/misses). *)
val stats : t -> Simplex.stats
