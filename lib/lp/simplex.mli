(** Bounded-variable primal/dual simplex over a {!Standard_form.t}.

    This is the LP engine underneath {!Solver} and {!Branch_bound} — the
    stand-in for the commercial solver (Gurobi) the paper uses. It is a
    dense-tableau two-phase primal simplex with general variable bounds,
    Dantzig pricing with a Bland anti-cycling fallback, and a dual simplex
    for warm restarts after bound changes (the branch-and-bound workhorse:
    branching only ever changes variable bounds, which preserves dual
    feasibility of the incumbent basis).

    A [t] value is a mutable solver state. The intended lifecycle is:
    [create] once per standard form, [solve] for the root relaxation, then
    any number of [set_bounds] + [resolve] cycles as the search tree is
    explored. [resolve] falls back to a from-scratch primal solve whenever
    the warm start is not viable, so it is always safe to call. *)

type t

type status = Optimal | Infeasible | Unbounded | Iteration_limit

val pp_status : Format.formatter -> status -> unit

(** Cumulative solver-internals counters, shared by every backend.
    For the dense tableau [refactorizations] counts full Gauss-Jordan
    tableau rebuilds (triggered by the drift detector or a basis
    install) and [etas = 0]; warm-start counters track {!resolve}
    outcomes — a hit is a successful dual-simplex warm restart, a miss
    is a fallback to {!solve_fresh}. [rhs_ftran]/[rhs_dual] count
    {!resolve_rhs} outcomes: re-solves finished by the single ftran
    (the old basis stayed optimal) vs ones that needed dual-simplex
    pivots. [rhs_batch] counts {!resolve_rhs_batch} kernel passes,
    [rhs_batch_cols] the batch columns answered by the shared batched
    ftran with zero pivots, and [rhs_peeled] the columns peeled out of
    the batch into the per-column dual-simplex fallback (or a full
    re-solve). [presolve_rows]/[presolve_cols] are filled in by
    {!Solver.solve} when presolve ran: rows dropped and variables fixed
    before the model reached the engine. *)
type stats = {
  iterations : int;
  refactorizations : int;
  etas : int;
  warm_hits : int;
  warm_misses : int;
  rhs_ftran : int;
  rhs_dual : int;
  rhs_batch : int;
  rhs_batch_cols : int;
  rhs_peeled : int;
  presolve_rows : int;
  presolve_cols : int;
}

val empty_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit

(** A basis usable to warm-start any backend built on the same standard
    form: the basic column of each row plus every column's status,
    encoded as plain int arrays (0 basic, 1 at-lower, 2 at-upper,
    3 free) so a snapshot can be shipped by value across domains —
    the mechanism parallel branch-and-bound uses to hand a stolen node
    its parent's basis. *)
type basis_snapshot = { snap_basis : int array; snap_stat : int array }

type solution = {
  status : status;
  objective : float;
      (** in the original model's direction (max stays max) *)
  primal : float array;  (** structural variable values, length [n] *)
  duals : float array;
      (** one per row, in model direction; satisfies
          [c - duals * A = reduced_costs] for the minimization form *)
  reduced_costs : float array;  (** structural reduced costs *)
  iterations : int;  (** simplex pivots performed by this call *)
}

val create : Standard_form.t -> t

(** Change a structural variable's bounds in place. The current basis is
    kept; basic values are patched so the tableau invariant holds. *)
val set_bounds : t -> int -> lb:float -> ub:float -> unit

val get_lb : t -> int -> float
val get_ub : t -> int -> float

(** Fresh two-phase primal solve, ignoring any previous basis. When a
    [deadline] is given, every pivot charges its budget and an expired
    deadline stops the solve with status {!Iteration_limit} — the
    result is then a valid bound-in-progress, not an optimum. *)
val solve_fresh :
  ?iter_limit:int -> ?deadline:Repro_resilience.Deadline.t -> t -> solution

(** Warm-started solve: dual simplex from the current basis when possible,
    falling back to {!solve_fresh}. Equivalent to {!solve_fresh} if the
    state was never solved. [deadline] as in {!solve_fresh}. *)
val resolve :
  ?iter_limit:int -> ?deadline:Repro_resilience.Deadline.t -> t -> solution

(** Overwrite row [i]'s right-hand side in this state (the shared
    standard form is not modified). Takes effect at the next solve;
    pair with {!resolve_rhs} for the factorized-basis fast path. *)
val set_rhs : t -> int -> float -> unit

val get_rhs : t -> int -> float

(** Re-solve after RHS-only edits ({!set_rhs}). Changing [b] leaves
    reduced costs untouched, so the last optimal basis stays dual
    feasible: the new basic values are one ftran away, and when they
    remain within bounds the re-solve costs zero pivots (counted in
    [stats.rhs_ftran]); otherwise a dual-simplex run restores primal
    feasibility from the same basis ([stats.rhs_dual]). Falls back to
    {!resolve} when the state has no phase-2 optimal basis (never
    solved, bounds changed since, or last solve was not optimal), so it
    is always safe to call. *)
val resolve_rhs :
  ?iter_limit:int -> ?deadline:Repro_resilience.Deadline.t -> t -> solution

(** [resolve_rhs_batch t rhs] re-solves the state once per RHS vector in
    [rhs] (each of length [num_rows t], replacing the whole [b]) and
    returns the solutions in order. Semantically — and bitwise —
    identical to installing each vector with {!set_rhs} and calling
    {!resolve_rhs} sequentially; the dense backend does exactly that,
    serving as the differential oracle for the sparse backend's batched
    eta-file kernel. Counted in [stats.rhs_batch]/[rhs_batch_cols]/
    [rhs_peeled]. *)
val resolve_rhs_batch :
  ?iter_limit:int ->
  ?deadline:Repro_resilience.Deadline.t ->
  t ->
  float array array ->
  solution array

(** Total pivots performed over the lifetime of this state. *)
val total_iterations : t -> int

(** Number of constraint rows — the length of every RHS vector. *)
val num_rows : t -> int

(** Capture the current basis + statuses for later {!install_basis} on
    this or another state over the same standard form. *)
val snapshot_basis : t -> basis_snapshot

(** Install a snapshot taken by {!snapshot_basis} and refactorize the
    tableau for it. Returns false (and forces the next solve to start
    from scratch) if the snapshot does not fit this state or its basis
    is singular. *)
val install_basis : t -> basis_snapshot -> bool

(** Lifetime counters for this state. *)
val stats : t -> stats
