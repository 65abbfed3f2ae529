(** Automatic KKT/complementarity rewrite of an {!Ir} follower model into
    the host MILP (paper §3.1).

    For the follower [max c.x  s.t.  Ax <= b - B.outer, Ex = f - F.outer,
    0 <= x <= u] the rewriter emits into the host model:

    - primal columns [x] (with their IR upper bounds);
    - dual columns: [lam >= 0] per [<=] row, free [nu] per [=] row,
      [mu >= 0] per lower bound, [eta >= 0] per finite upper bound;
    - primal feasibility rows (with explicit slack columns [s] on [<=]
      rows) and upper-bound rows [x + r = u];
    - stationarity rows [c_j - sum_i dual_i a_ij + mu_j - eta_j = 0];
    - complementary slackness [lam.s = 0], [mu.x = 0], [eta.r = 0] —
      either as SOS1 pairs ({!Sos1}, the default, what Gurobi's SOS1
      constraints express) or as big-M disjunctions on a fresh binary
      ({!Big_m}), with each M derived from presolve intervals via
      {!Bigm.derive_ub} and falling back to the given constant only for
      dual columns (whose magnitude no primal interval bounds).

    With no finite column upper bounds and [Sos1] complementarity the
    emitted rows, columns, SOS1 groups and names are {e identical} to the
    hand derivation of §3.1 that the test suite keeps as a reference
    emitter ([test/kkt_reference.ml]) — which is exactly what the
    differential tests check. *)

type comp =
  | Sos1
  | Big_m of { fallback : float }
      (** disjunctive encoding; [fallback] bounds dual columns *)

type emitted = {
  x : Model.var array;
  row_duals : Model.var array;
  row_slacks : Model.var option array;  (** [None] on [=] rows *)
  bound_duals : Model.var array;  (** [mu], one per column *)
  ub_duals : Model.var option array;  (** [eta], finite-ub columns only *)
  value : Linexpr.t;  (** follower objective at the emitted optimum *)
  num_complementarity : int;
  num_binaries : int;  (** [Big_m] indicator binaries added *)
  bigm_derived : int;  (** big-M constants derived from intervals *)
  bigm_fallbacks : int;  (** big-M constants from the fallback *)
  tracked : Bigm.tracked list;
      (** audit handles for every big-M gate emitted (empty for Sos1) *)
}

val emit : ?comp:comp -> Model.t -> Ir.t -> emitted
