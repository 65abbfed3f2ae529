(** Pluggable LP engine selection.

    Two backends implement the same lifecycle over a {!Standard_form.t}:

    - [Dense] — the original dense-tableau two-phase simplex
      ({!Simplex}); kept as the reference oracle.
    - [Sparse] — the sparse revised simplex ({!Sparse_simplex}) with a
      factorized basis inverse; the default.

    Both return identical {!Simplex.solution} records (primal, duals,
    reduced costs), so callers pick purely on performance. The
    process-wide default is [Sparse], overridable with the
    [REPRO_LP_BACKEND] environment variable ([dense] or [sparse]) or
    {!set_default} (wired to the CLI's [--lp-backend] flag). *)

type kind = Dense | Sparse

val kind_to_string : kind -> string

(** Accepts ["dense"]/["tableau"] and ["sparse"]/["revised"],
    case-insensitively. *)
val kind_of_string : string -> kind option

(** Current process-wide default backend. *)
val default : unit -> kind

val set_default : kind -> unit

(** Common backend signature; [state] is the engine's mutable solver
    state. See {!Simplex} for the semantics of each operation. *)
module type S = sig
  type state

  val create : Standard_form.t -> state
  val set_bounds : state -> int -> lb:float -> ub:float -> unit
  val get_lb : state -> int -> float
  val get_ub : state -> int -> float
  val solve_fresh :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    Simplex.solution

  val resolve :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    Simplex.solution

  val set_rhs : state -> int -> float -> unit
  val get_rhs : state -> int -> float

  val resolve_rhs :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    Simplex.solution

  val resolve_rhs_batch :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    float array array ->
    Simplex.solution array

  val total_iterations : state -> int
  val snapshot_basis : state -> Simplex.basis_snapshot
  val install_basis : state -> Simplex.basis_snapshot -> bool
  val num_rows : state -> int
  val stats : state -> Simplex.stats
end

module Dense_backend : S with type state = Simplex.t
module Sparse_backend : S with type state = Sparse_simplex.t

(** A backend instance: an engine module packed with its state. *)
type t

(** [create ?kind sf] instantiates a backend on [sf]; [kind] defaults to
    {!default}[ ()]. *)
val create : ?kind:kind -> Standard_form.t -> t

val kind : t -> kind
val set_bounds : t -> int -> lb:float -> ub:float -> unit
val get_lb : t -> int -> float
val get_ub : t -> int -> float
val solve_fresh :
  ?iter_limit:int -> ?deadline:Repro_resilience.Deadline.t -> t -> Simplex.solution

val resolve :
  ?iter_limit:int -> ?deadline:Repro_resilience.Deadline.t -> t -> Simplex.solution

(** Per-state right-hand side edits for scenario sweeps; see
    {!Simplex.set_rhs}. The standard form stays shared read-only. *)
val set_rhs : t -> int -> float -> unit

val get_rhs : t -> int -> float

(** Factorized-basis fast path for RHS-only changes: ftran-only
    re-solve when the old basis stays primal feasible, dual simplex
    otherwise; see {!Simplex.resolve_rhs}. *)
val resolve_rhs :
  ?iter_limit:int -> ?deadline:Repro_resilience.Deadline.t -> t -> Simplex.solution

(** Batched multi-RHS fast path: each element of the array is a full
    replacement RHS (length [num_rows]); results come back in order and
    are bitwise identical to sequential {!resolve_rhs} calls. The
    sparse backend amortizes the eta-file traversal across the whole
    block; the dense backend loops the scalar path (differential
    oracle); see {!Simplex.resolve_rhs_batch}. *)
val resolve_rhs_batch :
  ?iter_limit:int ->
  ?deadline:Repro_resilience.Deadline.t ->
  t ->
  float array array ->
  Simplex.solution array

val total_iterations : t -> int

(** Capture / install a warm-start basis; see {!Simplex.snapshot_basis}
    and {!Simplex.install_basis}. A snapshot from one backend instance
    can be installed into any other instance built on the same standard
    form (including one living on a different domain). *)
val snapshot_basis : t -> Simplex.basis_snapshot

val install_basis : t -> Simplex.basis_snapshot -> bool

(** Number of constraint rows — the length of every RHS vector. *)
val num_rows : t -> int

val stats : t -> Simplex.stats
