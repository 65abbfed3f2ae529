(** Declarative IR for follower (inner) convex programs.

    A follower model is the LP the heuristic itself solves once the
    adversary has fixed the input: maximize a linear objective over
    non-negative columns subject to linear [<=] / [=] rows whose
    right-hand sides may reference {e outer} (host MILP) variables.
    {!Kkt_rewrite} turns a value of this type into the KKT/complementarity
    MILP block of paper §3.1 without any hand derivation. *)

type sense = Le | Eq

type row = {
  row_name : string;
  inner_terms : (int * float) list;  (** (column, coefficient) *)
  outer_terms : (Model.var * float) list;
      (** host-variable terms, moved to the RHS by the rewriter *)
  sense : sense;
  rhs : float;
}

type t

val create : name:string -> unit -> t
val name : t -> string

(** [add_cols t n] appends [n] columns and returns the index of the first.
    Columns are non-negative; [ub] (default [infinity]) adds an upper
    bound, which the rewriter turns into an extra bound-dual /
    complementarity pair. *)
val add_cols : ?ub:float -> t -> int -> int

val num_cols : t -> int
val col_ub : t -> int -> float

(** Objective coefficients, maximized. Duplicate columns are summed. *)
val set_objective : t -> (int * float) list -> unit

val objective : t -> (int * float) list

(** [add_row t row] appends a row.
    @raise Invalid_argument on out-of-range column indices. *)
val add_row : t -> row -> unit

val add_rows : t -> row list -> unit
val num_rows : t -> int
val rows : t -> row array
val num_le_rows : t -> int

(** Follower objective value of a column assignment. *)
val value : t -> float array -> float

(** Solve the follower directly as a standalone LP with the outer
    variables fixed to [outer_values] — the differential oracle used to
    validate {!Kkt_rewrite} output. *)
val solve_directly : t -> outer_values:(Model.var -> float) -> Solver.lp_result
