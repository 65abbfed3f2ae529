(** Presolve: standard model reductions applied before the simplex /
    branch-and-bound, as every production solver does.

    Implemented rules, iterated to a fixed point:

    - {b singleton rows} become variable bounds and are dropped;
    - {b fixed variables} ([lb = ub]) are substituted into rows and the
      objective and removed from the model;
    - {b empty rows} are dropped (or prove infeasibility);
    - {b forcing/redundant rows}: interval arithmetic over variable
      bounds drops rows that can never bind and detects rows that can
      never hold;
    - {b SOS1 propagation}: members fixed to zero leave their group; a
      member fixed nonzero zeroes the rest; singleton groups vanish.

    The reduction returns a fresh model plus enough bookkeeping to map a
    reduced solution back to the original variable space. *)

type outcome =
  | Reduced of t
  | Infeasible_model  (** presolve proved the model infeasible *)

and t = {
  model : Model.t;  (** the reduced model *)
  var_map : int array;  (** original var -> reduced var, or -1 if removed *)
  fixed_values : float array;  (** value for every removed original var *)
  rows_dropped : int;
  vars_fixed : int;
  bounds_tightened : int;
}

val reduce : Model.t -> outcome

val restore : t -> float array -> float array
(** [restore red reduced_primal] rebuilds a primal assignment over the
    original model's variables. *)

val var_intervals : Model.t -> (float * float) array option
(** Fixed-point interval propagation only: {!reduce}, then row-implied
    bound tightening on the reduced model (at most four rounds; integer
    variables round inward). The result is the tightened [(lb, ub)] of
    every variable, indexed in the {e original} model's variable space.
    Every feasible point of the model lies inside these boxes, so they
    are valid activity bounds for big-M derivation (the follower layer's
    {!module:Repro_follower} [Bigm] consumes them). [None] when the
    propagation proves the model infeasible. *)
