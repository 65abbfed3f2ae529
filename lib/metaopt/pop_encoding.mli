(** POP as a convex follower inside the metaoptimization (paper §3.2,
    "Supporting POP").

    POP's output on a fixed partition is itself an LP (a block-diagonal
    union of per-partition OptMaxFlow problems with scaled capacities), so
    each random instantiation gets one KKT-rewritten follower. Because
    POP(I) is a random variable, the adversary optimizes a deterministic
    descriptor over [R] fixed instantiations (§3.2):

    - [`Average] — empirical expectation: the mean of the instance totals
      (the paper finds 5 instances suffice, Fig 5a);
    - [`Kth_smallest k] — a tail percentile: the instance totals are run
      through a sorting network ({!Sorting_network}) and the k-th smallest
      becomes the heuristic value, "bubbling up the worst outcomes". *)

type t = {
  followers : Repro_follower.Kkt_rewrite.emitted list;
      (** one per partition instance *)
  instance_totals : Model.var list;
      (** host variable equal to each instance's heuristic total *)
  value : Linexpr.t;  (** the reduced (average / percentile) value *)
}

val encode :
  Model.t ->
  Pathset.t ->
  demand_vars:Model.var array ->
  parts:int ->
  partitions:Pop.partition list ->
  reduce:[ `Average | `Kth_smallest of int ] ->
  unit ->
  t
(** @raise Invalid_argument on empty [partitions] or size mismatches. *)
