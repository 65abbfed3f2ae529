(** Ground-truth gap oracle: given concrete demands, run the optimal
    algorithm and the heuristic directly (no KKT, no search) and report
    the gap. This is what black-box search iterates on (§3.4), what the
    white-box search uses to turn relaxation demands into trusted
    incumbents (§3.3), and what tests use to validate the
    metaoptimization's answers. *)

type heuristic_spec =
  | Dp_spec of { threshold : float }
  | Pop_spec of {
      parts : int;
      partitions : Pop.partition list;
          (** the fixed random instantiations the gap is averaged over
              (§3.2: the empirical stand-in for the expectation) *)
      reduce : [ `Average | `Kth_smallest of int ];
          (** how the per-instance heuristic totals are collapsed:
              [`Kth_smallest 1] targets the worst instance (the tail
              percentile of §3.2) *)
    }

type cache_hook = {
  lookup : tag:string -> Demand.t -> float option option;
      (** [Some v] — a cached oracle value for (this oracle, [tag],
          demand); [None] — not cached. [tag] is ["opt"] or ["heur"]. *)
  insert : tag:string -> Demand.t -> float option -> unit;
}
(** External oracle-value cache, attached by the serving layer
    ({!Repro_serve.Oracle_cache}): every [opt_value] /
    [heuristic_value] consults it first, so repeated oracle calls —
    inside one black-box walk, across tree-search workers on different
    domains, or across independent daemon queries over the same
    instance — cost one solve. Implementations must be domain-safe;
    the cached value for ["heur"] may be [None] (a cached
    infeasibility). *)

type t = {
  pathset : Pathset.t;
  spec : heuristic_spec;
  pool : Repro_engine.Pool.t option;
      (** when set, POP's R partition instances (and each instance's
          per-part LPs) are evaluated concurrently; results stay
          bit-identical to serial because reductions run in instance
          order *)
  hook : cache_hook option;
  opt_basis : Repro_lp.Simplex.basis_snapshot option;
      (** warm-start basis for the OPT LP ({!Opt_max_flow.solve}),
          typically the final sweep basis published to
          {!Repro_serve.Basis_store}; an incompatible snapshot falls
          back to a cold solve, so attaching one never changes values *)
}

val make_dp : Pathset.t -> threshold:float -> t

val make_pop :
  Pathset.t ->
  parts:int ->
  instances:int ->
  rng:Rng.t ->
  ?reduce:[ `Average | `Kth_smallest of int ] ->
  unit ->
  t
(** Draws [instances] random partitions once; they stay fixed for the
    oracle's lifetime so repeated evaluations are comparable. *)

val with_pool : t -> Repro_engine.Pool.t option -> t
(** The same oracle, evaluating on the given pool (or serially for
    [None]). Values are unchanged either way. *)

val with_cache : t -> cache_hook option -> t
(** The same oracle, with (or without) an external oracle-value cache.
    Values are unchanged either way — the hook only skips recomputation
    of identical queries. *)

val with_opt_basis : t -> Repro_lp.Simplex.basis_snapshot option -> t
(** The same oracle, warm-starting its OPT solves from the given basis
    snapshot (or cold for [None]). Values are unchanged either way. *)

val partitions : t -> Pop.partition list
(** Empty for DP. *)

val opt_value : t -> Demand.t -> float

val heuristic_value : t -> Demand.t -> float option
(** [None] when the heuristic is infeasible on this input (DP pinning
    overload, §5) — such inputs are outside the adversary's search set. *)

val gap : t -> Demand.t -> float option
(** [OPT(d) - Heuristic(d)]; [None] on heuristic infeasibility. *)

val normalized_gap : t -> Demand.t -> float option
(** Gap divided by total edge capacity — the cross-topology metric of
    Fig 3. *)

val normalize : t -> float -> float
(** Divide an absolute gap by the topology's total capacity. *)
