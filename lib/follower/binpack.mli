(** Vector bin packing under first-fit-decreasing (FFD): the first non-TE
    heuristic family (MetaOpt follow-up paper, arXiv 2311.12779 §5).

    The adversary chooses item sizes [s_{i,d}] (one value per item and
    dimension, bounded by [size_ub]); the heuristic packs items in
    decreasing order of their dimension-sum into the first bin where they
    fit; the optimum packs them into the fewest bins possible. The gap is
    [FFD bins - OPT bins].

    FFD is combinatorial rather than an inner LP, so its white-box
    encoding is a direct MILP (first-fit logic as disjunctions over
    indicator binaries, exact McCormick products for size-times-assignment
    terms) instead of a KKT rewrite; the OPT side needs no rewrite at all
    because minimizing bins is aligned with the host's
    maximize-[FFD - OPT] objective — the same merging trick the TE gap
    problem uses for its OPT max-flow block. Every candidate is verified
    by a black-box oracle (exact FFD simulation + a small exact packing
    MILP), so reported gaps are always realized gaps. *)

type config = {
  items : int;
  dims : int;
  capacity : float;  (** per-dimension bin capacity *)
  size_ub : float;  (** per-dimension item size bound *)
  epsilon : float;
      (** strict-overflow margin for the encoding's "does not fit"
          disjunctions; instances within [epsilon] of a bin boundary are
          excluded from the white-box search (the oracle still verifies
          them exactly) *)
}

val config :
  ?items:int ->
  ?dims:int ->
  ?capacity:float ->
  ?size_ub:float ->
  ?epsilon:float ->
  unit ->
  config
(** Defaults: 6 items, 1 dimension, capacity 1.0, [size_ub = capacity],
    [epsilon = 1e-3 * capacity]. *)

type instance = float array
(** [items * dims] sizes, row-major: item [i] dimension [d] at
    [i * dims + d]. *)

val size : config -> instance -> item:int -> dim:int -> float

val normalize : config -> instance -> instance
(** Clamp sizes into [[0, size_ub]] and sort items into the canonical
    decreasing order of their dimension sum (ties by original index). *)

type packing = {
  bins : int;
  assignment : int array;  (** bin of each (original-index) item *)
}

val ffd : config -> instance -> packing
(** Exact first-fit-decreasing simulation. *)

val opt :
  ?node_limit:int -> ?time_limit:float -> config -> instance ->
  int * Branch_bound.outcome
(** Exact optimal packing via a small MILP; the outcome tells whether the
    bin count is proven ([Optimal]) or only an incumbent. *)

(** {1 White-box gap encoding} *)

type encoded = {
  model : Model.t;
  sizes : Model.var array;  (** adversary-controlled [s_{i,d}] *)
  ff_used : Model.var array;  (** FFD bin-used indicators *)
  opt_open : Model.var array;  (** OPT bin-open indicators *)
  gap_expr : Linexpr.t;  (** objective: FFD bins - OPT bins *)
}

val encode : config -> encoded

(** {1 Probes and search} *)

val probes : config -> seed:int -> (string * instance) list
(** FFD-aware seed instances, most promising first: the classic
    thirds worst-case pattern, quasirandom and seeded-random fills, and
    (for [dims >= 2]) dimension-skewed complements. *)

type options = {
  probe_budget : int;  (** oracle calls allowed for probe refinement *)
  run_milp : bool;  (** also run the white-box MILP search *)
  node_limit : int;  (** gap-MILP node budget *)
  time_limit : float;  (** gap-MILP wall budget, seconds *)
  verify_node_limit : int;  (** per-oracle OPT MILP node budget *)
  verify_time_limit : float;
  seed : int;
}

val default_options : options

type result = {
  config : config;
  instance : instance;  (** best verified adversarial instance, canonical *)
  ffd_bins : int;
  opt_bins : int;
  gap : int;  (** verified [ffd_bins - opt_bins] *)
  bound : float;  (** proven upper bound on the gap (MILP best bound) *)
  outcome : Branch_bound.outcome;  (** of the gap MILP (Optimal if skipped) *)
  probe : string;  (** probe (or ["milp"]) that produced the winner *)
  oracle_calls : int;
  oracle_closed : bool;  (** every oracle OPT solve proved optimality *)
  milp_nodes : int;
  elapsed : float;
}

val find_gap : ?options:options -> config -> result
