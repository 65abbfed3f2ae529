(** Black-box baselines (paper §3.4): hill climbing (Algorithm 1) and
    simulated annealing. Both treat the gap oracle {!Evaluate} as a black
    box — they are the comparison points of Fig 3, and their weakness
    (slow, stuck in local optima, especially for DP whose "interesting"
    input region is small) motivates the white-box method.

    Defaults follow the paper: sigma = 10% of link capacity, K = 100
    patience, t0 = 500, gamma = 0.1, cooling period Kp = 100; the number
    of restarts (M_hc / M_sa) is whatever fits the latency budget. *)

type options = {
  sigma : float option;  (** neighbour step std-dev; [None] — 10% of max capacity *)
  patience : int;  (** K: failed neighbours before declaring a local max *)
  time_limit : float;  (** seconds *)
  max_evaluations : int;
  t0 : float;  (** initial temperature (SA) *)
  gamma : float;  (** cooling factor (SA) *)
  cooling_period : int;  (** Kp: iterations between coolings (SA) *)
  demand_ub : float option;  (** [None] — max link capacity *)
  constraints : Input_constraints.t;
  batch : int;
      (** neighbours drawn (serially, deterministic stream) and scored per
          hill-climbing step; 1 reproduces Algorithm 1 exactly *)
  pool : Repro_engine.Pool.t option;
      (** scores each batch through [parallel_map]; the move choice and
          all bookkeeping stay in draw order, so a given (seed, batch) is
          deterministic with or without the pool *)
}

val default_options : options

type result = {
  demands : Demand.t;
  gap : float;  (** best oracle gap found (absolute flow units) *)
  normalized_gap : float;
  evaluations : int;
  restarts : int;
  elapsed : float;
  trace : (float * float) list;
      (** (seconds, best gap so far) at each improvement — Fig 3 series *)
}

val hill_climb : Evaluate.t -> rng:Rng.t -> ?options:options -> unit -> result
val simulated_annealing :
  Evaluate.t -> rng:Rng.t -> ?options:options -> unit -> result
