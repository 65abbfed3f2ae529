type options = {
  sigma : float option;
  patience : int;
  time_limit : float;
  max_evaluations : int;
  t0 : float;
  gamma : float;
  cooling_period : int;
  demand_ub : float option;
  constraints : Input_constraints.t;
  batch : int;
  pool : Repro_engine.Pool.t option;
}

let default_options =
  {
    sigma = None;
    patience = 100;
    time_limit = 10.;
    max_evaluations = max_int;
    t0 = 500.;
    gamma = 0.1;
    cooling_period = 100;
    demand_ub = None;
    constraints = Input_constraints.none;
    batch = 1;
    pool = None;
  }

type result = {
  demands : Demand.t;
  gap : float;
  normalized_gap : float;
  evaluations : int;
  restarts : int;
  elapsed : float;
  trace : (float * float) list;
}

type search_state = {
  ev : Evaluate.t;
  opts : options;
  rng : Rng.t;
  ub : float;
  sigma_v : float;
  start : float;
  mutable best : (Demand.t * float) option;
  mutable evaluations : int;
  mutable restarts : int;
  mutable trace : (float * float) list;
}

let now () = Unix.gettimeofday ()

let make_state ev ~rng opts =
  let g = Pathset.graph ev.Evaluate.pathset in
  let ub =
    match opts.demand_ub with
    | Some u -> u
    | None -> Graph.max_capacity g
  in
  let sigma_v =
    match opts.sigma with
    | Some s -> s
    | None -> 0.1 *. Graph.max_capacity g
  in
  {
    ev;
    opts;
    rng;
    ub;
    sigma_v;
    start = now ();
    best = None;
    evaluations = 0;
    restarts = 0;
    trace = [];
  }

let out_of_budget st =
  now () -. st.start > st.opts.time_limit
  || st.evaluations >= st.opts.max_evaluations

(* Pure scoring: no state mutation, safe to fan out over a pool.
   Infeasible heuristic inputs and constraint violations score
   neg_infinity so search walks away from them; [counted] says whether an
   oracle call actually happened (constraint rejections are free). *)
let evaluate_raw st d =
  if not (Input_constraints.satisfied st.opts.constraints d) then
    (neg_infinity, false)
  else
    match Evaluate.gap st.ev d with
    | None -> (neg_infinity, true)
    | Some g -> (g, true)

(* Serial bookkeeping for a scored candidate, in evaluation order. *)
let record st d (g, counted) =
  if counted then st.evaluations <- st.evaluations + 1;
  if g > neg_infinity then
    match st.best with
    | Some (_, b) when g <= b -> ()
    | _ ->
        st.best <- Some (Array.copy d, g);
        st.trace <- (now () -. st.start, g) :: st.trace

let score st d =
  let r = evaluate_raw st d in
  record st d r;
  fst r

let random_start st =
  let n = Pathset.num_pairs st.ev.Evaluate.pathset in
  let d = Array.init n (fun _ -> Rng.uniform st.rng ~lo:0. ~hi:st.ub) in
  Input_constraints.project st.opts.constraints d

let neighbour st d =
  let d' =
    Array.map
      (fun v ->
        let v' = v +. Rng.gaussian st.rng ~mu:0. ~sigma:st.sigma_v in
        Float.min st.ub (Float.max 0. v'))
      d
  in
  Input_constraints.project st.opts.constraints d'

let finish st =
  let demands, gap =
    match st.best with
    | Some (d, g) -> (d, g)
    | None -> (Array.make (Pathset.num_pairs st.ev.Evaluate.pathset) 0., 0.)
  in
  {
    demands;
    gap;
    normalized_gap = Evaluate.normalize st.ev gap;
    evaluations = st.evaluations;
    restarts = st.restarts;
    elapsed = now () -. st.start;
    trace = List.rev st.trace;
  }

(* Algorithm 1 (hill climbing), restarted until the budget is spent.

   With [batch] > 1 each step draws a batch of neighbours (RNG draws stay
   serial, so the candidate stream is a deterministic function of the
   seed), scores them through [parallel_map], and moves to the best
   improving one; bookkeeping runs in draw order afterwards. [batch] = 1
   reproduces the classic one-neighbour-at-a-time walk exactly. *)
let hill_climb ev ~rng ?(options = default_options) () =
  let st = make_state ev ~rng options in
  let batch = Int.max 1 options.batch in
  while not (out_of_budget st) do
    st.restarts <- st.restarts + 1;
    let current = ref (random_start st) in
    let current_gap = ref (score st !current) in
    let k = ref 0 in
    while !k < st.opts.patience && not (out_of_budget st) do
      let cands = Array.init batch (fun _ -> neighbour st !current) in
      let scored =
        Repro_engine.Parallel.map ?pool:st.opts.pool (evaluate_raw st) cands
      in
      Array.iteri (fun i r -> record st cands.(i) r) scored;
      let best_i = ref (-1) and best_g = ref !current_gap in
      Array.iteri
        (fun i (g, _) ->
          if g > !best_g then begin
            best_i := i;
            best_g := g
          end)
        scored;
      if !best_i >= 0 then begin
        current := cands.(!best_i);
        current_gap := !best_g;
        k := 0
      end
      else k := !k + batch
    done
  done;
  finish st

let simulated_annealing ev ~rng ?(options = default_options) () =
  let st = make_state ev ~rng options in
  let t_min = 1e-4 *. options.t0 in
  while not (out_of_budget st) do
    st.restarts <- st.restarts + 1;
    let current = ref (random_start st) in
    let current_gap = ref (score st !current) in
    let temp = ref options.t0 in
    let since_cooling = ref 0 in
    let stuck = ref 0 in
    while
      (!temp > t_min || !stuck < st.opts.patience) && not (out_of_budget st)
    do
      let cand = neighbour st !current in
      let g = score st cand in
      let accept =
        g > !current_gap
        || (g > neg_infinity
           && Rng.float st.rng < exp ((g -. !current_gap) /. !temp))
      in
      if g > !current_gap then stuck := 0 else incr stuck;
      if accept then begin
        current := cand;
        current_gap := g
      end;
      incr since_cooling;
      if !since_cooling >= st.opts.cooling_period then begin
        since_cooling := 0;
        temp := options.gamma *. !temp
      end
    done
  done;
  finish st
