module Engine = Repro_engine

type search = Direct

type options = {
  bb : Branch_bound.options;
  search : search;
  constraints : Input_constraints.t;
  demand_ub : float option;
  probe_budget : int;
  run_milp : bool;
  quantize : float option;
  jobs : int;
}

let default_options =
  {
    bb = { Branch_bound.default_options with time_limit = 30.; stall_time = 8. };
    search = Direct;
    constraints = Input_constraints.none;
    demand_ub = None;
    probe_budget = 200;
    run_milp = true;
    quantize = None;
    jobs = 1;
  }

type stats = {
  nodes : int;
  simplex_iterations : int;
  lp_stats : Simplex.stats;
  tree : Branch_bound.tree_stats;
  elapsed : float;
  model_vars : int;
  model_constrs : int;
  model_sos1 : int;
  oracle_calls : int;
}

type result = {
  demands : Demand.t;
  gap : float;
  normalized_gap : float;
  opt_value : float;
  heuristic_value : float;
  upper_bound : float option;
  outcome : Branch_bound.outcome;
  trace : (float * float) list;
  stats : stats;
}

let heuristic_of_spec (ev : Evaluate.t) =
  match ev.Evaluate.spec with
  | Evaluate.Dp_spec { threshold } -> Gap_problem.Dp { threshold }
  | Evaluate.Pop_spec { parts; partitions; reduce } ->
      Gap_problem.Pop { parts; partitions; reduce }

let now () = Unix.gettimeofday ()

(* Round demands so identical-up-to-noise relaxations hit the oracle cache. *)
let cache_key demands =
  String.concat ","
    (Array.to_list (Array.map (fun d -> Printf.sprintf "%.4f" d) demands))

type oracle_state = {
  ev : Evaluate.t;
  constraints : Input_constraints.t;
  quantize : float option;
  cache : (string, float option) Hashtbl.t;
  lock : Mutex.t;
      (** guards [cache]/[best]/[calls]/[trace]: with a parallel tree
          search the primal heuristic runs concurrently on B\&B worker
          domains *)
  mutable best : (Demand.t * float) option;
  mutable calls : int;
  mutable trace : (float * float) list;
  started : float;
}

let make_oracle_state (ev : Evaluate.t) ~(options : options) =
  {
    ev;
    constraints = options.constraints;
    quantize = options.quantize;
    cache = Hashtbl.create 256;
    lock = Mutex.create ();
    best = None;
    calls = 0;
    trace = [];
    started = now ();
  }

let with_lock st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

(* With a quantized outer space, only on-grid demands are feasible points
   of the MILP: snap every probe before evaluating. *)
let snap st demands =
  match st.quantize with
  | None -> demands
  | Some step ->
      Array.map (fun d -> step *. Float.round (d /. step)) demands

(* Record a verified gap (demands already snapped). Caller holds
   [st.lock]. *)
let record_verified_locked st demands g =
  match st.best with
  | Some (_, b) when g <= b -> ()
  | _ ->
      st.best <- Some (Array.copy demands, g);
      st.trace <- (now () -. st.started, g) :: st.trace

let oracle_gap st demands =
  let demands = snap st demands in
  let key = cache_key demands in
  match with_lock st (fun () -> Hashtbl.find_opt st.cache key) with
  | Some cached -> cached
  | None ->
      (* the oracle evaluation itself runs outside the lock — concurrent
         workers may rarely evaluate the same key twice (both calls are
         real and counted); the insert re-checks before recording *)
      with_lock st (fun () -> st.calls <- st.calls + 1);
      let g =
        if not (Input_constraints.satisfied st.constraints demands) then None
        else Evaluate.gap st.ev demands
      in
      with_lock st (fun () ->
          if not (Hashtbl.mem st.cache key) then Hashtbl.replace st.cache key g;
          match g with
          | Some g -> record_verified_locked st demands g
          | None -> ());
      g

let primal_heuristic st (gp : Gap_problem.t) relax_primal =
  let demands = Gap_problem.demands_of_primal gp relax_primal in
  ignore (oracle_gap st demands);
  (* always report the best oracle-verified value so far — probing results
     become branch-and-bound incumbents (improvements also reset the
     stall detector) *)
  with_lock st (fun () ->
      match st.best with Some (_, g) -> Some (g, None) | None -> None)

(* Structure-aware probing (see Probes): the substitute for a commercial
   solver's built-in primal heuristics. Candidates and greedy refinements
   are scored with the exact oracle, so anything recorded is a genuine
   adversarial input. With a pool, candidate scoring fans out through
   [parallel_map] (pure evaluation in parallel, bookkeeping serial in
   candidate order — same cache, same best, same oracle-call count as the
   serial loop). *)
let run_probes ?pool st (ev : Evaluate.t) ~demand_ub ~budget =
  if budget <= 0 then ()
  else begin
  let pathset = ev.Evaluate.pathset in
  let candidates =
    match ev.Evaluate.spec with
    | Evaluate.Dp_spec { threshold } ->
        Probes.dp_candidates pathset ~threshold ~demand_ub
    | Evaluate.Pop_spec { parts; partitions; _ } ->
        Probes.pop_candidates pathset ~partitions ~parts ~demand_ub
  in
  let candidates =
    List.filteri (fun i _ -> i < budget) candidates
  in
  (match pool with
  | None ->
      List.iter
        (fun d ->
          ignore (oracle_gap st (Input_constraints.project st.constraints d)))
        candidates
  | Some _ ->
      (* a repeated candidate costs the serial loop no oracle call (it
         hits [st.cache]), so it is scored only once here as well *)
      let seen = Hashtbl.create 64 in
      let prepared =
        List.filter_map
          (fun d ->
            let d = snap st (Input_constraints.project st.constraints d) in
            let key = cache_key d in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              Some d
            end)
          candidates
      in
      let gaps =
        Engine.Parallel.map_list ?pool
          (fun d ->
            if not (Input_constraints.satisfied st.constraints d) then None
            else Evaluate.gap st.ev d)
          prepared
      in
      List.iter2
        (fun d g ->
          with_lock st (fun () ->
              let key = cache_key d in
              if not (Hashtbl.mem st.cache key) then begin
                st.calls <- st.calls + 1;
                Hashtbl.replace st.cache key g;
                match g with
                | Some g -> record_verified_locked st d g
                | None -> ()
              end))
        prepared gaps);
  let refine_budget = Int.max 0 (budget - List.length candidates) in
  match st.best with
  | None -> ()
  | Some (d, _) ->
      let levels =
        match ev.Evaluate.spec with
        | Evaluate.Dp_spec { threshold } -> [ 0.; threshold; demand_ub ]
        | Evaluate.Pop_spec _ -> [ 0.; demand_ub /. 2.; demand_ub ]
      in
      (* with a quantized outer space, refine over grid points only *)
      let levels =
        match st.quantize with
        | None -> levels
        | Some step ->
            List.sort_uniq compare
              (List.map (fun l -> step *. Float.round (l /. step)) levels)
      in
      let refined, calls =
        Probes.refine ev ~constraints:st.constraints ~budget:refine_budget
          ~levels d
      in
      st.calls <- st.calls + calls;
      (match refined with
      | None -> ()
      | Some (d, _) ->
          (* route through the oracle so the recorded value is snapped,
             constraint-checked and cached consistently *)
          ignore (oracle_gap st d))
  end

let audit_src = Logs.Src.create "repro.metaopt.adversary" ~doc:"gap search"

(* The MILP phase goes through {!Solver.solve} with presolve ON: the KKT
   models carry removable rows (singleton/forcing constraints from the
   rewrite) and the reduction is free relative to a tree search. [pool]
   supplies the worker domains when [bb_options.jobs] > 1. *)
let solve_one ?pool st gp ~bb_options =
  let r =
    Solver.solve ?pool ~options:bb_options ~presolve:true
      ~primal_heuristic:(primal_heuristic st gp) gp.Gap_problem.model
  in
  (match r.Branch_bound.primal with
  | Some p -> (
      match Gap_problem.audit gp p with
      | [] -> ()
      | flagged ->
          Logs.warn ~src:audit_src (fun m ->
              m "big-M audit: %d gate(s) near saturation at the incumbent (%s)"
                (List.length flagged)
                (String.concat ", "
                   (List.map
                      (fun t -> t.Repro_follower.Bigm.context)
                      flagged))))
  | None -> ());
  r

(* The gap search proper: one branch-and-bound tree over the
   metaoptimization, whose [best_bound] is the only bound reported.
   Probing must already have run on [st]. *)
let run_search ?pool st gp ~(options : options) =
  if not options.run_milp then
    (* probe-only mode: used when the KKT model is too large for the
       MILP substrate to bound usefully within budget (e.g. many POP
       instances); results stay oracle-verified but carry no bound *)
    ( {
        Branch_bound.outcome =
          (if st.best = None then Branch_bound.No_incumbent
           else Branch_bound.Feasible);
        objective = (match st.best with Some (_, g) -> g | None -> Float.nan);
        best_bound = infinity;
        mip_gap = Float.nan;
        primal = None;
        nodes = 0;
        simplex_iterations = 0;
        lp_stats = Simplex.empty_stats;
        elapsed = 0.;
        incumbent_trace = [];
        tree = Branch_bound.serial_tree_stats;
      },
      None )
  else
    let r = solve_one ?pool st gp ~bb_options:options.bb in
    let ub =
      match r.Branch_bound.outcome with
      | Branch_bound.Optimal | Branch_bound.Feasible
      | Branch_bound.No_incumbent ->
          Some r.Branch_bound.best_bound
      | Branch_bound.Infeasible | Branch_bound.Unbounded -> None
    in
    (r, ub)

let assemble_result st gp ~bb_result ~upper_bound =
  let demands, gap =
    match st.best with
    | Some (d, g) -> (d, g)
    | None -> (Array.make (Pathset.num_pairs st.ev.Evaluate.pathset) 0., 0.)
  in
  let opt_value = Evaluate.opt_value st.ev demands in
  let heuristic_value =
    match Evaluate.heuristic_value st.ev demands with
    | Some h -> h
    | None -> Float.nan
  in
  let vars, constrs, sos1 = Gap_problem.size gp in
  {
    demands;
    gap;
    normalized_gap = Evaluate.normalize st.ev gap;
    opt_value;
    heuristic_value;
    upper_bound;
    outcome = bb_result.Branch_bound.outcome;
    trace = List.rev st.trace;
    stats =
      {
        nodes = bb_result.Branch_bound.nodes;
        simplex_iterations = bb_result.Branch_bound.simplex_iterations;
        lp_stats = bb_result.Branch_bound.lp_stats;
        tree = bb_result.Branch_bound.tree;
        elapsed = now () -. st.started;
        model_vars = vars;
        model_constrs = constrs;
        model_sos1 = sos1;
        oracle_calls = st.calls;
      };
  }

(* Probe, then one tree search. With a pool, probe scoring and the
   oracle's POP instances fan out (results bit-identical to jobs = 1 by
   the [Parallel] determinism contract) and the tree search runs on
   [options.jobs] workers. *)
let find_on (ev : Evaluate.t) ~(options : options) ~pool =
  let ev =
    match pool with Some _ -> Evaluate.with_pool ev pool | None -> ev
  in
  let gp =
    Gap_problem.build ev.Evaluate.pathset
      ~heuristic:(heuristic_of_spec ev) ~constraints:options.constraints
      ?demand_ub:options.demand_ub ?quantize:options.quantize ()
  in
  let st = make_oracle_state ev ~options in
  run_probes ?pool st ev ~demand_ub:gp.Gap_problem.demand_ub
    ~budget:options.probe_budget;
  let options =
    { options with bb = { options.bb with Branch_bound.jobs = options.jobs } }
  in
  let bb_result, upper_bound = run_search ?pool st gp ~options in
  assemble_result st gp ~bb_result ~upper_bound

let find (ev : Evaluate.t) ?(options = default_options) ?pool () =
  match pool with
  | Some _ -> find_on ev ~options ~pool
  | None ->
      let jobs = Engine.Jobs.clamp options.jobs in
      if jobs > 1 then
        Engine.Pool.with_pool ~domains:jobs (fun pool ->
            find_on ev ~options ~pool:(Some pool))
      else find_on ev ~options ~pool:None
