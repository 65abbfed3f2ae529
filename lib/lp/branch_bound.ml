module Engine = Repro_engine

type options = {
  time_limit : float;
  node_limit : int;
  gap_tol : float;
  stall_time : float;
  stall_improvement : float;
  int_tol : float;
  sos_tol : float;
  log_progress : bool;
  interrupt : unit -> bool;
  backend : Backend.kind option;
  jobs : int;
  (* unified wall/pivot/node budget, shared by every worker and charged
     down inside the simplex; [None] keeps the search bit-identical to
     a build without the resilience layer *)
  deadline : Repro_resilience.Deadline.t option;
}

let default_options =
  {
    time_limit = 60.;
    node_limit = 100_000;
    gap_tol = 1e-6;
    stall_time = 10.;
    stall_improvement = 0.005;
    int_tol = 1e-6;
    sos_tol = 1e-6;
    log_progress = false;
    interrupt = (fun () -> false);
    backend = None;
    jobs = Engine.Jobs.default ();
    deadline = None;
  }

type outcome = Optimal | Feasible | No_incumbent | Infeasible | Unbounded

type tree_stats = { workers : int; steals : int; idle_s : float; lost : int }

let serial_tree_stats = { workers = 1; steals = 0; idle_s = 0.; lost = 0 }

type result = {
  outcome : outcome;
  objective : float;
  best_bound : float;
  mip_gap : float;
  primal : float array option;
  nodes : int;
  simplex_iterations : int;
  lp_stats : Simplex.stats;
  elapsed : float;
  incumbent_trace : (float * float) list;
  tree : tree_stats;
}

let src = Logs.Src.create "repro.branch_bound" ~doc:"MILP branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

let now () = Unix.gettimeofday ()

(* Apply a node's override list to a backend, given the set of overrides
   already in effect from the previously solved node. *)
let apply_overrides simplex applied ~root_lb ~root_ub overrides =
  let targets = Hashtbl.create 16 in
  List.iter (fun (v, lo, hi) -> Hashtbl.replace targets v (lo, hi)) overrides;
  (* reset previously-applied vars that this node does not override *)
  let stale = ref [] in
  Hashtbl.iter
    (fun v () -> if not (Hashtbl.mem targets v) then stale := v :: !stale)
    applied;
  List.iter
    (fun v ->
      Backend.set_bounds simplex v ~lb:root_lb.(v) ~ub:root_ub.(v);
      Hashtbl.remove applied v)
    !stale;
  Hashtbl.iter
    (fun v (lo, hi) ->
      Backend.set_bounds simplex v ~lb:lo ~ub:hi;
      Hashtbl.replace applied v ())
    targets

(* Most-violated branching entity in a relaxation solution. *)
type violation =
  | No_violation
  | Fractional of int * float (* var, value *)
  | Sos_violated of int array * int (* group, index of largest member *)

let find_violation ~int_tol ~sos_tol ~int_vars ~sos x =
  let best = ref No_violation and best_score = ref 0. in
  Array.iter
    (fun v ->
      let frac = Float.abs (x.(v) -. Float.round x.(v)) in
      if frac > int_tol && frac > !best_score then begin
        best := Fractional (v, x.(v));
        best_score := frac
      end)
    int_vars;
  Array.iter
    (fun group ->
      (* second-largest magnitude must be ~0 for SOS1 feasibility *)
      let arg_max = ref 0 and vmax = ref (-1.) and second = ref 0. in
      Array.iteri
        (fun i v ->
          let m = Float.abs x.(v) in
          if m > !vmax then begin
            second := !vmax;
            vmax := m;
            arg_max := i
          end
          else if m > !second then second := m)
        group;
      if !second > sos_tol && !second > !best_score then begin
        best := Sos_violated (group, !arg_max);
        best_score := !second
      end)
    sos;
  !best

let mip_gap_of ~objective ~bound =
  if Float.is_nan objective || Float.is_nan bound then Float.nan
  else Float.abs (bound -. objective) /. Float.max 1e-9 (Float.abs objective)

(* ------------------------------------------------------------------ *)
(* Tree search                                                         *)
(* ------------------------------------------------------------------ *)

(* An open node. With more than one worker it also carries its parent's
   optimal basis so a worker that steals it can warm-start without
   having explored the parent itself. Snapshots are immutable and
   shared by reference between both children of a node (workers only
   read them). *)
type node = {
  (* full list of bound overrides along the path from the root; later
     entries shadow earlier ones for the same variable *)
  overrides : (int * float * float) list;
  depth : int;
  basis : Simplex.basis_snapshot option;
}

let solve ?pool ?(options = default_options) ?primal_heuristic
    ?(on_incumbent = fun _ -> ()) model =
  let jobs = Engine.Jobs.clamp options.jobs in
  (* a snapshot is only ever installed on a stolen node, and a lone
     worker never steals *)
  let snapshots = jobs > 1 in
  let dir, _ = Model.objective model in
  let maximize = dir = Model.Maximize in
  let sf = Standard_form.of_model model in
  let n = Model.num_vars model in
  let root_lb = Array.init n (Model.var_lb model) in
  let root_ub = Array.init n (Model.var_ub model) in
  let int_vars = Model.integer_vars model in
  let sos = Model.sos1_groups model in
  let start = now () in
  let prio bound = if maximize then bound else -.bound in
  let unprio p = if maximize then p else -.p in
  let npool : node Node_pool.t = Node_pool.create ~workers:jobs in
  (* shared incumbent: the score is the objective in prio direction, so
     the store's strict monotonicity is exactly "strictly better in the
     model direction"; the payload is the (optional) primal assignment *)
  let inc : float array option Engine.Incumbent.t = Engine.Incumbent.create () in
  let mu = Mutex.create () in
  let trace = ref [] in
  let last_progress = ref (now ()) in
  let stop_reason = ref None in
  let best_root_bound = ref (if maximize then infinity else neg_infinity) in
  let nodes = Atomic.make 0 in
  let truncated = Atomic.make false in
  let failure : (exn * Printexc.raw_backtrace) option Atomic.t =
    Atomic.make None
  in
  let incumbent_value () =
    let s = Engine.Incumbent.best_score inc in
    if s = neg_infinity then None else Some (unprio s)
  in
  let prunable bound =
    match incumbent_value () with
    | None -> false
    | Some inc_v ->
        let margin = options.gap_tol *. Float.max 1. (Float.abs inc_v) in
        if maximize then bound <= inc_v +. margin else bound >= inc_v -. margin
  in
  let record ?x value =
    Mutex.lock mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mu)
      (fun () ->
        let prev = incumbent_value () in
        let improved =
          match prev with
          | None -> true
          | Some v -> if maximize then value > v else value < v
        in
        if improved then begin
          let accepted =
            Engine.Incumbent.propose inc (Option.map Array.copy x) (prio value)
          in
          if accepted then begin
            let t = now () -. start in
            let meaningful =
              match prev with
              | None -> true
              | Some v ->
                  Float.abs (value -. v) /. Float.max 1. (Float.abs v)
                  >= options.stall_improvement
            in
            trace := (t, value) :: !trace;
            if meaningful then last_progress := now ();
            if options.log_progress then
              Log.info (fun m ->
                  m "incumbent %.6g at %.2fs (%d nodes)" value t
                    (Atomic.get nodes));
            on_incumbent value
          end
        end)
  in
  let set_stop outcome =
    Mutex.lock mu;
    (match !stop_reason with
    | None -> stop_reason := Some outcome
    | Some _ -> ());
    Mutex.unlock mu;
    Node_pool.stop npool
  in
  (* limits are evaluated against the shared counters once per node,
     before it is expanded; with several workers the node limit can
     therefore overshoot by at most [jobs - 1] in-flight nodes *)
  let check_limits () =
    let elapsed = now () -. start in
    let deadline_hit =
      match options.deadline with
      | Some d -> Repro_resilience.Deadline.expired d
      | None -> false
    in
    if
      elapsed > options.time_limit
      || options.interrupt ()
      || deadline_hit
      || Atomic.get nodes >= options.node_limit
    then begin
      set_stop (if incumbent_value () = None then No_incumbent else Feasible);
      true
    end
    else if
      incumbent_value () <> None
      && now () -. !last_progress > options.stall_time
    then begin
      set_stop Feasible;
      true
    end
    else false
  in
  let worker wid =
    let be = Backend.create ?kind:options.backend sf in
    let applied = Hashtbl.create 64 in
    (* [process] expands one in-flight node and then {e plunges}: it
       keeps one child in hand (depth-first) and heaps the sibling for
       later or for thieves. Pure best-bound order never reaches a leaf
       on deep trees — every backtrack jumps to the shallowest open
       sibling — so diving is what produces incumbents, and the in-hand
       child continues from the basis already loaded in [be], the
       cheapest possible dual restart. The in-flight slot is re-tagged
       via [Node_pool.continue_with] so termination stays exact and
       [best_open] sees the dive; exactly one [finish] or [abandon] ends
       the chain. *)
    let rec process nd stolen =
      Repro_resilience.Faults.inject "worker_death";
      if Atomic.get failure <> None then Node_pool.finish npool ~worker:wid
      else if check_limits () then
        (* the node was never expanded: keep its bound in [best_open] *)
        Node_pool.abandon npool ~worker:wid
      else begin
        Atomic.incr nodes;
        (match options.deadline with
        | Some d -> Repro_resilience.Deadline.charge_node d
        | None -> ());
        (* a stolen node's overrides are a diff against somebody else's
           subtree: install the parent basis that was shipped with it
           instead of warm-starting from whatever this worker solved
           last *)
        if stolen then (
          match nd.basis with
          | Some snap -> ignore (Backend.install_basis be snap : bool)
          | None -> ());
        apply_overrides be applied ~root_lb ~root_ub nd.overrides;
        let sol = Backend.resolve ?deadline:options.deadline be in
        match sol.Simplex.status with
        | Simplex.Infeasible -> Node_pool.finish npool ~worker:wid
        | Simplex.Unbounded ->
            if nd.depth = 0 then set_stop Unbounded
            else Atomic.set truncated true;
            Node_pool.finish npool ~worker:wid
        | Simplex.Iteration_limit ->
            Atomic.set truncated true;
            (match options.deadline with
            | Some d when Repro_resilience.Deadline.expired d ->
                (* budget cutoff, not LP hardness: keep this subtree's
                   bound visible in [best_open] so the result is sound *)
                Node_pool.abandon npool ~worker:wid
            | _ -> Node_pool.finish npool ~worker:wid)
        | Simplex.Optimal ->
            let bound = sol.Simplex.objective in
            if nd.depth = 0 then begin
              Mutex.lock mu;
              best_root_bound := bound;
              Mutex.unlock mu
            end;
            if prunable bound then Node_pool.finish npool ~worker:wid
            else begin
              match
                find_violation ~int_tol:options.int_tol
                  ~sos_tol:options.sos_tol ~int_vars ~sos sol.Simplex.primal
              with
              | No_violation ->
                  record ~x:sol.Simplex.primal bound;
                  Node_pool.finish npool ~worker:wid
              | viol -> (
                  (match primal_heuristic with
                  | None -> ()
                  | Some h -> (
                      match h sol.Simplex.primal with
                      | None -> ()
                      | Some (value, Some x) -> record ~x value
                      | Some (value, None) -> record value));
                  let snap =
                    if snapshots then Some (Backend.snapshot_basis be)
                    else None
                  in
                  let mk extra =
                    {
                      overrides = nd.overrides @ extra;
                      depth = nd.depth + 1;
                      basis = snap;
                    }
                  in
                  let plunge child =
                    Node_pool.continue_with npool ~worker:wid
                      ~prio:(prio bound);
                    process child false
                  in
                  match viol with
                  | No_violation -> assert false
                  | Fractional (v, value) ->
                      let lo = Backend.get_lb be v
                      and hi = Backend.get_ub be v in
                      let down = Float.floor value and up = Float.ceil value in
                      let dn_ok = down >= lo -. 1e-9
                      and up_ok = up <= hi +. 1e-9 in
                      let dn_nd = mk [ (v, lo, down) ]
                      and up_nd = mk [ (v, up, hi) ] in
                      if dn_ok && up_ok then begin
                        (* dive into the nearer integer, heap the other *)
                        let keep, other =
                          if value -. down <= up -. value then (dn_nd, up_nd)
                          else (up_nd, dn_nd)
                        in
                        Node_pool.push npool ~worker:wid ~prio:(prio bound)
                          other;
                        plunge keep
                      end
                      else if dn_ok then plunge dn_nd
                      else if up_ok then plunge up_nd
                      else Node_pool.finish npool ~worker:wid
                  | Sos_violated (group, arg_max) ->
                      let biggest = group.(arg_max) in
                      Node_pool.push npool ~worker:wid ~prio:(prio bound)
                        (mk [ (biggest, 0., 0.) ]);
                      let others =
                        group |> Array.to_list
                        |> List.filteri (fun i _ -> i <> arg_max)
                        |> List.map (fun v -> (v, 0., 0.))
                      in
                      (* dive on the branch that keeps the dominant
                         variable of the violated group *)
                      plunge (mk others))
            end
      end
    in
    (* limits are polled in [process] only; once they stop the search
       [take] returns [None] *)
    let rec loop () =
      if Atomic.get failure <> None then ()
      else
        match Node_pool.take npool ~worker:wid with
        | None -> ()
        | Some (nprio, nd, stolen) ->
            if prunable (unprio nprio) then
              Node_pool.finish npool ~worker:wid
            else process nd stolen;
            loop ()
    in
    (try loop () with
    | Repro_resilience.Faults.Injected _ ->
        (* simulated worker death: release the in-flight slot so the
           survivors can terminate, keep its subtree's bound in
           [best_open], and degrade instead of failing the solve *)
        Node_pool.reclaim npool ~worker:wid;
        Atomic.set truncated true
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (e, bt)) : bool);
        Node_pool.stop npool);
    (Backend.stats be, Backend.total_iterations be)
  in
  Node_pool.push npool ~worker:0
    ~prio:(prio (if maximize then infinity else neg_infinity))
    { overrides = []; depth = 0; basis = None };
  let run_workers pool =
    let futs =
      List.init jobs (fun wid -> Engine.Pool.submit pool (fun () -> worker wid))
    in
    List.map Engine.Pool.await futs
  in
  let results =
    if jobs = 1 then [ worker 0 ]
    else
      match pool with
      | Some pool -> run_workers pool
      | None -> Engine.Pool.with_pool ~domains:jobs run_workers
  in
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let steals, idle_s = Node_pool.stats npool in
  let lp_stats =
    List.fold_left
      (fun acc (s, _) -> Simplex.add_stats acc s)
      Simplex.empty_stats results
  in
  let simplex_iterations =
    List.fold_left (fun acc (_, it) -> acc + it) 0 results
  in
  let objective = Option.value (incumbent_value ()) ~default:Float.nan in
  let primal = Option.join (Option.map fst (Engine.Incumbent.best inc)) in
  let finish outcome ~best_bound =
    {
      outcome;
      objective;
      best_bound;
      mip_gap =
        (match outcome with
        | Optimal -> 0.
        | _ -> mip_gap_of ~objective ~bound:best_bound);
      primal;
      nodes = Atomic.get nodes;
      simplex_iterations;
      lp_stats;
      elapsed = now () -. start;
      incumbent_trace = List.rev !trace;
      tree = { workers = jobs; steals; idle_s; lost = Node_pool.lost npool };
    }
  in
  (* the optimum is bounded by max(incumbent, best open subtree): open
     nodes already worse than the incumbent may still be queued, so the
     open bound alone can sit below the incumbent *)
  let cover_incumbent b =
    match incumbent_value () with
    | Some inc -> if maximize then Float.max b inc else Float.min b inc
    | None -> b
  in
  match !stop_reason with
  | Some outcome ->
      let best_bound =
        match Node_pool.best_open npool with
        | Some p -> cover_incumbent (unprio p)
        | None -> Option.value (incumbent_value ()) ~default:!best_root_bound
      in
      finish outcome ~best_bound
  | None ->
      (* node pool exhausted: the whole tree was proven — unless nodes
         were truncated or lost, in which case [best_open] may still
         carry an abandoned subtree's bound (tighter than the root's) *)
      let truncated_bound () =
        match Node_pool.best_open npool with
        | Some p -> cover_incumbent (unprio p)
        | None -> !best_root_bound
      in
      if incumbent_value () = None then
        if Atomic.get truncated then
          finish No_incumbent ~best_bound:(truncated_bound ())
        else
          finish Infeasible
            ~best_bound:(if maximize then neg_infinity else infinity)
      else if Atomic.get truncated then
        finish Feasible ~best_bound:(truncated_bound ())
      else finish Optimal ~best_bound:objective

let pp_outcome ppf = function
  | Optimal -> Fmt.string ppf "optimal"
  | Feasible -> Fmt.string ppf "feasible (limit)"
  | No_incumbent -> Fmt.string ppf "no incumbent (limit)"
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unbounded -> Fmt.string ppf "unbounded"

let pp_result ppf r =
  Fmt.pf ppf "%a: obj %.6g, bound %.6g, gap %.2f%%, %d nodes, %d pivots, %.2fs"
    pp_outcome r.outcome r.objective r.best_bound (100. *. r.mip_gap) r.nodes
    r.simplex_iterations r.elapsed

let pp_tree_stats ppf t =
  Fmt.pf ppf "workers=%d steals=%d idle=%.2fs" t.workers t.steals t.idle_s;
  if t.lost > 0 then Fmt.pf ppf " lost=%d" t.lost
