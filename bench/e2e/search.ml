(* findgap-dp and prove-small: the white-box adversary end to end.

   Both time [Adversary.find] at jobs 1. The traced run watches the
   same calls through two hooks the libraries already expose —
   [Branch_bound.options.interrupt], polled once per popped node, and a
   pass-through [Evaluate] cache hook whose lookup→insert brackets one
   oracle solve and never hits — and times pathset, encoding and the
   root LP as separate calls. Neither hook changes the search: the
   traced reps must repeat the untraced pivot count exactly. *)

open Repro_topology
open Repro_te
open Repro_metaopt
module BB = Repro_lp.Branch_bound
module Simplex = Repro_lp.Simplex
module Solver = Repro_lp.Solver

let now = Measure.now
let paths = 2
let pathset_of g = Pathset.compute (Demand.full_space g) ~k:paths

let close ?(tol = 1e-6) a b =
  Float.abs (a -. b)
  <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* Direct search, jobs 1, no wall-clock or stall limit: the node budget
   alone ends a find, so every rep does identical work. *)
let options ~node_limit ~probe_budget =
  {
    Adversary.default_options with
    Adversary.probe_budget;
    jobs = 1;
    search = Adversary.Direct;
    bb =
      {
        BB.default_options with
        BB.time_limit = infinity;
        stall_time = infinity;
        node_limit;
        jobs = 1;
      };
  }

let proof_options = options ~node_limit:max_int ~probe_budget:200

(* ---- checks --------------------------------------------------------- *)

let bound_of (res : Adversary.result) =
  Option.value res.Adversary.upper_bound ~default:Float.nan

(* The reported gap, replayed on its input through a fresh hook-free
   oracle, and the bound against the gap. *)
let replay (fresh : Evaluate.t) (res : Adversary.result) =
  let gap = res.Adversary.gap and bound = bound_of res in
  (match Evaluate.gap fresh res.Adversary.demands with
  | Some g when close g gap -> []
  | Some g -> [ Printf.sprintf "replayed gap %.9g <> reported %.9g" g gap ]
  | None -> [ "replayed input is infeasible for the heuristic" ])
  @
  if bound >= gap -. (1e-6 *. Float.max 1. (Float.abs gap)) then []
  else [ Printf.sprintf "bound %.9g below gap %.9g" bound gap ]

let proved ~what ~expected (res : Adversary.result) =
  let gap = res.Adversary.gap and bound = bound_of res in
  (if res.Adversary.outcome = BB.Optimal then []
   else [ what ^ ": search stopped before proving optimality" ])
  @ (if close gap bound then []
     else [ Printf.sprintf "%s: gap %.9g <> bound %.9g" what gap bound ])
  @
  if close gap expected then []
  else Printf.[ sprintf "%s: gap %.9g, expected %.9g" what gap expected ]

(* What must repeat bit for bit across reps of one search at jobs 1. *)
let signature (res : Adversary.result) =
  let s = res.Adversary.stats in
  ( Int64.bits_of_float res.Adversary.gap,
    Int64.bits_of_float (bound_of res),
    s.Adversary.simplex_iterations,
    s.Adversary.nodes,
    s.Adversary.oracle_calls )

let same_as_first first what (res : Adversary.result) =
  match !first with
  | None ->
      first := Some (signature res);
      []
  | Some sg when sg = signature res -> []
  | Some _ -> [ what ^ ": gap, bound or work counts differ from the first rep" ]

(* ---- the hooks ------------------------------------------------------ *)

type watch = {
  mutable polls : float list;  (** interrupt polls, newest first *)
  mutable open_ : (string * float) list;  (** oracle solves in progress *)
  mutable solves : (string * float * float) list;
      (** tag ("opt" / "heur"), start, stop; newest first *)
}

let watched ev opts =
  let w = { polls = []; open_ = []; solves = [] } in
  let hook =
    {
      Evaluate.lookup =
        (fun ~tag _ ->
          w.open_ <- (tag, now ()) :: w.open_;
          None);
      insert =
        (fun ~tag _ _ ->
          match w.open_ with
          | (t, t0) :: rest when t = tag ->
              w.open_ <- rest;
              w.solves <- (tag, t0, now ()) :: w.solves
          | _ -> ());
    }
  in
  let interrupt () =
    w.polls <- now () :: w.polls;
    false
  in
  ( w,
    Evaluate.with_cache ev (Some hook),
    { opts with Adversary.bb = { opts.Adversary.bb with BB.interrupt } } )

(* Where one search call's wall went, read off the hooks. *)
type profile = {
  wall : float;
  pre_tree : float;  (** start → first node: encoding, probing, presolve *)
  tree : float;  (** first → last node poll *)
  self_ms : float list;  (** per popped node, oracle solves excluded *)
  opt_ms : float list;
  heur_ms : float list;
}

let profile ?tr ~detail ~name w t0 t1 =
  let polls = Array.of_list (List.rev w.polls) in
  let solves = Array.of_list (List.rev w.solves) in
  let n = Array.length polls and ns = Array.length solves in
  let first = if n = 0 then t1 else polls.(0) in
  let last = if n = 0 then t1 else polls.(n - 1) in
  (* oracle time inside [a, b]: solves run one at a time, in order, and
     the intervals asked for only move forward *)
  let j = ref 0 in
  let oracle_in a b =
    while !j < ns && (fun (_, _, e) -> e <= a) solves.(!j) do
      incr j
    done;
    let acc = ref 0. and k = ref !j in
    while !k < ns && (fun (_, s, _) -> s < b) solves.(!k) do
      let _, s, e = solves.(!k) in
      acc := !acc +. Float.max 0. (Float.min b e -. Float.max a s);
      incr k
    done;
    !acc
  in
  let self_ms =
    List.init
      (Int.max 0 (n - 1))
      (fun i ->
        let a = polls.(i) and b = polls.(i + 1) in
        1000. *. (b -. a -. oracle_in a b))
  in
  Option.iter
    (fun tr ->
      let add = Measure.Trace.add tr in
      add name t0 t1;
      add "adversary.pre_tree" t0 first;
      add "adversary.assemble" last t1;
      if detail then begin
        for i = 0 to n - 2 do
          add "bb.node" polls.(i) polls.(i + 1)
        done;
        Array.iter (fun (tag, s, e) -> add ("oracle." ^ tag) s e) solves
      end)
    tr;
  let ms tag =
    Array.to_list solves
    |> List.filter_map (fun (t, s, e) ->
           if t = tag then Some (1000. *. (e -. s)) else None)
  in
  {
    wall = t1 -. t0;
    pre_tree = first -. t0;
    tree = last -. first;
    self_ms;
    opt_ms = ms "opt";
    heur_ms = ms "heur";
  }

(* One traced call: the search through the hooks, and its profile. *)
let traced_find ?tr ~detail ~name ev opts =
  let w, ev, opts = watched ev opts in
  let t0 = now () in
  let res = Adversary.find ev ~options:opts () in
  (res, profile ?tr ~detail ~name w t0 (now ()))

(* Per-layer values of one op (one or more search calls). *)
let search_layers (calls : (Evaluate.t * Adversary.result * profile) list) =
  let fsum f = List.fold_left (fun a c -> a +. f c) 0. calls in
  let isum f = fsum (fun c -> float_of_int (f c)) in
  let stat f = isum (fun (_, r, _) -> f r.Adversary.stats) in
  let lp f = stat (fun s -> f s.Adversary.lp_stats) in
  let prof f = List.concat_map (fun (_, _, p) -> f p) calls in
  let wall = fsum (fun (_, _, p) -> p.wall) in
  let tree = fsum (fun (_, _, p) -> p.tree) in
  let pre = fsum (fun (_, _, p) -> p.pre_tree) in
  let nodes = stat (fun s -> s.Adversary.nodes) in
  let pivots = stat (fun s -> s.Adversary.simplex_iterations) in
  let hits = lp (fun s -> s.Simplex.warm_hits) in
  let tries = hits +. lp (fun s -> s.Simplex.warm_misses) in
  let opt_ms = prof (fun p -> p.opt_ms) and heur_ms = prof (fun p -> p.heur_ms) in
  let self_ms = prof (fun p -> p.self_ms) in
  let per_s x = if tree > 0. then x /. tree else 0. in
  let mean f = fsum f /. float_of_int (List.length calls) in
  [
    ("lp.pivots", pivots);
    ("lp.pivots_per_s", per_s pivots);
    ("lp.refactorizations", lp (fun s -> s.Simplex.refactorizations));
    ("lp.etas", lp (fun s -> s.Simplex.etas));
    ("lp.warm_hit_ratio", if tries > 0. then hits /. tries else 0.);
    ("lp.presolve_rows", lp (fun s -> s.Simplex.presolve_rows));
    ("lp.presolve_cols", lp (fun s -> s.Simplex.presolve_cols));
    ("lp.rhs_ftran", lp (fun s -> s.Simplex.rhs_ftran));
    ("lp.rhs_dual", lp (fun s -> s.Simplex.rhs_dual));
    ("bb.nodes", nodes);
    ("bb.tree_s", tree);
    ("bb.nodes_per_s", per_s nodes);
    ("bb.node_self_ms_p50", Measure.percentile self_ms 50.);
    ("bb.node_self_ms_p99", Measure.percentile self_ms 99.);
    ( "bb.workers",
      List.fold_left
        (fun a (_, r, _) ->
          Float.max a (float_of_int r.Adversary.stats.Adversary.tree.BB.workers))
        0. calls );
    ("bb.steals", stat (fun s -> s.Adversary.tree.BB.steals));
    ( "bb.idle_s",
      fsum (fun (_, r, _) -> r.Adversary.stats.Adversary.tree.BB.idle_s) );
    ("adversary.pre_tree_s", pre);
    ("adversary.oracle_calls", stat (fun s -> s.Adversary.oracle_calls));
    ( "adversary.time_to_best_s",
      fsum (fun (_, r, _) ->
          match List.rev r.Adversary.trace with (t, _) :: _ -> t | [] -> 0.) );
    ( "adversary.incumbent_updates",
      isum (fun (_, r, _) -> List.length r.Adversary.trace) );
    ("adversary.gap_norm", mean (fun (_, r, _) -> r.Adversary.normalized_gap));
    ( "adversary.bound_norm",
      mean (fun (ev, r, _) -> Evaluate.normalize ev (bound_of r)) );
    ("oracle.opt_calls", float_of_int (List.length opt_ms));
    ("oracle.opt_ms_p50", Measure.median opt_ms);
    ("oracle.heur_calls", float_of_int (List.length heur_ms));
    ("oracle.heur_ms_p50", Measure.median heur_ms);
    ( "oracle.share_pct",
      100. *. (List.fold_left ( +. ) 0. (opt_ms @ heur_ms) /. 1000.) /. wall );
    ("trace.coverage_pct", 100. *. (pre +. tree) /. wall);
  ]

(* Layers timed as separate calls, once per instance: topology
   (pathset), encoding (metaopt model build) and the root LP of the
   unpresolved model. Medians of 3, summed over the op's instances. *)
let static_layers ?tr (instances : (Graph.t * Evaluate.t) list) =
  let per_instance (g, ev) =
    let heuristic = Adversary.heuristic_of_spec ev in
    let build () = Gap_problem.build ev.Evaluate.pathset ~heuristic () in
    let gp = build () in
    let vars, rows, sos1 = Gap_problem.size gp in
    [
      ( "topology.pathset_ms",
        Measure.med3_ms tr "topology.pathset" (fun () -> pathset_of g) );
      ("encode.build_ms", Measure.med3_ms tr "encode.build" build);
      ("encode.vars", float_of_int vars);
      ("encode.rows", float_of_int rows);
      ("encode.sos1", float_of_int sos1);
      ( "lp.root_ms",
        Measure.med3_ms tr "lp.root" (fun () ->
            Solver.solve_lp gp.Gap_problem.model) );
    ]
  in
  match List.map per_instance instances with
  | [] -> []
  | first :: _ as all ->
      List.map
        (fun (k, _) ->
          (k, List.fold_left (fun a l -> a +. List.assoc k l) 0. all))
        first

(* Median of each key over per-rep [(name, value)] samples. *)
let median_layers samples =
  match samples with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) ->
          (k, Measure.median (List.filter_map (List.assoc_opt k) samples)))
        first

(* The work counts of one op, identical on every rep at jobs 1. *)
let counters (results : Adversary.result list) =
  let sum f =
    float_of_int (List.fold_left (fun a r -> a + f r.Adversary.stats) 0 results)
  in
  [
    ("lp.pivots", sum (fun s -> s.Adversary.simplex_iterations));
    ( "lp.refactorizations",
      sum (fun s -> s.Adversary.lp_stats.Simplex.refactorizations) );
    ("bb.nodes", sum (fun s -> s.Adversary.nodes));
    ("adversary.oracle_calls", sum (fun s -> s.Adversary.oracle_calls));
  ]

(* The traced reps of a search workload: [op ~detail] runs one op
   through the hooks ([detail]: record every node and oracle span, done
   for the first rep only to keep the trace file small). Records
   per-layer medians and the trace overhead against the untraced median
   wall, and checks the hooks left the work counts alone. *)
let traced_phase (ctx : Ctx.t) r ~untraced_wall ~instances ~op =
  let reps, _ =
    Measure.timed_reps ~seconds:ctx.Ctx.seconds ~min_reps:1 (fun i ->
        op ~detail:(i = 0))
  in
  let samples =
    List.map
      (fun (_, calls) ->
        Report.op r (fun () ->
            let results = List.map (fun (_, res, _) -> res) calls in
            if counters results = r.Report.counters then []
            else [ "a traced rep did different work than the untraced reps" ]);
        search_layers calls)
      reps
  in
  let traced_wall = Measure.median (List.map fst reps) in
  Report.layers r
    (median_layers samples
    @ static_layers ?tr:ctx.Ctx.trace instances
    @ [ ("trace.overhead_pct", 100. *. ((traced_wall /. untraced_wall) -. 1.)) ])

(* The untraced reps: end-to-end latency and throughput (one answer per
   op), the work counters, and every rep checked by [check]. Returns
   the median wall. *)
let untraced_phase (ctx : Ctx.t) r ~min_reps ~run ~check =
  let reps, gc =
    Measure.timed_reps ~seconds:ctx.Ctx.seconds ~min_reps (fun _ -> run ())
  in
  List.iter (fun (_, results) -> Report.op r (fun () -> check results)) reps;
  let walls = List.map fst reps in
  let wall = Measure.median walls in
  r.Report.rep_walls <- walls;
  Report.e2e r
    [ ("latency_p50_ms", 1000. *. wall); ("answers_per_s", 1. /. wall) ];
  Report.layers r gc;
  Report.notes r [ ("reps", float_of_int (List.length walls)) ];
  (match reps with (_, res) :: _ -> Report.counters r (counters res) | [] -> ());
  wall

(* ---- findgap-dp ----------------------------------------------------- *)

(* DP pinning-threshold fractions of the max link capacity, picked by
   the seed. On b4 with a 32-node budget they all take 28.1k-29.3k
   pivots. *)
let b4_fracs = [| 0.05; 0.0525; 0.0475; 0.055; 0.045 |]

let fig1_gate r =
  Report.op r (fun () ->
      let g = Topologies.fig1 () in
      let ev =
        Evaluate.make_dp (pathset_of g) ~threshold:(0.05 *. Graph.max_capacity g)
      in
      let res = Adversary.find ev ~options:proof_options () in
      proved ~what:"fig-1 DP" ~expected:18. res @ replay ev res)

let findgap (ctx : Ctx.t) r =
  let frac = Ctx.pick b4_fracs ctx.Ctx.seed in
  let opts =
    if ctx.Ctx.tiny then options ~node_limit:2 ~probe_budget:20
    else options ~node_limit:32 ~probe_budget:200
  in
  let g, ev =
    Ctx.setup ctx r (fun () ->
        let g = Topologies.b4 () in
        ( g,
          Evaluate.make_dp (pathset_of g)
            ~threshold:(frac *. Graph.max_capacity g) ))
  in
  fig1_gate r;
  let first = ref None and last = ref None in
  let wall =
    untraced_phase ctx r
      ~min_reps:(if ctx.Ctx.tiny then 2 else 3)
      ~run:(fun () -> [ Adversary.find ev ~options:opts () ])
      ~check:(List.concat_map (fun res ->
           last := Some res;
           replay ev res @ same_as_first first "findgap" res))
  in
  Option.iter
    (fun res ->
      Report.notes r
        [
          ("threshold_frac", frac);
          ("gap_norm", res.Adversary.normalized_gap);
          ("bound_norm", Evaluate.normalize ev (bound_of res));
        ])
    !last;
  if ctx.Ctx.trace <> None then
    traced_phase ctx r ~untraced_wall:wall ~instances:[ (g, ev) ]
      ~op:(fun ~detail ->
        let res, p =
          traced_find ?tr:ctx.Ctx.trace ~detail ~name:"findgap" ev opts
        in
        [ (ev, res, p) ])

(* ---- prove-small ---------------------------------------------------- *)

(* DP on star-n proves gap = bound = (n-1)(n-2) x threshold; these
   fractions all take 571k-594k pivots on star-4. *)
let star_fracs = [| 0.05; 0.0575; 0.0625; 0.0425; 0.0475; 0.06 |]

(* POP's partitions are drawn from a fixed seed: on line-4 every
   partition seed proves the same 3000, but proof cost varies 4x between
   them (0.9-3.8 s over seeds 1-16), which would make the wall measure
   the seed instead of the code. *)
let pop_partition_seed = 1

let prove (ctx : Ctx.t) r =
  let frac = Ctx.pick star_fracs ctx.Ctx.seed in
  let n = if ctx.Ctx.tiny then 3 else 4 in
  let star, line =
    Ctx.setup ctx r (fun () ->
        let star = Topologies.star ~n () and line = Topologies.line ~n () in
        ( ( star,
            Evaluate.make_dp (pathset_of star)
              ~threshold:(frac *. Graph.max_capacity star) ),
          ( line,
            Evaluate.make_pop (pathset_of line) ~parts:2 ~instances:2
              ~rng:(Rng.create pop_partition_seed) () ) ))
  in
  let instances = [ star; line ] in
  let maxcap (g, _) = Graph.max_capacity g in
  let expected =
    [
      ( Printf.sprintf "DP on star-%d" n,
        float_of_int ((n - 1) * (n - 2)) *. frac *. maxcap star );
      (Printf.sprintf "POP on line-%d" n, float_of_int (n - 1) *. maxcap line);
    ]
  in
  let firsts = List.map (fun _ -> ref None) instances in
  let check results =
    List.concat
      (List.map2
         (fun ((what, gap), first) ((_, ev), res) ->
           proved ~what ~expected:gap res
           @ replay ev res @ same_as_first first what res)
         (List.combine expected firsts)
         (List.combine instances results))
  in
  let wall =
    untraced_phase ctx r ~min_reps:2
      ~run:(fun () ->
        List.map
          (fun (_, ev) -> Adversary.find ev ~options:proof_options ())
          instances)
      ~check
  in
  Report.notes r [ ("threshold_frac", frac) ];
  if ctx.Ctx.trace <> None then
    traced_phase ctx r ~untraced_wall:wall ~instances
      ~op:(fun ~detail ->
        List.map
          (fun (g, ev) ->
            let res, p =
              traced_find ?tr:ctx.Ctx.trace ~detail
                ~name:("prove." ^ Graph.name g) ev proof_options
            in
            (ev, res, p))
          instances)
