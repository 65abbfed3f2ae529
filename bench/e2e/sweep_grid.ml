(* sweep-grid: the scenario-sweep engine on b4 — 10 DP thresholds x 5
   demand scales x 100 gravity seeds, one pass per rep at jobs 2.

   This is the LP right-hand-side fast path (one shared skeleton,
   ftran-only re-solves, dual simplex when a basis goes infeasible)
   spread over the engine pool in fixed chunks. No branch-and-bound, no
   encoding, no daemon. From outside the sweep exposes only its result
   record, so the traced run has pass-level spans plus separately timed
   skeleton builds and a jobs-1 pass. *)

open Repro_topology
open Repro_te
open Repro_metaopt
module Sweep = Repro_sweep.Scenario_sweep
module Plan = Repro_sweep.Plan
module Shared_lp = Repro_sweep.Shared_lp
module Simplex = Repro_lp.Simplex

let fracs = [| 0.01; 0.02; 0.03; 0.05; 0.07; 0.1; 0.15; 0.2; 0.3; 0.5 |]
let scales = [| 0.25; 0.5; 1.; 1.5; 2. |]

(* The demand seeds are the workload seed's own block of [n] seeds. *)
let plan ~seed ~n g pathset =
  Plan.grid ~space:(Pathset.space pathset)
    ~generator:(Plan.Gravity { total = 0.5 *. Graph.total_capacity g })
    ~thresholds:(Array.map (fun f -> f *. Graph.max_capacity g) fracs)
    ~scales
    ~seeds:(Array.init n (fun i -> ((seed - 1) * n) + i + 1))
    ()

let options ~jobs =
  { Sweep.default_options with Sweep.jobs; chunk = 32; mode = Sweep.Shared_basis }

(* Digest of every scenario's IEEE bits: passes must agree exactly. *)
let digest (res : Sweep.result) =
  let b = Buffer.create 65536 in
  Array.iter
    (function
      | None -> Buffer.add_string b "skipped;"
      | Some s ->
          Printf.bprintf b "%Lx:%s;"
            (Int64.bits_of_float s.Sweep.opt)
            (match s.Sweep.heur with
            | None -> "infeasible"
            | Some h -> Printf.sprintf "%Lx" (Int64.bits_of_float h)))
    res.Sweep.results;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every 97th scenario against the from-scratch oracle. *)
let spot_check r plan pathset (res : Sweep.result) =
  let scenarios = Plan.scenarios plan in
  Array.iteri
    (fun i (sc : Plan.scenario) ->
      if i mod 97 = 0 then
        Report.op r (fun () ->
            match res.Sweep.results.(i) with
            | None -> [ Printf.sprintf "scenario %d skipped" i ]
            | Some s ->
                let ev = Evaluate.make_dp pathset ~threshold:sc.Plan.threshold in
                let d = Plan.demand plan sc in
                let opt = Evaluate.opt_value ev d in
                (if Search.close opt s.Sweep.opt then []
                 else
                   [
                     Printf.sprintf "scenario %d: OPT %.9g, oracle %.9g" i
                       s.Sweep.opt opt;
                   ])
                @
                match (s.Sweep.heur, Evaluate.heuristic_value ev d) with
                | None, None -> []
                | Some h, Some h' when Search.close h h' -> []
                | _ ->
                    [
                      Printf.sprintf
                        "scenario %d: DP value disagrees with the oracle" i;
                    ]))
    scenarios

let run (ctx : Ctx.t) r =
  let tiny = ctx.Ctx.tiny in
  let g, pathset, plan =
    Ctx.setup ctx r (fun () ->
        let g = Topologies.b4 () in
        let pathset = Search.pathset_of g in
        let n = if tiny then 5 else 100 in
        (g, pathset, plan ~seed:ctx.Ctx.seed ~n g pathset))
  in
  let n = Plan.num_scenarios plan in
  let sweep ?tr ~jobs () =
    Measure.span tr (Printf.sprintf "sweep.pass_jobs%d" jobs) (fun () ->
        Sweep.run ~options:(options ~jobs) ~paths:Search.paths pathset plan)
  in
  let first = ref None in
  let check res =
    let d = digest res in
    if !first = None then first := Some d;
    (if res.Sweep.completed = n && res.Sweep.skipped = 0 then []
     else
       [
         Printf.sprintf "completed %d of %d (%d skipped)" res.Sweep.completed n
           res.Sweep.skipped;
       ])
    @
    if Some d = !first then []
    else [ "scenario results differ from the first pass" ]
  in
  let passes ?tr ~jobs ~min_reps () =
    Measure.timed_reps ~seconds:ctx.Ctx.seconds ~min_reps (fun _ ->
        sweep ?tr ~jobs ())
  in
  let untraced, gc = passes ~jobs:2 ~min_reps:(if tiny then 2 else 3) () in
  List.iter (fun (_, res) -> Report.op r (fun () -> check res)) untraced;
  let res = snd (List.hd untraced) in
  spot_check r plan pathset res;
  let walls = List.map fst untraced in
  let wall = Measure.median walls in
  r.Report.rep_walls <- walls;
  Report.e2e r
    [
      ("latency_p50_ms", 1000. *. wall);
      ("answers_per_s", float_of_int n /. wall);
    ];
  Report.layers r gc;
  let lp = res.Sweep.lp_stats in
  Report.counters r
    [
      ("lp.pivots", float_of_int lp.Simplex.iterations);
      ("lp.rhs_ftran", float_of_int lp.Simplex.rhs_ftran);
      ("lp.rhs_dual", float_of_int lp.Simplex.rhs_dual);
      ("lp.refactorizations", float_of_int lp.Simplex.refactorizations);
    ];
  Report.notes r
    [ ("scenarios", float_of_int n); ("reps", float_of_int (List.length walls)) ];
  match ctx.Ctx.trace with
  | None -> ()
  | Some _ as tr ->
      let traced, _ = passes ?tr ~jobs:2 ~min_reps:1 () in
      let serial, _ = passes ?tr ~jobs:1 ~min_reps:1 () in
      List.iter
        (fun (_, res) -> Report.op r (fun () -> check res))
        (traced @ serial);
      let wall2 = Measure.median (List.map fst traced) in
      let wall1 = Measure.median (List.map fst serial) in
      let tries = lp.Simplex.warm_hits + lp.Simplex.warm_misses in
      let count = float_of_int in
      Report.layers r
        [
          ( "topology.pathset_ms",
            Measure.med3_ms tr "topology.pathset" (fun () ->
                Search.pathset_of g) );
          ( "sweep.skeleton_ms",
            Measure.med3_ms tr "sweep.skeleton" (fun () ->
                Shared_lp.build pathset) );
          ("sweep.chunks", count res.Sweep.chunks);
          ("sweep.us_per_scenario", 1e6 *. wall2 /. count n);
          ("sweep.jobs1_scenarios_per_s", count n /. wall1);
          ("engine.parallel_efficiency", wall1 /. (2. *. wall2));
          ("lp.pivots", count lp.Simplex.iterations);
          ("lp.pivots_per_s", count lp.Simplex.iterations /. wall2);
          ("lp.refactorizations", count lp.Simplex.refactorizations);
          ("lp.etas", count lp.Simplex.etas);
          ( "lp.warm_hit_ratio",
            if tries > 0 then count lp.Simplex.warm_hits /. count tries else 0. );
          ("lp.rhs_ftran", count lp.Simplex.rhs_ftran);
          ("lp.rhs_dual", count lp.Simplex.rhs_dual);
          ("trace.overhead_pct", 100. *. ((wall2 /. wall) -. 1.));
        ]
