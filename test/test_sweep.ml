(* lib/sweep: the batched scenario-sweep engine and the LP layer's
   RHS-only re-solve fast path underneath it.

   - qcheck differential: for random bounded LPs and random RHS edits,
     [Backend.resolve_rhs] (ftran-only when the basis survives, dual
     simplex otherwise) must agree with a cold solve of the edited
     model — status, objective and duals — on BOTH backends;
   - a known-answer case forcing each path (pure ftran vs dual
     fallback), checked through [Simplex.stats];
   - sweep equivalence: every scenario's shared-basis OPT/heuristic
     value matches the rebuild oracle ([Evaluate]) on the same demand;
   - determinism: jobs=1 and jobs=4 produce bit-identical results;
   - degradation: a pivot budget or an injected chunk fault yields a
     [`Partial] sweep with every completed scenario flushed to JSONL. *)

open Repro_lp
open Repro_topology
open Repro_te
module Sweep = Repro_sweep.Scenario_sweep
module Plan = Repro_sweep.Plan
module Evaluate = Repro_metaopt.Evaluate
module Deadline = Repro_resilience.Deadline
module Outcome = Repro_resilience.Outcome
module Faults = Repro_resilience.Faults

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* resolve_rhs: known-answer paths                                     *)
(* ------------------------------------------------------------------ *)

let small_lp () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj 12 *)
  let m = Model.create () in
  let x = Model.add_var ~name:"x" m in
  let y = Model.add_var ~name:"y" m in
  let r0 =
    Model.add_constr m (Linexpr.of_terms [ (x, 1.); (y, 1.) ]) Model.Le 4.
  in
  let r1 =
    Model.add_constr m (Linexpr.of_terms [ (x, 1.); (y, 3.) ]) Model.Le 6.
  in
  Model.set_objective m Model.Maximize (Linexpr.of_terms [ (x, 3.); (y, 2.) ]);
  (m, r0, r1)

let test_resolve_rhs_paths kind () =
  let model, r0, r1 = small_lp () in
  let be = Backend.create ~kind (Standard_form.of_model model) in
  let r = Backend.solve_fresh be in
  check_float "fresh objective" 12. r.Simplex.objective;
  (* relaxing the slack row leaves the basis primal feasible: the
     re-solve is a zero-pivot ftran check *)
  Backend.set_rhs be r1 8.;
  let r = Backend.resolve_rhs be in
  Alcotest.(check bool) "ftran optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "objective unchanged" 12. r.Simplex.objective;
  let s = Backend.stats be in
  Alcotest.(check int) "one ftran-only re-solve" 1 s.Simplex.rhs_ftran;
  Alcotest.(check int) "no dual fallback yet" 0 s.Simplex.rhs_dual;
  (* shrinking the slack row below x's basic value drives its slack
     negative (s1 = 3 - 4), forcing the dual-simplex fallback;
     x + 3y <= 3 -> x=3, y=0, obj 9 *)
  Backend.set_rhs be r1 3.;
  let r = Backend.resolve_rhs be in
  Alcotest.(check bool) "dual optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "re-optimized objective" 9. r.Simplex.objective;
  check_float "x" 3. r.Simplex.primal.(0);
  let s = Backend.stats be in
  Alcotest.(check int) "dual fallback counted" 1 s.Simplex.rhs_dual;
  (* get_rhs reads back the per-state copy; untouched rows keep the
     standard form's value *)
  check_float "get_rhs edited" 3. (Backend.get_rhs be r1);
  check_float "get_rhs untouched" 4. (Backend.get_rhs be r0)

(* ------------------------------------------------------------------ *)
(* resolve_rhs: qcheck differential vs cold solves                     *)
(* ------------------------------------------------------------------ *)

(* Random bounded LPs (mixed senses, general bounds) plus a few rounds
   of random RHS edits. Mirrors test_lp_backends' generator; the box
   rows keep every instance bounded, so a status change can only be
   Optimal <-> Infeasible. *)
let random_rhs_instance_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* m = int_range 1 6 in
    let* a = array_size (return (m * n)) (float_range (-5.) 5.) in
    let* senses = array_size (return m) (int_range 0 2) in
    let* b = array_size (return m) (float_range (-3.) 8.) in
    let* c = array_size (return n) (float_range (-5.) 5.) in
    let* lb = array_size (return n) (float_range (-4.) 0.) in
    let* ub = array_size (return n) (float_range 0.5 10.) in
    let* rounds = int_range 1 4 in
    let* deltas =
      array_size (return (rounds * m)) (float_range (-2.5) 2.5)
    in
    return (n, m, a, senses, b, c, lb, ub, rounds, deltas))

let build_rhs_lp (n, m, a, senses, b, c, lb, ub, _, _) =
  let model = Model.create () in
  let xs = Array.init n (fun j -> Model.add_var ~lb:lb.(j) ~ub:ub.(j) model) in
  let rows =
    Array.init m (fun i ->
        let expr =
          Linexpr.of_terms (List.init n (fun j -> (xs.(j), a.((i * n) + j))))
        in
        let sense =
          match senses.(i) with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq
        in
        Model.add_constr model expr sense b.(i))
  in
  ignore
    (Model.add_constr model
       (Linexpr.of_terms (List.init n (fun j -> (xs.(j), 1.))))
       Model.Le 200.);
  ignore
    (Model.add_constr model
       (Linexpr.of_terms (List.init n (fun j -> (xs.(j), -1.))))
       Model.Le 200.);
  Model.set_objective model Model.Maximize
    (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
  (model, rows)

let rhs_resolve_matches_cold kind =
  QCheck.Test.make ~count:200
    ~name:
      (Printf.sprintf "resolve_rhs matches cold solves (%s backend)"
         (Backend.kind_to_string kind))
    (QCheck.make random_rhs_instance_gen)
    (fun ((_, m, _, _, b, _, _, _, rounds, deltas) as inst) ->
      let model, rows = build_rhs_lp inst in
      let warm = Backend.create ~kind (Standard_form.of_model model) in
      ignore (Backend.solve_fresh warm);
      for round = 0 to rounds - 1 do
        (* one warm path: edit the live state's RHS and resolve_rhs;
           one cold path: edit the model and rebuild from scratch *)
        for i = 0 to m - 1 do
          let rhs = b.(i) +. deltas.((round * m) + i) in
          Backend.set_rhs warm rows.(i) rhs;
          Model.set_constr_rhs model rows.(i) rhs
        done;
        let w = Backend.resolve_rhs warm in
        let cold = Backend.create ~kind (Standard_form.of_model model) in
        let c = Backend.solve_fresh cold in
        if w.Simplex.status <> c.Simplex.status then
          QCheck.Test.fail_reportf "round %d: status warm %s cold %s" round
            (Fmt.str "%a" Simplex.pp_status w.Simplex.status)
            (Fmt.str "%a" Simplex.pp_status c.Simplex.status);
        match w.Simplex.status with
        | Simplex.Optimal ->
            let close what k a b =
              if Float.abs (a -. b) > 1e-6 *. (1. +. Float.abs a) then
                QCheck.Test.fail_reportf "round %d: %s %d: warm %.12g cold %.12g"
                  round what k a b
            in
            close "objective" 0 w.Simplex.objective c.Simplex.objective;
            Array.iteri (fun i v -> close "dual" i v w.Simplex.duals.(i))
              c.Simplex.duals;
            let v = Model.max_violation model w.Simplex.primal in
            if v > 1e-5 then
              QCheck.Test.fail_reportf "round %d: warm primal infeasible: %.3g"
                round v
        | _ -> ()
      done;
      true)

(* ------------------------------------------------------------------ *)
(* resolve_rhs_batch: qcheck differential vs scalar resolve_rhs        *)
(* ------------------------------------------------------------------ *)

(* The batched kernel's contract is bitwise: handing K RHS vectors to
   one [resolve_rhs_batch] call must reproduce K sequential
   [resolve_rhs] calls exactly — statuses, objectives, duals, primal —
   on both backends. Reuses the RHS-edit generator; each round becomes
   one batch column. *)
let rhs_batch_matches_scalar kind =
  QCheck.Test.make ~count:200
    ~name:
      (Printf.sprintf "resolve_rhs_batch == scalar resolve_rhs (%s backend)"
         (Backend.kind_to_string kind))
    (QCheck.make random_rhs_instance_gen)
    (fun ((_, m, _, _, b, _, _, _, rounds, deltas) as inst) ->
      let model, rows = build_rhs_lp inst in
      let sf = Standard_form.of_model model in
      let scalar = Backend.create ~kind sf in
      let batch = Backend.create ~kind sf in
      ignore (Backend.solve_fresh scalar);
      ignore (Backend.solve_fresh batch);
      let nrows = Backend.num_rows batch in
      let base = Array.init nrows (Backend.get_rhs batch) in
      let vecs =
        Array.init rounds (fun r ->
            let v = Array.copy base in
            for i = 0 to m - 1 do
              v.(rows.(i)) <- b.(i) +. deltas.((r * m) + i)
            done;
            v)
      in
      let bsols = Backend.resolve_rhs_batch batch vecs in
      if Array.length bsols <> rounds then
        QCheck.Test.fail_reportf "batch returned %d of %d solutions"
          (Array.length bsols) rounds;
      Array.iteri
        (fun r v ->
          for i = 0 to m - 1 do
            Backend.set_rhs scalar rows.(i) v.(rows.(i))
          done;
          let s = Backend.resolve_rhs scalar in
          let bsol = bsols.(r) in
          if s.Simplex.status <> bsol.Simplex.status then
            QCheck.Test.fail_reportf "column %d: status scalar %s batch %s" r
              (Fmt.str "%a" Simplex.pp_status s.Simplex.status)
              (Fmt.str "%a" Simplex.pp_status bsol.Simplex.status);
          let same what k a b =
            if Int64.bits_of_float a <> Int64.bits_of_float b then
              QCheck.Test.fail_reportf
                "column %d: %s %d: scalar %.17g batch %.17g" r what k a b
          in
          match s.Simplex.status with
          | Simplex.Optimal ->
              same "objective" 0 s.Simplex.objective bsol.Simplex.objective;
              Array.iteri
                (fun i d -> same "dual" i d bsol.Simplex.duals.(i))
                s.Simplex.duals;
              Array.iteri
                (fun j p -> same "primal" j p bsol.Simplex.primal.(j))
                s.Simplex.primal
          | _ -> ())
        vecs;
      true)

(* Known-answer batch with a forced dual-fallback peel in the middle:
   column 0 keeps the basis primal feasible (pure ftran), column 1
   shrinks the slack row below the basic value (dual fallback peel),
   column 2 restores it — exercising a restart after the peel. *)
let test_rhs_batch_peel kind () =
  let model, _r0, r1 = small_lp () in
  let be = Backend.create ~kind (Standard_form.of_model model) in
  let r = Backend.solve_fresh be in
  check_float "fresh objective" 12. r.Simplex.objective;
  let nrows = Backend.num_rows be in
  let base = Array.init nrows (Backend.get_rhs be) in
  let vec rhs1 =
    let v = Array.copy base in
    v.(r1) <- rhs1;
    v
  in
  let sols = Backend.resolve_rhs_batch be [| vec 8.; vec 3.; vec 8. |] in
  Alcotest.(check int) "three solutions" 3 (Array.length sols);
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        "optimal" true
        (s.Simplex.status = Simplex.Optimal))
    sols;
  check_float "relaxed column rides the basis" 12. sols.(0).Simplex.objective;
  check_float "tightened column re-optimizes" 9. sols.(1).Simplex.objective;
  check_float "restored column recovers" 12. sols.(2).Simplex.objective;
  let s = Backend.stats be in
  Alcotest.(check bool) "batched kernel ran" true (s.Simplex.rhs_batch >= 1);
  Alcotest.(check bool) "fast-path column counted" true
    (s.Simplex.rhs_batch_cols >= 1);
  Alcotest.(check bool) "peel counted" true (s.Simplex.rhs_peeled >= 1);
  Alcotest.(check bool) "peel took the dual fallback" true
    (s.Simplex.rhs_dual >= 1)

(* ------------------------------------------------------------------ *)
(* sweep: equivalence with the rebuild oracle                          *)
(* ------------------------------------------------------------------ *)

let abilene_pathset () =
  let g = Topologies.abilene () in
  (g, Pathset.compute (Demand.full_space g) ~k:2)

let test_plan () =
  let g, pathset = abilene_pathset () in
  let maxcap = Graph.max_capacity g in
  ( pathset,
    Plan.grid
      ~space:(Pathset.space pathset)
      ~generator:(Plan.Gravity { total = 0.4 *. Graph.total_capacity g })
      ~thresholds:[| 0.02 *. maxcap; 0.1 *. maxcap; 0.5 *. maxcap |]
      ~scales:[| 0.5; 1.5 |]
      ~seeds:[| 1; 2; 3 |]
      ~perturbs:
        [| None; Some { Plan.pseed = 0; fraction = 0.3; level = 0.9 } |]
      () )

let sweep_options jobs =
  {
    Sweep.jobs;
    chunk = 5;
    backend = None;
    mode = Sweep.Shared_basis;
    deadline = None;
    cache = None;
    jsonl = None;
    batch_rhs = false;
    basis_store = None;
  }

let test_sweep_matches_evaluate () =
  let pathset, plan = test_plan () in
  let r = Sweep.run ~options:(sweep_options 1) ~paths:2 pathset plan in
  Alcotest.(check int) "all completed" (Plan.num_scenarios plan)
    r.Sweep.completed;
  Alcotest.(check bool) "outcome complete" true (r.Sweep.outcome = `Complete);
  Array.iter
    (function
      | None -> Alcotest.fail "scenario missing"
      | Some sr ->
          let s = sr.Sweep.scenario in
          let d = Plan.demand plan s in
          let ev =
            Evaluate.make_dp pathset ~threshold:s.Plan.threshold
          in
          check_float
            (Fmt.str "opt of %a" Plan.pp_scenario s)
            (Evaluate.opt_value ev d) sr.Sweep.opt;
          (match (Evaluate.heuristic_value ev d, sr.Sweep.heur) with
          | None, None -> ()
          | Some hv, Some h ->
              check_float (Fmt.str "heur of %a" Plan.pp_scenario s) hv h
          | None, Some _ | Some _, None ->
              Alcotest.failf "heuristic feasibility differs at %a"
                Plan.pp_scenario s))
    r.Sweep.results;
  (* the fast path actually engaged: consecutive same-demand scenarios
     re-solve OPT by ftran only *)
  Alcotest.(check bool) "ftran path used" true
    (r.Sweep.lp_stats.Simplex.rhs_ftran > 0)

let result_key = function
  | None -> "skipped"
  | Some sr ->
      Printf.sprintf "%Lx:%s"
        (Int64.bits_of_float sr.Sweep.opt)
        (match sr.Sweep.heur with
        | None -> "inf"
        | Some h -> Printf.sprintf "%Lx" (Int64.bits_of_float h))

let test_sweep_jobs_deterministic () =
  let pathset, plan = test_plan () in
  let serial = Sweep.run ~options:(sweep_options 1) ~paths:2 pathset plan in
  let par = Sweep.run ~options:(sweep_options 4) ~paths:2 pathset plan in
  Alcotest.(check int) "parallel completed" serial.Sweep.completed
    par.Sweep.completed;
  Array.iteri
    (fun i a ->
      Alcotest.(check string)
        (Printf.sprintf "scenario %d bit-identical" i)
        (result_key a) (result_key par.Sweep.results.(i)))
    serial.Sweep.results

(* --batch-rhs is a pure kernel swap: cacheless sweeps with the toggle
   on and off must agree bitwise, scenario by scenario, and the batched
   run must actually have used the batched kernel *)
let test_sweep_batch_toggle_deterministic () =
  let pathset, plan = test_plan () in
  let scalar = Sweep.run ~options:(sweep_options 1) ~paths:2 pathset plan in
  let batched =
    Sweep.run
      ~options:{ (sweep_options 1) with Sweep.batch_rhs = true }
      ~paths:2 pathset plan
  in
  Alcotest.(check int) "batched completed" scalar.Sweep.completed
    batched.Sweep.completed;
  Alcotest.(check bool) "batched kernel engaged" true
    (batched.Sweep.lp_stats.Simplex.rhs_batch > 0);
  Alcotest.(check int) "scalar ran no batches" 0
    scalar.Sweep.lp_stats.Simplex.rhs_batch;
  Array.iteri
    (fun i a ->
      Alcotest.(check string)
        (Printf.sprintf "scenario %d bit-identical across toggle" i)
        (result_key a)
        (result_key batched.Sweep.results.(i)))
    scalar.Sweep.results

(* cross-sweep snapshot store: a cold sweep publishes its final bases to
   the journal; a second sweep over a fresh store replayed from the same
   journal warm-starts from them and must agree bitwise *)
let test_sweep_basis_store_round_trip () =
  let pathset, plan = test_plan () in
  let path = Filename.temp_file "repro-basis-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let run store =
        Sweep.run
          ~options:
            {
              (sweep_options 1) with
              Sweep.batch_rhs = true;
              basis_store = Some store;
            }
          ~paths:2 pathset plan
      in
      let store = Repro_serve.Basis_store.create () in
      (match Repro_serve.Basis_store.with_journal store ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "journal attach: %s" e);
      let cold = run store in
      Alcotest.(check int) "cold run found nothing to install" 0
        cold.Sweep.basis_warm_hits;
      (* per-chunk keying stores an (opt, heur) pair for every chunk,
         plus the sweep-final pair under the role-only keys *)
      let st = Repro_serve.Basis_store.stats store in
      Alcotest.(check bool) "chunk pairs and sweep-final pair published" true
        (st.Repro_serve.Basis_store.stores >= 4
        && st.Repro_serve.Basis_store.stores mod 2 = 0);
      Repro_serve.Basis_store.close store;
      let store2 = Repro_serve.Basis_store.create () in
      (match Repro_serve.Basis_store.with_journal store2 ~path with
      | Ok replayed ->
          Alcotest.(check bool) "journal replayed entries" true (replayed > 0)
      | Error e -> Alcotest.failf "journal replay: %s" e);
      let warm = run store2 in
      Repro_serve.Basis_store.close store2;
      Alcotest.(check bool) "warm run installed snapshots" true
        (warm.Sweep.basis_warm_hits > 0);
      (* warm-starting changes the pivot path, so cold and warm agree
         to LP tolerance, not bitwise (only the jobs and --batch-rhs
         toggles carry the bitwise guarantee) *)
      Array.iteri
        (fun i a ->
          match (a, warm.Sweep.results.(i)) with
          | Some c, Some w ->
              check_float (Printf.sprintf "scenario %d opt cold vs warm" i)
                c.Sweep.opt w.Sweep.opt;
              (match (c.Sweep.heur, w.Sweep.heur) with
              | None, None -> ()
              | Some ch, Some wh ->
                  check_float
                    (Printf.sprintf "scenario %d heur cold vs warm" i)
                    ch wh
              | _ ->
                  Alcotest.failf
                    "scenario %d: heuristic feasibility differs" i)
          | _ -> Alcotest.failf "scenario %d missing" i)
        cold.Sweep.results)

let test_sweep_cache_hits () =
  let pathset, plan = test_plan () in
  let cache = Repro_serve.Solve_cache.create () in
  let options cache = { (sweep_options 1) with Sweep.cache } in
  let first = Sweep.run ~options:(options (Some cache)) ~paths:2 pathset plan in
  (* first run: opt values repeat across thresholds but every (demand,
     threshold) pair is new, so no scenario is answered entirely from
     the cache *)
  Alcotest.(check int) "first run solves every scenario" 0
    first.Sweep.from_cache;
  let r = Sweep.run ~options:(options (Some cache)) ~paths:2 pathset plan in
  Alcotest.(check bool) "warm re-run all cached" true
    (Array.for_all
       (function
         | Some sr -> sr.Sweep.cached_opt && sr.Sweep.cached_heur
         | None -> false)
       r.Sweep.results);
  Alcotest.(check int) "warm re-run counted as cache-served"
    r.Sweep.completed r.Sweep.from_cache;
  (* cached values agree with a cacheless run (to tolerance, not
     bitwise: a cached OPT may have been computed at a different
     warm-start point since the cache is shared across thresholds) *)
  let cold = Sweep.run ~options:(sweep_options 1) ~paths:2 pathset plan in
  Array.iteri
    (fun i a ->
      match (a, r.Sweep.results.(i)) with
      | Some c, Some w ->
          check_float
            (Printf.sprintf "cached scenario %d opt" i)
            c.Sweep.opt w.Sweep.opt;
          (match (c.Sweep.heur, w.Sweep.heur) with
          | None, None -> ()
          | Some ch, Some wh ->
              check_float (Printf.sprintf "cached scenario %d heur" i) ch wh
          | _ ->
              Alcotest.failf "scenario %d: heuristic feasibility differs" i)
      | _ -> Alcotest.failf "scenario %d missing" i)
    cold.Sweep.results

(* ------------------------------------------------------------------ *)
(* sweep: degradation (deadline, chunk faults) + JSONL streaming       *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let with_temp_jsonl f =
  let path = Filename.temp_file "repro-sweep-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_sweep_deadline_partial () =
  let pathset, plan = test_plan () in
  with_temp_jsonl (fun path ->
      (* a pivot budget big enough to finish the first scenarios and far
         too small for all 36: the sweep must degrade, not die *)
      let deadline = Deadline.create ~pivots:400 () in
      let options =
        {
          (sweep_options 1) with
          Sweep.deadline = Some deadline;
          jsonl = Some path;
        }
      in
      let r = Sweep.run ~options ~paths:2 pathset plan in
      Alcotest.(check bool) "some scenarios completed" true
        (r.Sweep.completed > 0);
      Alcotest.(check bool) "some scenarios skipped" true (r.Sweep.skipped > 0);
      (match r.Sweep.outcome with
      | `Partial Outcome.Pivot_budget -> ()
      | `Partial reason ->
          Alcotest.failf "wrong partial reason: %s"
            (Outcome.reason_to_string reason)
      | `Complete -> Alcotest.fail "budgeted sweep reported complete");
      Alcotest.(check int) "every completed scenario flushed to JSONL"
        r.Sweep.completed (count_lines path))

let test_sweep_chunk_fault_partial () =
  let pathset, plan = test_plan () in
  with_temp_jsonl (fun path ->
      Fun.protect ~finally:Faults.disarm (fun () ->
          (* kill exactly one chunk; the other chunks must still land *)
          Faults.arm ~seed:7
            ~points:[ ("sweep_chunk", { Faults.prob = 1.; limit = Some 1 }) ];
          let options =
            { (sweep_options 1) with Sweep.jsonl = Some path }
          in
          let r = Sweep.run ~options ~paths:2 pathset plan in
          let n = Plan.num_scenarios plan in
          Alcotest.(check int) "one chunk of 5 lost" (n - 5) r.Sweep.completed;
          (match r.Sweep.outcome with
          | `Partial (Outcome.Worker_lost 1) -> ()
          | _ -> Alcotest.fail "expected Worker_lost 1 partial outcome");
          Alcotest.(check int) "surviving chunks flushed" r.Sweep.completed
            (count_lines path)))

(* the --verbose counters line: every fast-path and presolve field must
   appear by name with its value (CI greps for them) *)
let test_verbose_stats_line () =
  let s =
    {
      Simplex.iterations = 9;
      refactorizations = 2;
      etas = 7;
      warm_hits = 4;
      warm_misses = 1;
      rhs_ftran = 11;
      rhs_dual = 3;
      rhs_batch = 7;
      rhs_batch_cols = 10;
      rhs_peeled = 1;
      presolve_rows = 5;
      presolve_cols = 6;
    }
  in
  let line = Sweep.verbose_stats_line s in
  let contains needle =
    let n = String.length needle and h = String.length line in
    let rec go i = i + n <= h && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun field ->
      if not (contains field) then
        Alcotest.failf "field %S missing from %S" field line)
    [
      "rhs_ftran=11"; "rhs_dual=3"; "rhs_batch=7"; "rhs_batch_cols=10";
      "rhs_peeled=1"; "refactorizations=2"; "etas=7";
      "warm_hits=4"; "warm_misses=1"; "presolve_rows=5"; "presolve_cols=6";
    ]

(* ------------------------------------------------------------------ *)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "repro_sweep"
    [
      ( "resolve_rhs",
        [
          Alcotest.test_case "known-answer paths (sparse)" `Quick
            (test_resolve_rhs_paths Backend.Sparse);
          Alcotest.test_case "known-answer paths (dense)" `Quick
            (test_resolve_rhs_paths Backend.Dense);
        ] );
      qsuite "resolve_rhs_differential"
        [
          rhs_resolve_matches_cold Backend.Sparse;
          rhs_resolve_matches_cold Backend.Dense;
        ];
      ( "resolve_rhs_batch",
        [
          Alcotest.test_case "dual-fallback peel (sparse)" `Quick
            (test_rhs_batch_peel Backend.Sparse);
          Alcotest.test_case "dual-fallback peel (dense)" `Quick
            (test_rhs_batch_peel Backend.Dense);
        ] );
      qsuite "resolve_rhs_batch_differential"
        [
          rhs_batch_matches_scalar Backend.Sparse;
          rhs_batch_matches_scalar Backend.Dense;
        ];
      ( "sweep",
        [
          Alcotest.test_case "matches the rebuild oracle" `Quick
            test_sweep_matches_evaluate;
          Alcotest.test_case "jobs=1 equals jobs=4 bitwise" `Quick
            test_sweep_jobs_deterministic;
          Alcotest.test_case "batch toggle is bit-identical" `Quick
            test_sweep_batch_toggle_deterministic;
          Alcotest.test_case "basis snapshot store round trip" `Quick
            test_sweep_basis_store_round_trip;
          Alcotest.test_case "solve cache round trip" `Quick
            test_sweep_cache_hits;
          Alcotest.test_case "pivot budget degrades to partial" `Quick
            test_sweep_deadline_partial;
          Alcotest.test_case "chunk fault degrades to partial" `Quick
            test_sweep_chunk_fault_partial;
          Alcotest.test_case "verbose stats line fields" `Quick
            test_verbose_stats_line;
        ] );
    ]
