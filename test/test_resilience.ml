(* Resilience layer: deadlines, fault injection, retry, breaker, pool
   supervision, scheduler deadlines — and the solver stack under chaos.

   Fault points are process-global, so every test that arms them must
   disarm on exit (the [with_faults] wrapper); alcotest runs test cases
   sequentially, so there is no cross-test race. *)

open Repro_lp
module R = Repro_resilience
module O = R.Outcome
module Pool = Repro_engine.Pool

let with_faults ~seed points f =
  R.Faults.arm ~seed ~points;
  Fun.protect ~finally:R.Faults.disarm f

(* ------------------------------------------------------------------ *)
(* Deadline                                                            *)
(* ------------------------------------------------------------------ *)

let test_deadline_wall () =
  let d = R.Deadline.create ~wall:0.02 () in
  Alcotest.(check bool) "fresh deadline alive" false (R.Deadline.expired d);
  Unix.sleepf 0.03;
  Alcotest.(check bool) "wall budget trips" true (R.Deadline.expired d);
  Alcotest.(check bool)
    "wall trip reported" true
    (R.Deadline.tripped d = Some R.Deadline.Wall)

let test_deadline_counters () =
  let d = R.Deadline.create ~pivots:10 () in
  R.Deadline.charge_pivots d 5;
  Alcotest.(check bool) "under budget" false (R.Deadline.expired d);
  R.Deadline.charge_pivots d 6;
  Alcotest.(check bool) "pivot budget trips" true (R.Deadline.expired d);
  Alcotest.(check bool)
    "pivot trip reported" true
    (R.Deadline.tripped d = Some R.Deadline.Pivots);
  let d = R.Deadline.create ~nodes:2 () in
  R.Deadline.charge_node d;
  R.Deadline.charge_node d;
  R.Deadline.charge_node d;
  Alcotest.(check bool) "node budget trips" true (R.Deadline.expired d);
  Alcotest.(check bool)
    "node trip reported" true
    (R.Deadline.tripped d = Some R.Deadline.Nodes)

let test_deadline_first_trip_latched () =
  let d = R.Deadline.create ~pivots:1 ~nodes:1 () in
  R.Deadline.charge_pivots d 2;
  ignore (R.Deadline.expired d);
  R.Deadline.charge_node d;
  R.Deadline.charge_node d;
  ignore (R.Deadline.expired d);
  Alcotest.(check bool)
    "first trip stays latched" true
    (R.Deadline.tripped d = Some R.Deadline.Pivots)

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let test_faults_deterministic () =
  let draw () =
    with_faults ~seed:42
      [ ("p", { R.Faults.prob = 0.5; limit = None }) ]
      (fun () -> List.init 100 (fun _ -> R.Faults.fires "p"))
  in
  let a = draw () and b = draw () in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  Alcotest.(check bool)
    "prob 0.5 actually fires sometimes" true
    (List.mem true a && List.mem false a)

let test_faults_limit () =
  with_faults ~seed:1
    [ ("kill", { R.Faults.prob = 1.; limit = Some 2 }) ]
    (fun () ->
      let fired =
        List.length (List.filter Fun.id (List.init 10 (fun _ -> R.Faults.fires "kill")))
      in
      Alcotest.(check int) "limit caps fires" 2 fired;
      Alcotest.(check int) "fired counter" 2 (R.Faults.fired "kill"));
  Alcotest.(check bool) "disarmed after" false (R.Faults.armed ());
  Alcotest.(check bool) "unarmed point never fires" false (R.Faults.fires "kill")

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let test_retry_delay_pure () =
  let p = R.Retry.default_policy in
  for attempt = 0 to 5 do
    let d1 = R.Retry.delay p ~seed:7 ~attempt in
    let d2 = R.Retry.delay p ~seed:7 ~attempt in
    Alcotest.(check (float 0.)) "delay is pure" d1 d2;
    Alcotest.(check bool) "delay bounded" true (d1 >= 0. && d1 <= p.R.Retry.max_delay)
  done;
  Alcotest.(check bool)
    "different seeds decorrelate" true
    (R.Retry.delay p ~seed:1 ~attempt:3 <> R.Retry.delay p ~seed:2 ~attempt:3)

let test_retry_run () =
  let sleeps = ref [] in
  let sleep d = sleeps := d :: !sleeps in
  let calls = ref 0 in
  let result =
    R.Retry.run ~seed:5 ~sleep
      ~retryable:(fun e -> e = `Transient)
      (fun ~attempt:_ ->
        incr calls;
        if !calls < 3 then Error `Transient else Ok !calls)
  in
  Alcotest.(check bool) "succeeds on third attempt" true (result = Ok 3);
  Alcotest.(check int) "two backoff sleeps" 2 (List.length !sleeps);
  (* a fatal error must return immediately, no sleeps *)
  sleeps := [];
  let result =
    R.Retry.run ~seed:5 ~sleep
      ~retryable:(fun e -> e = `Transient)
      (fun ~attempt:_ -> Error `Fatal)
  in
  Alcotest.(check bool) "fatal not retried" true (result = Error `Fatal);
  Alcotest.(check int) "no sleeps for fatal" 0 (List.length !sleeps)

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)
(* ------------------------------------------------------------------ *)

let test_breaker_cycle () =
  let b =
    R.Breaker.create ~window:8 ~min_samples:4 ~failure_rate:0.5
      ~cooldown_s:0.05 ()
  in
  Alcotest.(check bool) "starts closed" true (R.Breaker.state b = R.Breaker.Closed);
  for _ = 1 to 4 do
    R.Breaker.record b ~ok:false ~latency_s:0.01
  done;
  Alcotest.(check bool) "opens on failures" true (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check bool) "open sheds" true (R.Breaker.admit b = R.Breaker.Shed);
  Unix.sleepf 0.06;
  Alcotest.(check bool)
    "half-open probe after cooldown" true
    (R.Breaker.admit b = R.Breaker.Probe);
  (* while the probe is out, other callers are still shed *)
  Alcotest.(check bool)
    "concurrent callers shed during probe" true
    (R.Breaker.admit b = R.Breaker.Shed);
  R.Breaker.record b ~ok:true ~latency_s:0.01;
  Alcotest.(check bool) "probe success closes" true (R.Breaker.state b = R.Breaker.Closed);
  Alcotest.(check bool) "closed admits" true (R.Breaker.admit b = R.Breaker.Admit)

let test_breaker_probe_failure_reopens () =
  let b =
    R.Breaker.create ~window:8 ~min_samples:4 ~failure_rate:0.5
      ~cooldown_s:0.05 ()
  in
  for _ = 1 to 4 do
    R.Breaker.record b ~ok:false ~latency_s:0.01
  done;
  Unix.sleepf 0.06;
  Alcotest.(check bool) "probe admitted" true (R.Breaker.admit b = R.Breaker.Probe);
  R.Breaker.record b ~ok:false ~latency_s:0.01;
  Alcotest.(check bool) "probe failure reopens" true (R.Breaker.state b = R.Breaker.Open)

(* ------------------------------------------------------------------ *)
(* Solver under budgets                                                *)
(* ------------------------------------------------------------------ *)

(* A little LP that needs several pivots: maximize a sum under coupled
   capacity rows. *)
let multi_pivot_lp () =
  let m = Model.create () in
  let xs = Model.add_vars m 4 in
  Array.iter
    (fun x -> ignore (Model.add_constr m (Linexpr.var x) Model.Le 3.))
    xs;
  ignore
    (Model.add_constr m
       (Linexpr.of_terms (Array.to_list (Array.map (fun x -> (x, 1.)) xs)))
       Model.Le 8.);
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms (List.init 4 (fun i -> (xs.(i), float_of_int (i + 1)))));
  m

let test_lp_pivot_budget () =
  let full = Solver.solve_lp (multi_pivot_lp ()) in
  Alcotest.(check bool) "reference solves" true (full.Solver.status = Simplex.Optimal);
  Alcotest.(check bool) "reference needs pivots" true (full.Solver.iterations > 1);
  let d = R.Deadline.create ~pivots:1 () in
  let r = Solver.solve_lp ~deadline:d (multi_pivot_lp ()) in
  Alcotest.(check bool)
    "pivot budget truncates" true
    (r.Solver.status = Simplex.Iteration_limit);
  Alcotest.(check bool)
    "trip recorded" true
    (R.Deadline.tripped d = Some R.Deadline.Pivots)

(* Fixed knapsack-style MILP, hard enough to have a real tree. *)
let knapsack_milp n =
  let m = Model.create () in
  let xs = Model.add_vars ~kind:Model.Binary m n in
  let weight i = float_of_int ((17 * i mod 23) + 5) in
  let value i = weight i +. float_of_int (i mod 7) in
  ignore
    (Model.add_constr m
       (Linexpr.of_terms (List.init n (fun i -> (xs.(i), weight i))))
       Model.Le
       (0.4 *. Float.of_int n *. 16.));
  ignore
    (Model.add_constr m
       (Linexpr.of_terms (List.init n (fun i -> (xs.(i), 1.))))
       Model.Le (Float.of_int n /. 2.));
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms (List.init n (fun i -> (xs.(i), value i))));
  m

(* Market-split instance: m equality rows over n binaries with
   pseudo-random coefficients. Notoriously hard for branch-and-bound —
   proving anything takes far longer than the deadlines used below. *)
let market_split_milp ~n ~m =
  let model = Model.create () in
  let xs = Model.add_vars ~kind:Model.Binary model n in
  let a i j =
    float_of_int
      ((((i + 1) * 37 * (j + 3)) + (j * j * 11) + (i * j * j * j * 7)) mod 100)
  in
  for i = 0 to m - 1 do
    let row_sum = ref 0. in
    for j = 0 to n - 1 do
      row_sum := !row_sum +. a i j
    done;
    ignore
      (Model.add_constr model
         (Linexpr.of_terms (List.init n (fun j -> (xs.(j), a i j))))
         Model.Eq
         (Float.of_int (int_of_float (!row_sum /. 2.))))
  done;
  Model.set_objective model Model.Maximize
    (Linexpr.of_terms (List.init n (fun j -> (xs.(j), 1.))));
  model

let serial_opts = { Branch_bound.default_options with jobs = 1 }

let check_sound_outcome ~name ~true_opt outcome =
  match outcome with
  | O.Complete r ->
      Alcotest.(check bool)
        (name ^ ": complete matches reference") true
        (Float.abs (r.Branch_bound.objective -. true_opt)
        <= 1e-6 *. (1. +. Float.abs true_opt))
  | O.Feasible_bound { incumbent; proven_bound; _ } ->
      Alcotest.(check bool)
        (name ^ ": incumbent <= proven bound") true
        (incumbent <= proven_bound +. 1e-6);
      Alcotest.(check bool)
        (name ^ ": incumbent is achievable") true
        (incumbent <= true_opt +. 1e-6);
      Alcotest.(check bool)
        (name ^ ": proven bound covers the optimum") true
        (proven_bound >= true_opt -. 1e-6)
  | O.Degraded { result; _ } ->
      Option.iter
        (fun r ->
          Alcotest.(check bool)
            (name ^ ": degraded bound covers the optimum") true
            (r.Branch_bound.best_bound >= true_opt -. 1e-6))
        result
  | O.Failed e -> Alcotest.failf "%s: failed: %s" name (O.error_to_string e)

let test_bb_node_budget () =
  let model = knapsack_milp 14 in
  let reference = Solver.solve ~options:serial_opts (knapsack_milp 14) in
  Alcotest.(check bool)
    "reference optimal" true
    (reference.Branch_bound.outcome = Branch_bound.Optimal);
  let d = R.Deadline.create ~nodes:2 () in
  let outcome = Solver.solve_bounded ~options:serial_opts ~deadline:d model in
  Alcotest.(check bool)
    "node budget stops early" true
    (match outcome with O.Complete _ -> false | _ -> true);
  (match outcome with
  | O.Feasible_bound { reason; _ } | O.Degraded { reason; _ } ->
      Alcotest.(check bool) "reason is the node budget" true (reason = O.Node_budget)
  | _ -> ());
  check_sound_outcome ~name:"node budget"
    ~true_opt:reference.Branch_bound.objective outcome

let test_bb_wall_deadline_2x () =
  let wall = 0.15 in
  let model = market_split_milp ~n:30 ~m:3 in
  let d = R.Deadline.create ~wall () in
  let t0 = Unix.gettimeofday () in
  let outcome = Solver.solve_bounded ~options:serial_opts ~deadline:d model in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned within 2x deadline (%.3fs)" elapsed)
    true
    (elapsed <= 2. *. wall);
  (* the instance is big enough that the budget must have tripped *)
  (match outcome with
  | O.Complete _ -> Alcotest.fail "expected the wall budget to trip"
  | O.Feasible_bound { incumbent; proven_bound; reason; _ } ->
      Alcotest.(check bool) "wall reason" true (reason = O.Wall_deadline);
      Alcotest.(check bool)
        "incumbent <= proven bound" true
        (incumbent <= proven_bound +. 1e-6)
  | O.Degraded { reason; _ } ->
      Alcotest.(check bool) "wall reason" true (reason = O.Wall_deadline)
  | O.Failed e -> Alcotest.failf "failed: %s" (O.error_to_string e));
  Alcotest.(check bool)
    "deadline latched the wall trip" true
    (R.Deadline.tripped d = Some R.Deadline.Wall)

(* The fault point sits in the tree-search worker, so a lone worker
   (jobs = 1, run inline) dies the same way one of four does. *)
let test_bb_worker_death_degrades () =
  let reference = Solver.solve ~options:serial_opts (knapsack_milp 14) in
  List.iter
    (fun jobs ->
      with_faults ~seed:3
        [ ("worker_death", { R.Faults.prob = 1.; limit = Some 1 }) ]
        (fun () ->
          let name = Printf.sprintf "worker death (jobs=%d)" jobs in
          let outcome =
            Solver.solve_bounded
              ~options:{ Branch_bound.default_options with jobs }
              (knapsack_milp 14)
          in
          let lost reason =
            Alcotest.(check bool)
              (name ^ ": lost worker reported") true
              (match reason with O.Worker_lost n -> n >= 1 | _ -> false)
          in
          (match outcome with
          | O.Failed e ->
              Alcotest.failf "%s must degrade, not fail: %s" name
                (O.error_to_string e)
          | O.Complete _ -> Alcotest.failf "%s must degrade" name
          | O.Feasible_bound { reason; _ } | O.Degraded { reason; _ } ->
              lost reason);
          check_sound_outcome ~name ~true_opt:reference.Branch_bound.objective
            outcome))
    [ 1; 4 ]

let test_bb_pivot_stall_chaos () =
  (* stalls injected into every pivot loop; the wall deadline must still
     bound the solve to ~2x (each stall is 0.05s, checked per pivot) *)
  let wall = 0.2 in
  with_faults ~seed:11
    [ ("pivot_stall", { R.Faults.prob = 0.2; limit = None }) ]
    (fun () ->
      let d = R.Deadline.create ~wall () in
      let t0 = Unix.gettimeofday () in
      let outcome =
        Solver.solve_bounded ~options:serial_opts ~deadline:d
          (market_split_milp ~n:24 ~m:3)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "stalled solve still bounded (%.3fs)" elapsed)
        true
        (elapsed <= 2. *. wall);
      match outcome with
      | O.Failed e -> Alcotest.failf "failed: %s" (O.error_to_string e)
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* qcheck: interrupting the tree search is always sound                *)
(* ------------------------------------------------------------------ *)

let random_milp_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* m = int_range 1 4 in
    let* a = array_size (return (m * n)) (float_range (-4.) 6.) in
    let* b = array_size (return m) (float_range 0.5 12.) in
    let* c = array_size (return n) (float_range (-3.) 8.) in
    let* budget = int_range 1 12 in
    return (n, m, a, b, c, budget))

let build_random_milp (n, m, a, b, c, _) =
  let model = Model.create () in
  let xs = Model.add_vars ~kind:Model.Binary model n in
  for i = 0 to m - 1 do
    ignore
      (Model.add_constr model
         (Linexpr.of_terms (List.init n (fun j -> (xs.(j), a.((i * n) + j)))))
         Model.Le b.(i))
  done;
  Model.set_objective model Model.Maximize
    (Linexpr.of_terms (List.init n (fun j -> (xs.(j), c.(j)))));
  model

let interrupt_sound_test ~jobs ~count =
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "interrupted B&B keeps incumbent <= proven bound (jobs=%d)" jobs)
    (QCheck.make random_milp_gen)
    (fun ((_, _, _, _, _, budget) as inst) ->
      let reference =
        Solver.solve ~options:serial_opts (build_random_milp inst)
      in
      if reference.Branch_bound.outcome <> Branch_bound.Optimal then true
      else begin
        let true_opt = reference.Branch_bound.objective in
        let outcome =
          Solver.solve_bounded
            ~options:{ Branch_bound.default_options with jobs }
            ~deadline:(R.Deadline.create ~nodes:budget ())
            (build_random_milp inst)
        in
        (match outcome with
        | O.Complete r ->
            if
              Float.abs (r.Branch_bound.objective -. true_opt)
              > 1e-6 *. (1. +. Float.abs true_opt)
            then
              QCheck.Test.fail_reportf "complete but wrong: %g vs %g"
                r.Branch_bound.objective true_opt
        | O.Feasible_bound { incumbent; proven_bound; _ } ->
            if incumbent > proven_bound +. 1e-6 then
              QCheck.Test.fail_reportf "incumbent %g above bound %g" incumbent
                proven_bound;
            if incumbent > true_opt +. 1e-6 then
              QCheck.Test.fail_reportf "incumbent %g above optimum %g"
                incumbent true_opt;
            if proven_bound < true_opt -. 1e-6 then
              QCheck.Test.fail_reportf "bound %g below optimum %g" proven_bound
                true_opt
        | O.Degraded { result = Some r; _ } ->
            if r.Branch_bound.best_bound < true_opt -. 1e-6 then
              QCheck.Test.fail_reportf "degraded bound %g below optimum %g"
                r.Branch_bound.best_bound true_opt
        | O.Degraded { result = None; _ } -> ()
        | O.Failed e ->
            QCheck.Test.fail_reportf "failed: %s" (O.error_to_string e));
        true
      end)

(* ------------------------------------------------------------------ *)
(* Pool supervision                                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_watchdog_rescues () =
  let pool = Pool.create ~heartbeat_timeout:0.1 ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (* await_passive, not await: a helping await could run the job on
         the calling thread, where the watchdog cannot see it *)
      let stuck = Pool.submit pool (fun () -> Unix.sleepf 2.) in
      (match Pool.await_passive stuck with
      | () -> Alcotest.fail "stuck task should have been failed by the watchdog"
      | exception Pool.Stalled dt ->
          Alcotest.(check bool) "stall duration reported" true (dt >= 0.1)
      | exception e -> raise e);
      Alcotest.(check int) "one worker lost" 1 (Pool.lost_workers pool);
      (* the replacement domain keeps the pool at capacity *)
      let ok = Pool.submit pool (fun () -> 21 * 2) in
      Alcotest.(check int) "replacement serves" 42 (Pool.await_passive ok))

let test_pool_watchdog_no_false_positive () =
  let pool = Pool.create ~heartbeat_timeout:0.15 ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let fut =
        Pool.submit_poll pool (fun ~poll ->
            (* runs 4x the timeout, but polls often: never "stuck" *)
            for _ = 1 to 60 do
              Unix.sleepf 0.01;
              ignore (poll ())
            done;
            "done")
      in
      Alcotest.(check string)
        "polling task completes" "done" (Pool.await_passive fut);
      Alcotest.(check int) "no workers lost" 0 (Pool.lost_workers pool))

let test_pool_undrained_shutdown_wakes_passive_waiters () =
  let pool = Pool.create ~domains:1 () in
  let running = Pool.submit pool (fun () -> Unix.sleepf 0.3; 7) in
  (* give the worker time to pick [running] up, then queue one behind it *)
  Unix.sleepf 0.05;
  let queued = Pool.submit pool (fun () -> 8) in
  let shutdown_thread = Thread.create (fun () -> Pool.shutdown ~drain:false pool) () in
  (match Pool.await_passive queued with
  | _ -> Alcotest.fail "queued task should have been dropped"
  | exception Pool.Cancelled -> ());
  (* the already-running task still completes during the drain *)
  Alcotest.(check int) "running task still completes" 7 (Pool.await_passive running);
  Thread.join shutdown_thread

(* ------------------------------------------------------------------ *)
(* Scheduler deadlines                                                 *)
(* ------------------------------------------------------------------ *)

module Scheduler = Repro_serve.Scheduler

let test_scheduler_deadline () =
  let sched = Scheduler.create ~cost_bytes:(fun _ -> 8) () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let r =
        Scheduler.submit sched ~key:1L ~deadline_s:0.05 (fun () ->
            Thread.delay 0.4;
            1)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        "timed out, typed" true
        (match r with Error (Scheduler.Timed_out _) -> true | _ -> false);
      Alcotest.(check bool)
        (Printf.sprintf "gave up near the deadline (%.3fs)" elapsed)
        true (elapsed < 0.3);
      (* the solve itself finished and landed for the next caller *)
      Alcotest.(check int) "timeouts counted" 1 (Scheduler.stats sched).Scheduler.timed_out)

let test_scheduler_survives_pool_shutdown () =
  let pool = Pool.create ~domains:1 () in
  let sched = Scheduler.create ~pool ~cost_bytes:(fun _ -> 8) () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let submitter =
        Thread.create
          (fun () ->
            Scheduler.submit sched ~key:2L (fun () ->
                Thread.delay 0.3;
                2))
          ()
      in
      Unix.sleepf 0.08;
      (* kill the pool out from under the in-flight batch *)
      Pool.shutdown ~drain:false pool;
      Thread.join submitter;
      (* the dispatcher caught the pool failure and is still alive: the
         next submit gets a typed error, not a hang *)
      let r = Scheduler.submit sched ~key:3L (fun () -> 3) in
      Alcotest.(check bool)
        "post-shutdown submit fails typed" true
        (match r with Error _ -> true | Ok _ -> false))

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "repro_resilience"
    [
      ( "deadline",
        [
          quick "wall budget" test_deadline_wall;
          quick "pivot and node budgets" test_deadline_counters;
          quick "first trip latched" test_deadline_first_trip_latched;
        ] );
      ( "faults",
        [
          quick "seeded determinism" test_faults_deterministic;
          quick "fire limit" test_faults_limit;
        ] );
      ( "retry",
        [
          quick "delay pure in (seed, attempt)" test_retry_delay_pure;
          quick "backoff schedule" test_retry_run;
        ] );
      ( "breaker",
        [
          quick "open, probe, close" test_breaker_cycle;
          quick "probe failure reopens" test_breaker_probe_failure_reopens;
        ] );
      ( "solver-budgets",
        [
          quick "lp pivot budget" test_lp_pivot_budget;
          quick "bb node budget" test_bb_node_budget;
          quick "bb wall deadline within 2x" test_bb_wall_deadline_2x;
          quick "worker death degrades" test_bb_worker_death_degrades;
          quick "pivot stall chaos" test_bb_pivot_stall_chaos;
        ] );
      ( "interrupt-soundness",
        [
          QCheck_alcotest.to_alcotest (interrupt_sound_test ~jobs:1 ~count:50);
          QCheck_alcotest.to_alcotest (interrupt_sound_test ~jobs:4 ~count:25);
        ] );
      ( "pool-supervision",
        [
          quick "watchdog rescues stalled task" test_pool_watchdog_rescues;
          quick "no false positives on polling tasks"
            test_pool_watchdog_no_false_positive;
          quick "undrained shutdown wakes passive waiters"
            test_pool_undrained_shutdown_wakes_passive_waiters;
        ] );
      ( "scheduler-deadline",
        [
          quick "per-request deadline" test_scheduler_deadline;
          quick "dispatcher survives pool shutdown"
            test_scheduler_survives_pool_shutdown;
        ] );
    ]
