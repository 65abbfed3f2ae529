(* Tests for the parallel search engine (Repro_engine): pool lifecycle,
   deterministic parallel map/reduce, shared incumbent store — and the
   determinism contract of the metaopt wiring (parallel
   oracle scoring and POP averaging bit-identical to serial).

   The "smoke" suite runs the end-to-end fig1 anchor under the job count
   given by REPRO_TEST_JOBS (default 4); the dune rule re-runs it with
   REPRO_TEST_JOBS=1 so both the serial and the pooled code paths are
   exercised by `dune runtest`. *)

open Repro_topology
open Repro_te
open Repro_metaopt
module E = Repro_engine

let check_float = Alcotest.(check (float 1e-9))

let test_jobs =
  match Sys.getenv_opt "REPRO_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* Chunks                                                              *)
(* ------------------------------------------------------------------ *)

let test_chunks_cover () =
  List.iter
    (fun (n, chunks) ->
      let ranges = E.Chunks.ranges ~n ~chunks in
      (* contiguous, ordered, covering [0, n) exactly *)
      let expected_start = ref 0 in
      List.iter
        (fun (start, stop) ->
          Alcotest.(check int) "contiguous" !expected_start start;
          Alcotest.(check bool) "non-empty" true (stop > start);
          expected_start := stop)
        ranges;
      Alcotest.(check int) "covers n" n !expected_start;
      (* balanced: lengths differ by at most one *)
      let lens = List.map (fun (a, b) -> b - a) ranges in
      let mn = List.fold_left Int.min max_int lens in
      let mx = List.fold_left Int.max 0 lens in
      Alcotest.(check bool) "balanced" true (mx - mn <= 1))
    [ (1, 1); (7, 3); (8, 4); (100, 7); (5, 16); (3, 1) ]

let test_chunks_empty () =
  Alcotest.(check (list (pair int int))) "n=0" [] (E.Chunks.ranges ~n:0 ~chunks:4)

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let test_pool_submit_await () =
  E.Pool.with_pool ~domains:test_jobs (fun pool ->
      let futures =
        List.init 40 (fun i -> E.Pool.submit pool (fun () -> i * i))
      in
      List.iteri
        (fun i f -> Alcotest.(check int) "result" (i * i) (E.Pool.await f))
        futures)

let test_pool_await_passive () =
  E.Pool.with_pool ~domains:test_jobs (fun pool ->
      let futures =
        List.init 20 (fun i -> E.Pool.submit pool (fun () -> i + 1))
      in
      List.iteri
        (fun i f ->
          Alcotest.(check int) "result" (i + 1) (E.Pool.await_passive f))
        futures;
      (* exceptions propagate exactly like await *)
      let f = E.Pool.submit pool (fun () -> failwith "boom") in
      match E.Pool.await_passive f with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)

let test_pool_exception_propagates () =
  E.Pool.with_pool ~domains:2 (fun pool ->
      let f = E.Pool.submit pool (fun () -> failwith "boom") in
      (match E.Pool.await f with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
      (* the pool survives a failed task *)
      let g = E.Pool.submit pool (fun () -> 41 + 1) in
      Alcotest.(check int) "alive after failure" 42 (E.Pool.await g))

let test_pool_cancel_pending () =
  (* one worker: a gate task occupies it, so the second task is still
     queued when we cancel it *)
  E.Pool.with_pool ~domains:1 (fun pool ->
      let gate = Atomic.make false in
      let blocker =
        E.Pool.submit pool (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            1)
      in
      let doomed = E.Pool.submit pool (fun () -> 2) in
      E.Pool.cancel doomed;
      Atomic.set gate true;
      Alcotest.(check int) "blocker" 1 (E.Pool.await blocker);
      (match E.Pool.await doomed with
      | _ -> Alcotest.fail "expected Cancelled"
      | exception E.Pool.Cancelled -> ());
      Alcotest.(check bool) "cancelled is done" true (E.Pool.is_done doomed))

let test_pool_cooperative_cancel () =
  E.Pool.with_pool ~domains:1 (fun pool ->
      let started = Atomic.make false in
      let f =
        E.Pool.submit_poll pool (fun ~poll ->
            Atomic.set started true;
            while not (poll ()) do
              Domain.cpu_relax ()
            done;
            "wound down")
      in
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      E.Pool.cancel f;
      (* a running task that observes the request and returns normally
         still delivers its value *)
      Alcotest.(check string) "observed poll" "wound down" (E.Pool.await f))

let test_pool_nested_map () =
  (* a pooled task that itself maps on the same pool: help-first await
     must keep this deadlock-free even with every worker busy *)
  E.Pool.with_pool ~domains:2 (fun pool ->
      let outer =
        (* min_work:0 forces pool dispatch even for these small fan-outs:
           the point here is deadlock-freedom, not speed *)
        E.Parallel.init ~pool ~min_work:0 6 (fun i ->
            let inner =
              E.Parallel.map ~pool ~min_work:0 (fun x -> x * x)
                (Array.init 40 (fun j -> i + j))
            in
            Array.fold_left ( + ) 0 inner)
      in
      let expected =
        Array.init 6 (fun i ->
            Array.fold_left ( + ) 0
              (Array.map (fun x -> x * x) (Array.init 40 (fun j -> i + j))))
      in
      Alcotest.(check (array int)) "nested" expected outer)

let test_pool_shutdown_idempotent () =
  let pool = E.Pool.create ~domains:2 () in
  let f = E.Pool.submit pool (fun () -> 7) in
  E.Pool.shutdown pool;
  E.Pool.shutdown pool;
  (* already-queued work completed before the workers stopped *)
  Alcotest.(check int) "queued task ran" 7 (E.Pool.await f);
  match E.Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                                *)
(* ------------------------------------------------------------------ *)

let noisy_float k = sin (float_of_int k) *. sqrt (float_of_int (k + 1))

let test_parallel_map_matches_serial () =
  let input = Array.init 1003 (fun k -> k) in
  let serial = Array.map noisy_float input in
  E.Pool.with_pool ~domains:test_jobs (fun pool ->
      let parallel = E.Parallel.map ~pool noisy_float input in
      Alcotest.(check bool) "bit-identical map" true (serial = parallel);
      let serial_l = List.map noisy_float (Array.to_list input) in
      let parallel_l = E.Parallel.map_list ~pool noisy_float (Array.to_list input) in
      Alcotest.(check bool) "bit-identical map_list" true (serial_l = parallel_l))

let test_parallel_reduce_matches_serial () =
  (* floating-point sum: only deterministic if the fold order is the
     serial one — this is the contract the POP averaging relies on *)
  let input = Array.init 997 (fun k -> k) in
  let serial =
    Array.fold_left (fun acc k -> acc +. noisy_float k) 0. input
  in
  E.Pool.with_pool ~domains:test_jobs (fun pool ->
      let parallel =
        E.Parallel.reduce ~pool ~map:noisy_float ~fold:( +. ) ~init:0. input
      in
      Alcotest.(check bool) "bit-identical sum" true (serial = parallel))

let test_parallel_min_work_serial () =
  (* a small fan-out of cheap items falls under the min-work threshold:
     every element must be evaluated on the calling domain *)
  E.Pool.with_pool ~domains:4 (fun pool ->
      let self = Domain.self () in
      let doms =
        E.Parallel.map ~pool (fun _ -> Domain.self ()) (Array.init 10 Fun.id)
      in
      Alcotest.(check bool) "small fan-out stays on caller" true
        (Array.for_all (fun d -> d = self) doms);
      (* a declared per-item cost pushes the same fan-out over the
         threshold: results are still the serial ones *)
      let sq =
        E.Parallel.map ~pool ~cost:E.Parallel.default_min_work
          (fun x -> x * x)
          (Array.init 10 Fun.id)
      in
      Alcotest.(check (array int)) "cost override still correct"
        (Array.init 10 (fun x -> x * x))
        sq)

let test_parallel_map_exception () =
  E.Pool.with_pool ~domains:4 (fun pool ->
      match
        E.Parallel.map ~pool
          (fun k -> if k = 500 then failwith "at 500" else k)
          (Array.init 1000 (fun k -> k))
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> Alcotest.(check string) "message" "at 500" msg)

(* ------------------------------------------------------------------ *)
(* Incumbent store                                                     *)
(* ------------------------------------------------------------------ *)

let test_incumbent_monotone_concurrent () =
  let inc : int E.Incumbent.t = E.Incumbent.create () in
  let per_worker = 200 in
  let workers = 4 in
  E.Pool.with_pool ~domains:workers (fun pool ->
      let futures =
        List.init workers (fun w ->
            E.Pool.submit pool (fun () ->
                for i = 0 to per_worker - 1 do
                  (* interleaved increasing/decreasing proposals *)
                  let score = float_of_int ((i * workers) + w) in
                  ignore (E.Incumbent.propose inc (w * 1000) score);
                  ignore (E.Incumbent.propose inc (-1) (score /. 2.))
                done))
      in
      List.iter E.Pool.await futures);
  let max_score = float_of_int (((per_worker - 1) * workers) + workers - 1) in
  (match E.Incumbent.best inc with
  | None -> Alcotest.fail "no incumbent"
  | Some (_, s) -> check_float "best is max proposed" max_score s);
  check_float "best_score agrees" max_score (E.Incumbent.best_score inc)

let test_incumbent_empty () =
  let inc : int E.Incumbent.t = E.Incumbent.create () in
  Alcotest.(check bool) "no best" true (E.Incumbent.best inc = None);
  Alcotest.(check bool) "neg_infinity" true
    (E.Incumbent.best_score inc = neg_infinity)

(* Strict improvement only: a tie or a lower score leaves the first
   incumbent in place. *)
let test_incumbent_strict () =
  let inc : string E.Incumbent.t = E.Incumbent.create () in
  Alcotest.(check bool) "first accepted" true (E.Incumbent.propose inc "a" 5.);
  Alcotest.(check bool) "tie rejected" false (E.Incumbent.propose inc "b" 5.);
  Alcotest.(check bool) "lower rejected" false (E.Incumbent.propose inc "c" 4.);
  Alcotest.(check (option (pair string (float 0.)))) "first kept"
    (Some ("a", 5.)) (E.Incumbent.best inc);
  Alcotest.(check bool) "higher accepted" true (E.Incumbent.propose inc "d" 6.);
  Alcotest.(check (option (pair string (float 0.)))) "replaced"
    (Some ("d", 6.)) (E.Incumbent.best inc)

let test_jobs_clamp () =
  Alcotest.(check int) "zero is serial" 1 (E.Jobs.clamp 0);
  Alcotest.(check int) "negative is serial" 1 (E.Jobs.clamp (-3));
  Alcotest.(check int) "in range kept" 5 (E.Jobs.clamp 5);
  Alcotest.(check int) "ceiling" E.Jobs.max_jobs (E.Jobs.clamp (E.Jobs.max_jobs + 1))

(* ------------------------------------------------------------------ *)
(* Metaopt determinism: parallel oracle scoring == serial              *)
(* ------------------------------------------------------------------ *)

let b4_pathset () =
  let g = Topologies.b4 () in
  Pathset.compute (Demand.full_space g) ~k:2

let test_probe_scoring_deterministic () =
  let pathset = b4_pathset () in
  let g = Pathset.graph pathset in
  let threshold = 0.05 *. Graph.max_capacity g in
  let ev = Evaluate.make_dp pathset ~threshold in
  let candidates =
    Probes.dp_candidates pathset ~threshold ~demand_ub:(Graph.max_capacity g)
  in
  let serial =
    Probes.best_candidate ev ~constraints:Input_constraints.none candidates
  in
  let parallel =
    E.Pool.with_pool ~domains:test_jobs (fun pool ->
        Probes.best_candidate ~pool ev ~constraints:Input_constraints.none
          candidates)
  in
  match (serial, parallel) with
  | Some (ds, gs), Some (dp, gp) ->
      Alcotest.(check bool) "same winner demands" true (ds = dp);
      Alcotest.(check bool) "same winner gap (bit-identical)" true (gs = gp)
  | None, None -> Alcotest.fail "probing found nothing on B4"
  | _ -> Alcotest.fail "serial and parallel disagree on feasibility"

let test_pop_averaging_deterministic () =
  let pathset = b4_pathset () in
  let g = Pathset.graph pathset in
  let ev =
    Evaluate.make_pop pathset ~parts:2 ~instances:4 ~rng:(Rng.create 11) ()
  in
  let rng = Rng.create 42 in
  let demand =
    Demand.gravity (Pathset.space pathset) ~rng
      ~total:(0.5 *. Graph.total_capacity g)
  in
  let serial = Evaluate.heuristic_value ev demand in
  let parallel =
    E.Pool.with_pool ~domains:test_jobs (fun pool ->
        Evaluate.heuristic_value (Evaluate.with_pool ev (Some pool)) demand)
  in
  match (serial, parallel) with
  | Some s, Some p ->
      Alcotest.(check bool) "POP average bit-identical" true (s = p)
  | _ -> Alcotest.fail "POP heuristic infeasible on gravity demands"

let test_blackbox_batch_deterministic () =
  let pathset = b4_pathset () in
  let g = Pathset.graph pathset in
  let threshold = 0.05 *. Graph.max_capacity g in
  let ev = Evaluate.make_dp pathset ~threshold in
  let run pool =
    let options =
      {
        Blackbox.default_options with
        time_limit = 1e9;
        max_evaluations = 120;
        batch = 4;
        pool;
      }
    in
    Blackbox.hill_climb ev ~rng:(Rng.create 7) ~options ()
  in
  let serial = run None in
  let parallel =
    E.Pool.with_pool ~domains:test_jobs (fun pool -> run (Some pool))
  in
  Alcotest.(check bool) "same walk, same best gap" true
    (serial.Blackbox.gap = parallel.Blackbox.gap);
  Alcotest.(check bool) "same best demands" true
    (serial.Blackbox.demands = parallel.Blackbox.demands);
  Alcotest.(check int) "same evaluation count" serial.Blackbox.evaluations
    parallel.Blackbox.evaluations

(* ------------------------------------------------------------------ *)
(* Smoke: end-to-end fig1 anchor under REPRO_TEST_JOBS                 *)
(* ------------------------------------------------------------------ *)

let fig1_ev () =
  let g = Topologies.fig1 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  Evaluate.make_dp pathset ~threshold:50.

let test_smoke_whitebox_jobs () =
  let ev = fig1_ev () in
  let options = { Adversary.default_options with jobs = test_jobs } in
  let r = Adversary.find ev ~options () in
  Alcotest.(check (float 0.5)) "fig1 gap 100" 100. r.Adversary.gap;
  let verified = Option.get (Evaluate.gap ev r.Adversary.demands) in
  Alcotest.(check (float 1e-5)) "witness verified" r.Adversary.gap verified

(* The tree's bound under REPRO_TEST_JOBS: present, above the gap, and
   the same gap and bound as the serial search. *)
let test_smoke_whitebox_bound_jobs () =
  let ev = fig1_ev () in
  let run jobs = Adversary.find ev ~options:{ Adversary.default_options with jobs } () in
  let r = run test_jobs and serial = run 1 in
  let bound r =
    match r.Adversary.upper_bound with
    | Some ub -> ub
    | None -> Alcotest.fail "expected a bound"
  in
  Alcotest.(check bool) "bound >= gap" true
    (bound r >= r.Adversary.gap -. 1e-6);
  Alcotest.(check (float 0.5)) "gap as serial" serial.Adversary.gap
    r.Adversary.gap;
  Alcotest.(check (float 0.5)) "bound as serial" (bound serial) (bound r)

let () =
  Alcotest.run "engine"
    [
      ( "chunks",
        [
          Alcotest.test_case "cover and balance" `Quick test_chunks_cover;
          Alcotest.test_case "empty" `Quick test_chunks_empty;
        ] );
      ( "pool",
        [
          Alcotest.test_case "submit/await" `Quick test_pool_submit_await;
          Alcotest.test_case "passive await" `Quick test_pool_await_passive;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "cancel pending" `Quick test_pool_cancel_pending;
          Alcotest.test_case "cooperative cancel" `Quick
            test_pool_cooperative_cancel;
          Alcotest.test_case "nested map" `Quick test_pool_nested_map;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map matches serial" `Quick
            test_parallel_map_matches_serial;
          Alcotest.test_case "reduce matches serial" `Quick
            test_parallel_reduce_matches_serial;
          Alcotest.test_case "min-work serial fallback" `Quick
            test_parallel_min_work_serial;
          Alcotest.test_case "exception" `Quick test_parallel_map_exception;
        ] );
      ("jobs", [ Alcotest.test_case "clamp" `Quick test_jobs_clamp ]);
      ( "incumbent",
        [
          Alcotest.test_case "concurrent monotonicity" `Quick
            test_incumbent_monotone_concurrent;
          Alcotest.test_case "empty" `Quick test_incumbent_empty;
          Alcotest.test_case "strict improvement" `Quick test_incumbent_strict;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "probe scoring" `Quick
            test_probe_scoring_deterministic;
          Alcotest.test_case "pop averaging" `Quick
            test_pop_averaging_deterministic;
          Alcotest.test_case "blackbox batch" `Quick
            test_blackbox_batch_deterministic;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "whitebox fig1" `Quick test_smoke_whitebox_jobs;
          Alcotest.test_case "whitebox fig1 bound" `Quick
            test_smoke_whitebox_bound_jobs;
        ] );
    ]
