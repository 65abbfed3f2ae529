(* Tests for the serving layer (Repro_serve): JSON wire format,
   canonical fingerprints (permutation stability), the sharded LRU
   solve cache (eviction order, byte accounting, domain safety), the
   request scheduler (in-flight dedup, backpressure), the on-disk
   journal (crash tolerance), and an end-to-end daemon round trip over
   a real Unix socket. *)

open Repro_topology
open Repro_te
open Repro_metaopt
module S = Repro_serve
module Json = S.Json
module Fp = S.Fingerprint
module Cache = S.Solve_cache
module Sched = S.Scheduler

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("int", Json.Num 42.);
      ("float", Json.Num 0.1);
      ("tiny", Json.Num 1e-300);
      ("neg", Json.Num (-17.25));
      ("text", Json.Str "line\n\"quoted\"\tand \\ control \001");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List [ Json.Num 1.; Json.Obj [ ("k", Json.Str "v") ]; Json.Null ]
      );
    ]

let test_json_roundtrip () =
  List.iter
    (fun v ->
      (match Json.of_string (Json.to_string v) with
      | Ok v' -> Alcotest.(check bool) "compact roundtrip" true (v = v')
      | Error e -> Alcotest.failf "compact: %s" e);
      match Json.of_string (Json.to_string_pretty v) with
      | Ok v' -> Alcotest.(check bool) "pretty roundtrip" true (v = v')
      | Error e -> Alcotest.failf "pretty: %s" e)
    [ sample_json; Json.Null; Json.Num 1.5e18; Json.List [ Json.Num 0.2 ] ]

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "\"unterminated"; "nul"; "1.2.3" ]

let test_json_float_exact () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') ->
          Alcotest.(check bool)
            (Printf.sprintf "float %h bit-exact" f)
            true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
      | _ -> Alcotest.fail "not a number")
    [ 0.1; 1. /. 3.; 1e-300; 12658.124079768324; -0.0; 4. ]

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  let a = Array.copy a in
  Rng.shuffle rng a;
  a

(* The same non-zero (src, dst, volume) set laid out over a permuted
   pair space must hash identically. *)
let test_fingerprint_demand_permutation () =
  let g = Topologies.b4 () in
  let space = Demand.full_space g in
  let rng = Rng.create 7 in
  let d = Demand.uniform space ~rng ~max:100. in
  (* zero out some entries so "zeros dropped" is exercised *)
  Array.iteri (fun k _ -> if k mod 3 = 0 then d.(k) <- 0.) d;
  let base = Fp.finish (Fp.feed_demand Fp.empty space d) in
  for seed = 1 to 5 do
    let perm_pairs = shuffle (Rng.create seed) space.Demand.pairs in
    let space' = Demand.space_of_pairs g perm_pairs in
    let d' = Demand.zero space' in
    Array.iteri
      (fun k v ->
        let src, dst = Demand.pair space k in
        match Demand.index space' ~src ~dst with
        | Some k' -> d'.(k') <- v
        | None -> Alcotest.fail "pair lost in permutation")
      d;
    Alcotest.(check bool)
      "permuted space hashes equal" true
      (Fp.equal base (Fp.finish (Fp.feed_demand Fp.empty space' d')))
  done

let qcheck_fingerprint_permutation =
  QCheck.Test.make ~count:50 ~name:"fingerprint invariant under permutation"
    QCheck.(pair small_int (small_list (pair small_int pos_float)))
    (fun (seed, _) ->
      let g = Topologies.abilene () in
      let space = Demand.full_space g in
      let rng = Rng.create (seed + 1) in
      let d = Demand.uniform space ~rng ~max:50. in
      let space' =
        Demand.space_of_pairs g (shuffle (Rng.create (seed + 2)) space.Demand.pairs)
      in
      let d' = Demand.zero space' in
      Array.iteri
        (fun k v ->
          let src, dst = Demand.pair space k in
          match Demand.index space' ~src ~dst with
          | Some k' -> d'.(k') <- v
          | None -> ())
        d;
      Fp.equal
        (Fp.finish (Fp.feed_demand Fp.empty space d))
        (Fp.finish (Fp.feed_demand Fp.empty space' d')))

(* Graphs built with different edge insertion orders hash equal. *)
let test_fingerprint_edge_order () =
  let edges =
    [ (0, 1, 10., 1.); (1, 2, 20., 1.); (2, 0, 5., 2.); (0, 2, 7., 1.) ]
  in
  let build order =
    let g = Graph.create ~name:"perm" ~num_nodes:3 () in
    List.iter
      (fun (src, dst, capacity, weight) ->
        ignore (Graph.add_edge g ~src ~dst ~capacity ~weight ()))
      order;
    g
  in
  let h order = Fp.finish (Fp.feed_graph Fp.empty (build order)) in
  let base = h edges in
  Alcotest.(check bool)
    "reversed insertion equal" true
    (Fp.equal base (h (List.rev edges)));
  Alcotest.(check bool)
    "capacity change detected" false
    (Fp.equal base (h [ (0, 1, 11., 1.); (1, 2, 20., 1.); (2, 0, 5., 2.); (0, 2, 7., 1.) ]))

let test_fingerprint_instance_sensitivity () =
  let g = Topologies.fig1 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let ev t = Evaluate.make_dp pathset ~threshold:t in
  let fp ?demand e = Fp.instance ?demand ~paths:2 e in
  Alcotest.(check bool)
    "same config equal" true
    (Fp.equal (fp (ev 0.5)) (fp (ev 0.5)));
  Alcotest.(check bool)
    "threshold matters" false
    (Fp.equal (fp (ev 0.5)) (fp (ev 0.6)));
  let space = Pathset.space pathset in
  let d = Demand.constant space 1. in
  Alcotest.(check bool)
    "demand matters" false
    (Fp.equal (fp (ev 0.5)) (fp ~demand:d (ev 0.5)));
  (* POP oracles drawn from the same seed hash equal, different seeds
     (almost surely) differ *)
  let pop seed =
    Evaluate.make_pop pathset ~parts:2 ~instances:3 ~rng:(Rng.create seed) ()
  in
  Alcotest.(check bool)
    "pop same seed equal" true
    (Fp.equal (fp (pop 5)) (fp (pop 5)));
  Alcotest.(check bool)
    "pop seed matters" false
    (Fp.equal (fp (pop 5)) (fp (pop 6)))

let test_fingerprint_hex () =
  let t = Fp.finish (Fp.feed_string Fp.empty "hello") in
  match Fp.of_hex (Fp.to_hex t) with
  | Some t' -> Alcotest.(check bool) "hex roundtrip" true (Fp.equal t t')
  | None -> Alcotest.fail "of_hex failed"

(* ------------------------------------------------------------------ *)
(* Solve cache                                                         *)
(* ------------------------------------------------------------------ *)

let key_of_int i = Fp.finish (Fp.feed_int Fp.empty i)

(* One shard, tight budget: eviction happens strictly from the LRU end
   and the byte ledger stays exact. *)
let test_cache_lru_eviction () =
  let per_entry = 36 + Cache.entry_overhead in
  (* room for exactly 3 resident entries *)
  let c = Cache.create ~shards:1 ~max_bytes:(3 * per_entry) () in
  List.iter (fun i -> Cache.insert c (key_of_int i) ~cost_bytes:36 i) [ 1; 2; 3 ];
  let s = Cache.stats c in
  Alcotest.(check int) "entries" 3 s.Cache.entries;
  Alcotest.(check int) "bytes" (3 * per_entry) s.Cache.bytes;
  (* touch 1 so it is MRU; inserting 4 must now evict 2 (the LRU) *)
  Alcotest.(check (option int)) "find 1" (Some 1) (Cache.find c (key_of_int 1));
  Cache.insert c (key_of_int 4) ~cost_bytes:36 4;
  let s = Cache.stats c in
  Alcotest.(check int) "entries after eviction" 3 s.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check bool) "2 evicted" false (Cache.mem c (key_of_int 2));
  Alcotest.(check bool) "1 kept (was touched)" true (Cache.mem c (key_of_int 1));
  Alcotest.(check bool) "3 kept" true (Cache.mem c (key_of_int 3));
  Alcotest.(check bool) "4 resident" true (Cache.mem c (key_of_int 4));
  Alcotest.(check int) "bytes steady" (3 * per_entry) (Cache.stats c).Cache.bytes

let test_cache_replace_and_oversize () =
  let c = Cache.create ~shards:1 ~max_bytes:1024 () in
  let k = key_of_int 9 in
  Cache.insert c k ~cost_bytes:100 1;
  Cache.insert c k ~cost_bytes:200 2;
  let s = Cache.stats c in
  Alcotest.(check int) "replacement keeps one entry" 1 s.Cache.entries;
  Alcotest.(check int) "bytes reflect new size" (200 + Cache.entry_overhead)
    s.Cache.bytes;
  Alcotest.(check (option int)) "new value" (Some 2) (Cache.find c k);
  (* an entry larger than the whole budget is refused, not thrashed *)
  Cache.insert c (key_of_int 10) ~cost_bytes:100_000 3;
  Alcotest.(check bool) "oversize refused" false (Cache.mem c (key_of_int 10));
  Alcotest.(check (option int)) "resident survives" (Some 2) (Cache.find c k)

(* qcheck: the sharded cache agrees with a naive association-list LRU
   model on membership, for single-shard random op sequences. *)
let qcheck_cache_model =
  QCheck.Test.make ~count:100 ~name:"cache agrees with reference LRU model"
    QCheck.(small_list (pair (int_bound 15) bool))
    (fun ops ->
      let per_entry = 10 + Cache.entry_overhead in
      let budget_entries = 4 in
      let c = Cache.create ~shards:1 ~max_bytes:(budget_entries * per_entry) () in
      (* model: MRU-first list of keys, capped at budget_entries *)
      let model = ref [] in
      List.iter
        (fun (i, is_insert) ->
          let k = key_of_int i in
          if is_insert then begin
            Cache.insert c k ~cost_bytes:10 i;
            let rest = List.filter (fun j -> j <> i) !model in
            let m = i :: rest in
            model :=
              if List.length m > budget_entries then
                List.filteri (fun idx _ -> idx < budget_entries) m
              else m
          end
          else begin
            let got = Cache.find c k in
            let expect = List.mem i !model in
            if got <> None <> expect then
              QCheck.Test.fail_reportf "find %d: cache %b, model %b" i
                (got <> None) expect;
            if expect then
              model := i :: List.filter (fun j -> j <> i) !model
          end)
        ops;
      List.for_all (fun i -> Cache.mem c (key_of_int i)) !model)

let test_cache_concurrent () =
  let domains = 4 in
  let per_domain = 2_000 in
  let c = Cache.create ~shards:8 ~max_bytes:(1024 * 1024) () in
  let bad = Atomic.make 0 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (100 + d) in
            for _ = 1 to per_domain do
              let i = Rng.int_range rng 64 in
              let k = key_of_int i in
              match Cache.find c k with
              | Some v -> if v <> i * i then Atomic.incr bad
              | None -> Cache.insert c k ~cost_bytes:16 (i * i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no torn values" 0 (Atomic.get bad);
  let s = Cache.stats c in
  Alcotest.(check int)
    "every find accounted" (domains * per_domain)
    (s.Cache.hits + s.Cache.misses);
  Alcotest.(check bool) "cache populated" true (s.Cache.entries > 0);
  Alcotest.(check bool)
    "ledger within budget" true
    (s.Cache.bytes <= s.Cache.max_bytes)

(* The oracle cache must share OPT solves across heuristic
   configurations: the optimal MCF value depends only on topology +
   paths + demands, so a second evaluator with a different DP threshold
   probing the same demands must warm-hit the cached OPT entry
   (regression: the opt key used to include the heuristic spec, keying
   every threshold into a private copy — 0 hits across a sweep). *)
let test_oracle_cache_opt_shared () =
  let g = Topologies.fig1 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let cache = Cache.create ~max_bytes:(1024 * 1024) () in
  let attach t =
    S.Oracle_cache.attach ~cache ~paths:2
      (Evaluate.make_dp pathset ~threshold:t)
  in
  let d = Demand.constant (Pathset.space pathset) 2. in
  ignore (Evaluate.gap (attach 0.5) d);
  let s0 = Cache.stats cache in
  Alcotest.(check int) "cold evaluation has no hits" 0 s0.Cache.hits;
  (* same demands, different threshold: OPT must hit, heuristic must not *)
  ignore (Evaluate.gap (attach 5.0) d);
  let s1 = Cache.stats cache in
  Alcotest.(check bool)
    "opt solve shared across thresholds" true
    (s1.Cache.hits > s0.Cache.hits);
  (* identical evaluation end to end: everything hits *)
  let hits_before = (Cache.stats cache).Cache.hits in
  let misses_before = (Cache.stats cache).Cache.misses in
  ignore (Evaluate.gap (attach 5.0) d);
  let s2 = Cache.stats cache in
  Alcotest.(check bool) "warm repeat all hits" true (s2.Cache.hits > hits_before);
  Alcotest.(check int) "warm repeat no misses" misses_before s2.Cache.misses

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

type gate = { m : Mutex.t; c : Condition.t; mutable opened : bool }

let gate () = { m = Mutex.create (); c = Condition.create (); opened = false }

let gate_wait g =
  Mutex.lock g.m;
  while not g.opened do
    Condition.wait g.c g.m
  done;
  Mutex.unlock g.m

let gate_open g =
  Mutex.lock g.m;
  g.opened <- true;
  Condition.broadcast g.c;
  Mutex.unlock g.m

let rec await_stats sched ~tries pred =
  if pred (Sched.stats sched) then ()
  else if tries <= 0 then Alcotest.fail "scheduler never reached expected state"
  else begin
    Thread.yield ();
    Unix.sleepf 0.002;
    await_stats sched ~tries:(tries - 1) pred
  end

let test_scheduler_dedup_once () =
  let sched = Sched.create ~cost_bytes:(fun _ -> 8) () in
  let g = gate () in
  let runs = Atomic.make 0 in
  let job () =
    gate_wait g;
    Atomic.incr runs;
    42
  in
  let key = key_of_int 1 in
  let results = Array.make 3 (Error Sched.Shutdown) in
  let t0 = Thread.create (fun () -> results.(0) <- Sched.submit sched ~key job) () in
  (* wait until the dispatcher picked the job up (queue drained) ... *)
  await_stats sched ~tries:1000 (fun s ->
      s.Sched.submitted >= 1 && s.Sched.queued_now = 0);
  (* ... then pile on identical queries; they must coalesce *)
  let t1 = Thread.create (fun () -> results.(1) <- Sched.submit sched ~key job) () in
  let t2 = Thread.create (fun () -> results.(2) <- Sched.submit sched ~key job) () in
  await_stats sched ~tries:1000 (fun s -> s.Sched.dedup_hits = 2);
  gate_open g;
  List.iter Thread.join [ t0; t1; t2 ];
  Alcotest.(check int) "job ran exactly once" 1 (Atomic.get runs);
  Array.iter
    (function
      | Ok (v, _) -> Alcotest.(check int) "coalesced value" 42 v
      | Error _ -> Alcotest.fail "a coalesced submit failed")
    results;
  let sources =
    Array.to_list results
    |> List.filter_map (function Ok (_, src) -> Some src | Error _ -> None)
  in
  Alcotest.(check int)
    "two waiters coalesced" 2
    (List.length (List.filter (fun s -> s = `Coalesced) sources));
  let s = Sched.stats sched in
  Alcotest.(check int) "executed once" 1 s.Sched.executed;
  Sched.shutdown sched

let test_scheduler_cache_and_backpressure () =
  let cache = Cache.create ~shards:1 ~max_bytes:4096 () in
  let sched = Sched.create ~queue_limit:1 ~cache ~cost_bytes:(fun _ -> 8) () in
  (* a cached key is served without running anything *)
  (match Sched.submit sched ~key:(key_of_int 1) (fun () -> 7) with
  | Ok (7, `Computed) -> ()
  | _ -> Alcotest.fail "first submit should compute");
  (match Sched.submit sched ~key:(key_of_int 1) (fun () -> 999) with
  | Ok (7, `Cached) -> ()
  | _ -> Alcotest.fail "second submit should hit the cache");
  (* block the dispatcher, fill the 1-slot queue, overflow *)
  let g = gate () in
  let t0 =
    Thread.create
      (fun () ->
        ignore
          (Sched.submit sched ~key:(key_of_int 2) (fun () ->
               gate_wait g;
               0)))
      ()
  in
  await_stats sched ~tries:1000 (fun s -> s.Sched.in_flight_now >= 1 && s.Sched.queued_now = 0);
  let t1 =
    Thread.create
      (fun () -> ignore (Sched.submit sched ~key:(key_of_int 3) (fun () -> 0)))
      ()
  in
  await_stats sched ~tries:1000 (fun s -> s.Sched.queued_now = 1);
  (match Sched.submit sched ~key:(key_of_int 4) (fun () -> 0) with
  | Error (Sched.Overloaded { queued = 1; limit = 1 }) -> ()
  | Ok _ -> Alcotest.fail "overflow submit was admitted"
  | Error _ -> Alcotest.fail "wrong rejection");
  gate_open g;
  Thread.join t0;
  Thread.join t1;
  let s = Sched.stats sched in
  Alcotest.(check int) "one rejection" 1 s.Sched.rejected;
  Sched.shutdown sched

let test_scheduler_failure_isolated () =
  let sched = Sched.create ~cost_bytes:(fun _ -> 8) () in
  (match Sched.submit sched ~key:(key_of_int 1) (fun () -> failwith "boom") with
  | Error (Sched.Failed msg) ->
      Alcotest.(check bool) "message carried" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "raising job must fail its waiters");
  (match Sched.submit sched ~key:(key_of_int 2) (fun () -> 5) with
  | Ok (5, `Computed) -> ()
  | _ -> Alcotest.fail "scheduler must survive a failed job");
  Sched.shutdown sched

(* Poll [cond] every millisecond for up to [timeout] seconds. *)
let wait_until ?(timeout = 5.) cond =
  let until = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () >= until then false
    else begin
      Thread.delay 0.001;
      go ()
    end
  in
  go ()

(* Regression: a burst of distinct same-group queries must form a batch.
   The first request starts alone, without waiting for mates; the 7 that
   queue behind it while it runs leave together as one batch. Each job
   waits (bounded) until all 8 have been submitted, so the queue is full
   before the first job returns. *)
let test_scheduler_batch_admission () =
  let sched = Sched.create ~cost_bytes:(fun _ -> 8) () in
  let clients = 8 in
  let g = gate () in
  let results = Array.make clients (Error Sched.Shutdown) in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            gate_wait g;
            results.(i) <-
              Sched.submit sched ~key:(key_of_int (100 + i)) (fun () ->
                  ignore
                    (wait_until (fun () ->
                         (Sched.stats sched).Sched.submitted = clients));
                  Thread.delay 0.01;
                  i))
          ())
  in
  gate_open g;
  List.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | Ok (v, `Computed) -> Alcotest.(check int) "own value" i v
      | _ -> Alcotest.fail "burst submit failed")
    results;
  let s = Sched.stats sched in
  Alcotest.(check int) "all executed" clients s.Sched.executed;
  Alcotest.(check bool)
    (Printf.sprintf "burst batched (max_batch %d > 1)" s.Sched.max_batch)
    true (s.Sched.max_batch > 1);
  Alcotest.(check bool)
    (Printf.sprintf "at most two batches (%d)" s.Sched.batches)
    true (s.Sched.batches <= 2);
  Sched.shutdown sched

(* Two lone requests on a pool of 2 run at the same time: job A only
   returns once job B has started. A single dispatcher would hold B in
   the queue until A's batch finished, so A would time out. *)
let test_scheduler_concurrent_dispatch () =
  Repro_engine.Pool.with_pool ~domains:2 (fun pool ->
      let sched = Sched.create ~pool ~cost_bytes:(fun _ -> 8) () in
      let b_started = Atomic.make false in
      let a_saw_b = ref false in
      let a =
        Thread.create
          (fun () ->
            ignore
              (Sched.submit sched ~key:(key_of_int 1) ~group:"a" (fun () ->
                   a_saw_b := wait_until (fun () -> Atomic.get b_started);
                   1)))
          ()
      in
      (* B is submitted only once A has left the queue *)
      await_stats sched ~tries:2500 (fun s ->
          s.Sched.in_flight_now = 1 && s.Sched.queued_now = 0);
      (match
         Sched.submit sched ~key:(key_of_int 2) ~group:"b" (fun () ->
             Atomic.set b_started true;
             2)
       with
      | Ok (2, `Computed) -> ()
      | _ -> Alcotest.fail "job B failed");
      Thread.join a;
      Alcotest.(check bool) "A and B ran at the same time" true !a_saw_b;
      Alcotest.(check int) "two batches" 2 (Sched.stats sched).Sched.batches;
      Sched.shutdown sched)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let temp_path suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "repro-serve-test-%d-%s" (Unix.getpid ()) suffix)

let with_temp suffix f =
  let path = temp_path suffix in
  if Sys.file_exists path then Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let journal_records path =
  let acc = ref [] in
  match S.Journal.replay path ~f:(fun ~key ~value -> acc := (key, value) :: !acc) with
  | Ok n -> (n, List.rev !acc)
  | Error e -> Alcotest.failf "replay: %s" e

let test_journal_roundtrip () =
  with_temp "journal" (fun path ->
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "open: %s" e
      | Ok j ->
          S.Journal.append j ~key:1L ~value:"one";
          S.Journal.append j ~key:2L ~value:"";
          S.Journal.append j ~key:(-3L) ~value:"three";
          S.Journal.close j;
          S.Journal.close j (* idempotent *));
      let n, records = journal_records path in
      Alcotest.(check int) "replayed" 3 n;
      Alcotest.(check bool)
        "records in order" true
        (records = [ (1L, "one"); (2L, ""); (-3L, "three") ]))

let test_journal_truncated_tail () =
  with_temp "torn" (fun path ->
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "open: %s" e
      | Ok j ->
          S.Journal.append j ~key:1L ~value:"alpha";
          S.Journal.append j ~key:2L ~value:"beta";
          S.Journal.close j);
      (* simulate a crash mid-append: half a record at the tail *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\000\000\000\000\000\000";
      close_out oc;
      let n, records = journal_records path in
      Alcotest.(check int) "complete records survive" 2 n;
      Alcotest.(check bool)
        "values intact" true
        (records = [ (1L, "alpha"); (2L, "beta") ]);
      (* re-opening for append truncates the torn bytes so new records
         stay reachable *)
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "reopen: %s" e
      | Ok j ->
          S.Journal.append j ~key:3L ~value:"gamma";
          S.Journal.close j);
      let n, records = journal_records path in
      Alcotest.(check int) "post-crash append reachable" 3 n;
      Alcotest.(check bool)
        "tail is the new record" true
        (List.nth records 2 = (3L, "gamma")))

let test_journal_bad_header () =
  with_temp "foreign" (fun path ->
      let oc = open_out_bin path in
      output_string oc "SOME-OTHER-FORMAT v9\nxxxxxxxxxxxxxxxx";
      close_out oc;
      (match S.Journal.replay path ~f:(fun ~key:_ ~value:_ -> ()) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "foreign header must not replay");
      (* open_append starts a fresh v1 journal over it *)
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "open over foreign: %s" e
      | Ok j ->
          S.Journal.append j ~key:7L ~value:"fresh";
          S.Journal.close j);
      let n, records = journal_records path in
      Alcotest.(check int) "fresh journal replays" 1 n;
      Alcotest.(check bool) "record" true (records = [ (7L, "fresh") ]))

let test_journal_crc_corruption () =
  with_temp "crc" (fun path ->
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "open: %s" e
      | Ok j ->
          S.Journal.append j ~key:1L ~value:"alpha";
          S.Journal.append j ~key:2L ~value:"beta";
          S.Journal.append j ~key:3L ~value:"gamma";
          S.Journal.close j);
      (* flip one byte inside the middle record's payload: the framing
         stays intact, the checksum no longer matches *)
      let contents =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Bytes.of_string s
      in
      let idx =
        let s = Bytes.to_string contents in
        let rec find i =
          if i + 4 > String.length s then
            Alcotest.fail "payload not found in journal"
          else if String.sub s i 4 = "beta" then i
          else find (i + 1)
        in
        find 0
      in
      Bytes.set contents (idx + 1)
        (Char.chr (Char.code (Bytes.get contents (idx + 1)) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc contents;
      close_out oc;
      (* replay skips exactly the corrupt record and keeps going *)
      let n, records = journal_records path in
      Alcotest.(check int) "corrupt record skipped" 2 n;
      Alcotest.(check bool)
        "later record still replayed" true
        (records = [ (1L, "alpha"); (3L, "gamma") ]);
      (* re-opening for append keeps the file: framing is sound, so new
         records land after the (still-skipped) corrupt one *)
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "reopen: %s" e
      | Ok j ->
          S.Journal.append j ~key:4L ~value:"delta";
          S.Journal.close j);
      let n, records = journal_records path in
      Alcotest.(check int) "append after corruption reachable" 3 n;
      Alcotest.(check bool)
        "tail is the new record" true
        (List.nth records 2 = (4L, "delta")))

let test_journal_torn_write_fault () =
  with_temp "fault" (fun path ->
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "open: %s" e
      | Ok j ->
          S.Journal.append j ~key:1L ~value:"alpha";
          (* inject a crash mid-append: half the payload, no checksum *)
          Repro_resilience.Faults.arm ~seed:9
            ~points:
              [
                ( "journal_torn_write",
                  { Repro_resilience.Faults.prob = 1.; limit = Some 1 } );
              ];
          Fun.protect ~finally:Repro_resilience.Faults.disarm (fun () ->
              S.Journal.append j ~key:2L ~value:"torn-away");
          S.Journal.close j);
      (* replay recovers the committed prefix *)
      let n, records = journal_records path in
      Alcotest.(check int) "committed prefix recovered" 1 n;
      Alcotest.(check bool) "record intact" true (records = [ (1L, "alpha") ]);
      (* open_append truncates the torn tail; appends are reachable again *)
      (match S.Journal.open_append path with
      | Error e -> Alcotest.failf "reopen: %s" e
      | Ok j ->
          S.Journal.append j ~key:3L ~value:"gamma";
          S.Journal.close j);
      let n, records = journal_records path in
      Alcotest.(check int) "post-recovery append reachable" 2 n;
      Alcotest.(check bool)
        "records" true
        (records = [ (1L, "alpha"); (3L, "gamma") ]))

let test_cache_journal_restart () =
  with_temp "cachej" (fun path ->
      let encode = string_of_int and decode = int_of_string_opt in
      let c1 = Cache.create ~shards:4 () in
      (match Cache.with_journal c1 ~path ~encode ~decode with
      | Ok 0 -> ()
      | Ok n -> Alcotest.failf "fresh journal replayed %d" n
      | Error e -> Alcotest.failf "with_journal: %s" e);
      List.iter
        (fun i -> Cache.insert c1 (key_of_int i) ~cost_bytes:8 (i * 10))
        [ 1; 2; 3; 4; 5 ];
      Cache.close c1;
      (* restart: a fresh cache replays every committed insert *)
      let c2 = Cache.create ~shards:4 () in
      (match Cache.with_journal c2 ~path ~encode ~decode with
      | Ok 5 -> ()
      | Ok n -> Alcotest.failf "replayed %d records, wanted 5" n
      | Error e -> Alcotest.failf "with_journal: %s" e);
      List.iter
        (fun i ->
          Alcotest.(check (option int))
            (Printf.sprintf "key %d restored" i)
            (Some (i * 10))
            (Cache.find c2 (key_of_int i)))
        [ 1; 2; 3; 4; 5 ];
      Cache.close c2)

(* ------------------------------------------------------------------ *)
(* Daemon end to end                                                   *)
(* ------------------------------------------------------------------ *)

let b4_dp_instance =
  {
    S.Protocol.topology = "b4";
    paths = 2;
    heuristic = S.Protocol.Dp { threshold_frac = 0.05 };
  }

let expect_ok name = function
  | Error e -> Alcotest.failf "%s: transport: %s" name e
  | Ok response ->
      (match Json.member "ok" response with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.failf "%s: %s" name (Json.to_string response));
      response

let with_daemon config f =
  let ready_gate = gate () in
  let outcome = ref (Error "daemon never ran") in
  let t =
    Thread.create
      (fun () ->
        outcome := S.Daemon.run ~ready:(fun () -> gate_open ready_gate) config;
        (* unblock the test if run () failed before ready *)
        gate_open ready_gate)
      ()
  in
  gate_wait ready_gate;
  Fun.protect
    ~finally:(fun () ->
      (* make sure the daemon is really gone even if [f] failed early *)
      (match S.Client.with_connection config.S.Daemon.socket_path (fun c ->
           S.Client.call c S.Protocol.Shutdown)
       with
      | _ -> ());
      Thread.join t;
      match !outcome with
      | Ok () -> ()
      | Error e -> Alcotest.failf "daemon exited with: %s" e)
    (fun () -> f config.S.Daemon.socket_path)

let test_daemon_roundtrip () =
  let socket_path = temp_path "d1.sock" in
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      let result =
        S.Client.with_connection sock (fun c ->
            let ping = expect_ok "ping" (S.Client.call c S.Protocol.Ping) in
            Alcotest.(check (option bool))
              "pong" (Some true)
              (Option.bind (Json.member "pong" ping) Json.bool);
            let evaluate () =
              S.Client.call c
                (S.Protocol.Evaluate
                   {
                     instance = b4_dp_instance;
                     demand = S.Protocol.Gen { gen = `Gravity; seed = 2 };
                     deadline = None;
                   })
            in
            let first = expect_ok "evaluate#1" (evaluate ()) in
            Alcotest.(check (option bool))
              "first is computed" (Some false)
              (Option.bind (Json.member "cached" first) Json.bool);
            let second = expect_ok "evaluate#2" (evaluate ()) in
            Alcotest.(check (option bool))
              "second is cached" (Some true)
              (Option.bind (Json.member "cached" second) Json.bool);
            (* identical result payloads, modulo the serving annotations *)
            let strip j =
              match j with
              | Json.Obj l ->
                  Json.Obj
                    (List.filter
                       (fun (k, _) -> k <> "cached" && k <> "coalesced")
                       l)
              | j -> j
            in
            Alcotest.(check bool)
              "bit-identical payload" true
              (strip first = strip second);
            let stats = expect_ok "stats" (S.Client.call c S.Protocol.Stats) in
            let hits =
              Option.bind (Json.member "result_cache" stats) (Json.obj_int "hits")
            in
            Alcotest.(check (option int)) "one result-cache hit" (Some 1) hits;
            (* malformed request -> structured error, connection lives on *)
            (match S.Client.request c (Json.Obj [ ("op", Json.Str "nope") ]) with
            | Ok response ->
                Alcotest.(check (option bool))
                  "bad op rejected" (Some false)
                  (Option.bind (Json.member "ok" response) Json.bool)
            | Error e -> Alcotest.failf "bad op: transport: %s" e);
            ignore (expect_ok "ping after error" (S.Client.call c S.Protocol.Ping)))
      in
      match result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "connect: %s" e)

let test_daemon_find_gap_and_unknown_topology () =
  let socket_path = temp_path "d2.sock" in
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      let result =
        S.Client.with_connection sock (fun c ->
            let fg =
              expect_ok "find-gap"
                (S.Client.call c
                   (S.Protocol.Find_gap
                      {
                        instance =
                          {
                            S.Protocol.topology = "fig1";
                            paths = 2;
                            heuristic = S.Protocol.Dp { threshold_frac = 0.26 };
                          };
                        method_ = S.Protocol.Hillclimb;
                        time = 0.3;
                        seed = 3;
                        deadline = None;
                        degrade = false;
                      }))
            in
            Alcotest.(check bool)
              "gap reported" true
              (Option.is_some (Json.obj_num "gap" fg));
            match
              S.Client.call c
                (S.Protocol.Evaluate
                   {
                     instance =
                       {
                         S.Protocol.topology = "no-such-net";
                         paths = 2;
                         heuristic = S.Protocol.Dp { threshold_frac = 0.05 };
                       };
                     demand = S.Protocol.Gen { gen = `Uniform; seed = 1 };
                     deadline = None;
                   })
            with
            | Ok response ->
                Alcotest.(check (option string))
                  "bad-request code" (Some "bad-request")
                  (Option.bind
                     (Json.member "error" response)
                     (Json.obj_str "code"))
            | Error e -> Alcotest.failf "transport: %s" e)
      in
      match result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "connect: %s" e)

(* A white-box find-gap answers with a proven bound: on fig1 DP at the
   default threshold the tree closes, so gap = upper_bound = 18, and the
   reply counts the oracle calls the search made. *)
let test_daemon_whitebox_bound () =
  let socket_path = temp_path "d8.sock" in
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      let result =
        S.Client.with_connection sock (fun c ->
            expect_ok "find-gap"
              (S.Client.call c
                 (S.Protocol.Find_gap
                    {
                      instance =
                        {
                          S.Protocol.topology = "fig1";
                          paths = 2;
                          heuristic = S.Protocol.Dp { threshold_frac = 0.05 };
                        };
                      method_ = S.Protocol.Whitebox;
                      time = 5.;
                      seed = 1;
                      deadline = None;
                      degrade = false;
                    })))
      in
      match result with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok fg ->
          Alcotest.(check (option (float 1e-6))) "gap" (Some 18.)
            (Json.obj_num "gap" fg);
          Alcotest.(check (option (float 1e-6))) "upper_bound" (Some 18.)
            (Json.obj_num "upper_bound" fg);
          Alcotest.(check bool) "oracle calls counted" true
            (match Json.obj_num "oracle_calls" fg with
            | Some n -> n > 0.
            | None -> false))

let test_daemon_persistent_cache () =
  let socket_path = temp_path "d3.sock" in
  let cache_dir = temp_path "d3-cache" in
  let config =
    { (S.Daemon.default_config ~socket_path) with S.Daemon.cache_dir = Some cache_dir }
  in
  let evaluate sock =
    match
      S.Client.with_connection sock (fun c ->
          expect_ok "evaluate"
            (S.Client.call c
               (S.Protocol.Evaluate
                  {
                    instance = b4_dp_instance;
                    demand = S.Protocol.Gen { gen = `Uniform; seed = 5 };
                    deadline = None;
                  })))
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "connect: %s" e
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun name ->
          let j = Filename.concat cache_dir name in
          if Sys.file_exists j then Sys.remove j)
        [ S.Daemon.journal_file; S.Daemon.basis_journal_file ];
      if Sys.file_exists cache_dir then Unix.rmdir cache_dir)
    (fun () ->
      with_daemon config (fun sock ->
          let r = evaluate sock in
          Alcotest.(check (option bool))
            "cold run computes" (Some false)
            (Option.bind (Json.member "cached" r) Json.bool));
      (* restart the daemon on the same cache dir: the journal replays
         and the very first query is already warm *)
      with_daemon config (fun sock ->
          let r = evaluate sock in
          Alcotest.(check (option bool))
            "replayed journal serves the first query" (Some true)
            (Option.bind (Json.member "cached" r) Json.bool)))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      close a;
      close b)
    (fun () -> f a b)

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

(* Hand-rolled frame: independent of write_frame, so an encoder bug
   can't cancel out a matching decoder bug. *)
let frame payload = be32 (String.length payload) ^ payload

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads = [ "hello"; ""; String.make 70_000 'x'; "{\"op\":\"ping\"}" ] in
      let writer = Thread.create (fun () ->
          List.iter (S.Protocol.write_frame a) payloads;
          Unix.close a)
          ()
      in
      List.iter
        (fun expected ->
          match S.Protocol.read_frame b with
          | Ok (Some p) ->
              Alcotest.(check bool)
                "payload intact" true (String.equal p expected)
          | Ok None -> Alcotest.fail "premature EOF"
          | Error e -> Alcotest.failf "read: %s" e)
        payloads;
      (match S.Protocol.read_frame b with
      | Ok None -> ()
      | _ -> Alcotest.fail "clean close must read as EOF");
      Thread.join writer)

let read_one bytes =
  with_socketpair (fun a b ->
      write_all a bytes;
      Unix.close a;
      S.Protocol.read_frame b)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_frame_errors () =
  (* the length is refused from the header alone: no payload follows,
     so a decoder that allocated and read first would report "torn" *)
  (match read_one (be32 (S.Protocol.max_frame + 1)) with
  | Error e when contains ~sub:"exceeds limit" e -> ()
  | Error e -> Alcotest.failf "oversized length: wrong error %S" e
  | Ok _ -> Alcotest.fail "oversized length accepted");
  (match read_one "\x00\x00" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn header not reported");
  let f = frame "payload" in
  match read_one (String.sub f 0 (String.length f - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn payload not reported"

(* Arbitrary bytes at the decoder: any outcome is fine except an
   exception or a hang (the writer side is closed, so a correct decoder
   always terminates). *)
let qcheck_frame_garbage =
  QCheck.Test.make ~count:200 ~name:"frame decoder survives garbage"
    QCheck.(string_of Gen.char)
    (fun junk ->
      match read_one junk with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* Every strict prefix of a valid frame is torn (or clean EOF at 0). *)
let qcheck_frame_truncation =
  QCheck.Test.make ~count:100 ~name:"truncated frames read as torn"
    QCheck.(pair (string_of Gen.char) (float_bound_inclusive 1.))
    (fun (payload, frac) ->
      let f = frame payload in
      let cut = int_of_float (frac *. float_of_int (String.length f)) in
      let cut = max 0 (min (String.length f) cut) in
      match read_one (String.sub f 0 cut) with
      | Ok None -> cut = 0
      | Ok (Some p) -> cut = String.length f && String.equal p payload
      | Error _ -> cut > 0 && cut < String.length f)

(* A peer that trickles its frames out one byte per write: every read
   on the decoder side is short, and the payloads still arrive whole. *)
let test_frame_short_reads () =
  with_socketpair (fun a b ->
      let payloads = [ "{\"op\":\"ping\"}"; String.make 300 'y' ] in
      let writer =
        Thread.create
          (fun () ->
            String.iter
              (fun ch ->
                write_all a (String.make 1 ch);
                Thread.yield ())
              (String.concat "" (List.map frame payloads));
            Unix.close a)
          ()
      in
      List.iter
        (fun expected ->
          match S.Protocol.read_frame b with
          | Ok (Some p) ->
              Alcotest.(check bool) "payload intact" true (String.equal p expected)
          | Ok None -> Alcotest.fail "premature EOF"
          | Error e -> Alcotest.failf "read: %s" e)
        payloads;
      Thread.join writer)

(* Several frames in one write: the decoder takes exactly one frame per
   call and never reads into the next. *)
let test_frame_back_to_back () =
  let payloads = [ "first"; ""; "third" ] in
  let rec drain acc b =
    match S.Protocol.read_frame b with
    | Ok (Some p) -> drain (p :: acc) b
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "read: %s" e
  in
  with_socketpair (fun a b ->
      write_all a (String.concat "" (List.map frame payloads));
      Unix.close a;
      Alcotest.(check (list string)) "frames in order" payloads (drain [] b))

(* ------------------------------------------------------------------ *)
(* Request codec                                                       *)
(* ------------------------------------------------------------------ *)

let sample_requests =
  let pop =
    {
      S.Protocol.topology = "fig1";
      paths = 3;
      heuristic = S.Protocol.Pop { parts = 2; instances = 4; seed = 9 };
    }
  in
  [
    S.Protocol.Ping;
    S.Protocol.Stats;
    S.Protocol.Shutdown;
    S.Protocol.Evaluate
      {
        instance = b4_dp_instance;
        demand = S.Protocol.Gen { gen = `Bimodal; seed = 4 };
        deadline = Some 2.5;
      };
    S.Protocol.Evaluate
      {
        instance = pop;
        demand = S.Protocol.Csv "0,1,3.5\n1,2,0.1\n";
        deadline = None;
      };
    S.Protocol.Evaluate
      {
        instance = pop;
        demand = S.Protocol.Entries [ (0, 1, 1.5); (2, 0, 1e-3) ];
        deadline = None;
      };
    S.Protocol.Find_gap
      {
        instance = b4_dp_instance;
        method_ = S.Protocol.Whitebox;
        time = 0.75;
        seed = 12;
        deadline = Some 3.;
        degrade = true;
      };
    S.Protocol.Find_gap
      {
        instance = pop;
        method_ = S.Protocol.Annealing;
        time = 10.;
        seed = 1;
        deadline = None;
        degrade = false;
      };
  ]

(* What the client sends is what the daemon parses, through the wire
   text and back. *)
let test_request_roundtrip () =
  List.iter
    (fun req ->
      let text = Json.to_string (S.Protocol.request_to_json req) in
      match Result.bind (Json.of_string text) S.Protocol.request_of_json with
      | Ok back ->
          Alcotest.(check bool) (Printf.sprintf "round trip of %s" text) true
            (back = req)
      | Error e -> Alcotest.failf "%s: %s" text e)
    sample_requests

let test_request_rejects () =
  let instance = {|"topology":"b4","heuristic":{"kind":"dp"}|} in
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error e -> Alcotest.failf "test JSON %s: %s" text e
      | Ok j -> (
          match S.Protocol.request_of_json j with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %s" text))
    [
      {|[]|};
      {|{"op":"reboot"}|};
      {|{"op":"evaluate","heuristic":{"kind":"dp"},"demands":{"gen":"uniform"}}|};
      {|{"op":"evaluate","topology":"b4","demands":{"gen":"uniform"}}|};
      {|{"op":"evaluate","topology":"b4","heuristic":{"kind":"ffd"},"demands":{"gen":"uniform"}}|};
      {|{"op":"evaluate","topology":"b4","heuristic":{"kind":"pop","parts":0},"demands":{"gen":"uniform"}}|};
      {|{"op":"evaluate","topology":"b4","paths":0,"heuristic":{"kind":"dp"},"demands":{"gen":"uniform"}}|};
      "{\"op\":\"evaluate\"," ^ instance ^ "}";
      "{\"op\":\"evaluate\"," ^ instance ^ {|,"demands":{"gen":"zipf"}}|};
      "{\"op\":\"evaluate\"," ^ instance ^ {|,"demands":{"entries":[[0,1]]}}|};
      "{\"op\":\"evaluate\"," ^ instance ^ {|,"demands":{}}|};
      "{\"op\":\"evaluate\"," ^ instance ^ {|,"demands":{"gen":"uniform"},"deadline":0}|};
      "{\"op\":\"find-gap\"," ^ instance ^ "}";
      "{\"op\":\"find-gap\"," ^ instance ^ {|,"method":"guess"}|};
      "{\"op\":\"find-gap\"," ^ instance ^ {|,"method":"sweep"}|};
      "{\"op\":\"find-gap\"," ^ instance ^ {|,"method":"portfolio"}|};
      "{\"op\":\"find-gap\"," ^ instance ^ {|,"method":"whitebox","time":0}|};
      "{\"op\":\"find-gap\"," ^ instance ^ {|,"method":"whitebox","degrade":true}|};
    ]

(* Find-gap takes exactly the three wire methods, each parsed back to
   the method whose wire name it is. *)
let test_request_methods () =
  let instance = {|"topology":"b4","heuristic":{"kind":"dp"}|} in
  List.iter
    (fun m ->
      let name = S.Protocol.method_to_string m in
      let text =
        "{\"op\":\"find-gap\"," ^ instance ^ ",\"method\":\"" ^ name ^ "\"}"
      in
      match Result.bind (Json.of_string text) S.Protocol.request_of_json with
      | Ok (S.Protocol.Find_gap { method_; _ }) ->
          Alcotest.(check bool) (name ^ " parsed") true (method_ = m)
      | Ok _ -> Alcotest.failf "%s: not a find-gap" text
      | Error e -> Alcotest.failf "%s: %s" text e)
    [ S.Protocol.Whitebox; S.Protocol.Hillclimb; S.Protocol.Annealing ];
  Alcotest.(check (list string)) "wire names"
    [ "whitebox"; "hillclimb"; "annealing" ]
    (List.map S.Protocol.method_to_string
       [ S.Protocol.Whitebox; S.Protocol.Hillclimb; S.Protocol.Annealing ])

(* Garbage, an oversized length header and a torn frame, each on its
   own connection to the daemon's socket: every such connection ends
   without a reply, and the daemon keeps answering fresh clients. *)
let test_daemon_bad_frames () =
  let socket_path = temp_path "d4.sock" in
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      List.iter
        (fun (what, bytes) ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX sock);
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
              write_all fd bytes;
              Unix.shutdown fd Unix.SHUTDOWN_SEND;
              match Unix.read fd (Bytes.create 64) 0 64 with
              | 0 -> ()
              | n -> Alcotest.failf "%s: daemon replied %d bytes" what n
              | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
                ->
                  ()
              | exception Unix.Unix_error (e, _, _) ->
                  Alcotest.failf "%s: connection did not end: %s" what
                    (Unix.error_message e));
          match
            S.Client.with_connection sock (fun c ->
                expect_ok "ping" (S.Client.call c S.Protocol.Ping))
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: daemon dead: %s" what e)
        [
          ("garbage", "this is not a frame at all");
          ("oversized", be32 (S.Protocol.max_frame + 77));
          ("torn", String.sub (frame "{\"op\":\"ping\"}") 0 9);
        ])

(* Identical evaluate queries from four clients at once cost one solve:
   the rest are served from the in-flight solve or the cache, with the
   same payload. *)
let test_daemon_concurrent_once () =
  let socket_path = temp_path "d5.sock" in
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      let query () =
        Result.join
          (S.Client.with_connection sock (fun c ->
               S.Client.call c
                 (S.Protocol.Evaluate
                    {
                      instance = b4_dp_instance;
                      demand = S.Protocol.Gen { gen = `Bimodal; seed = 6 };
                      deadline = None;
                    })))
      in
      let replies = Array.make 4 (Error "no reply") in
      let threads =
        List.init 4 (fun i -> Thread.create (fun () -> replies.(i) <- query ()) ())
      in
      List.iter Thread.join threads;
      let opts =
        Array.to_list
          (Array.map (fun r -> Json.obj_num "opt" (expect_ok "evaluate" r)) replies)
      in
      Alcotest.(check bool)
        "one answer" true
        (List.for_all (fun o -> o = List.hd opts && o <> None) opts);
      match
        S.Client.with_connection sock (fun c ->
            expect_ok "stats" (S.Client.call c S.Protocol.Stats))
      with
      | Error e -> Alcotest.failf "stats: %s" e
      | Ok stats ->
          let sched k = Option.bind (Json.member "scheduler" stats) (Json.obj_int k) in
          Alcotest.(check (option int)) "one solve" (Some 1) (sched "executed");
          Alcotest.(check (option int)) "four submitted" (Some 4) (sched "submitted");
          Alcotest.(check (option int))
            "three served without solving" (Some 3)
            (match (sched "cache_hits", sched "dedup_hits") with
            | Some c, Some d -> Some (c + d)
            | _ -> None);
          Alcotest.(check bool)
            "oracle cache reported" true
            (Option.is_some
               (Option.bind (Json.member "oracle_cache" stats) (Json.obj_int "misses"))))

(* Each cold evaluate stores one oracle value, its OPT; the heuristic
   value lives only in the result cache's answer. A repeated request is
   answered from that stored answer with the cold reply's numbers. *)
let test_daemon_oracle_cache_opt_only () =
  let socket_path = temp_path "d7.sock" in
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      let seeds = [ 11; 12; 13 ] in
      let evaluate c seed =
        expect_ok "evaluate"
          (S.Client.call c
             (S.Protocol.Evaluate
                {
                  instance = b4_dp_instance;
                  demand = S.Protocol.Gen { gen = `Gravity; seed };
                  deadline = None;
                }))
      in
      let numbers r =
        List.map (fun k -> Json.obj_num k r) [ "opt"; "heuristic"; "gap" ]
      in
      let result =
        S.Client.with_connection sock (fun c ->
            let cold = List.map (evaluate c) seeds in
            let stats = expect_ok "stats" (S.Client.call c S.Protocol.Stats) in
            let inserts cache =
              Option.bind (Json.member cache stats) (Json.obj_int "inserts")
            in
            Alcotest.(check (option int))
              "one oracle insert per cold evaluate"
              (Some (List.length seeds))
              (inserts "oracle_cache");
            Alcotest.(check (option int))
              "one result insert per cold evaluate"
              (Some (List.length seeds))
              (inserts "result_cache");
            let warm = evaluate c (List.hd seeds) in
            Alcotest.(check (option bool))
              "repeat is cached" (Some true)
              (Option.bind (Json.member "cached" warm) Json.bool);
            Alcotest.(check (list (option (float 0.))))
              "repeat has the cold numbers"
              (numbers (List.hd cold))
              (numbers warm);
            Alcotest.(check bool)
              "cold reply has a heuristic value" true
              (Option.is_some (Json.obj_num "heuristic" (List.hd cold))))
      in
      match result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "connect: %s" e)

(* A leftover file at the socket path does not stop the daemon, and a
   clean shutdown removes the socket again. *)
let test_daemon_stale_socket () =
  let socket_path = temp_path "d6.sock" in
  Out_channel.with_open_bin socket_path (fun oc -> output_string oc "stale");
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      match
        S.Client.with_connection sock (fun c ->
            expect_ok "ping" (S.Client.call c S.Protocol.Ping))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ping: %s" e);
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path)

(* Shutdown drains a connection that sits idle between requests: the
   daemon exits, and that client's next request fails on the transport. *)
let test_daemon_drains_idle () =
  let socket_path = temp_path "d7.sock" in
  let idle = ref None in
  with_daemon (S.Daemon.default_config ~socket_path) (fun sock ->
      match S.Client.connect_typed sock with
      | Error e -> Alcotest.failf "connect: %s" (S.Client.error_to_string e)
      | Ok c ->
          idle := Some c;
          ignore (expect_ok "ping" (S.Client.call c S.Protocol.Ping)));
  match !idle with
  | None -> Alcotest.fail "no idle connection"
  | Some c ->
      Fun.protect
        ~finally:(fun () -> S.Client.close c)
        (fun () ->
          match S.Client.call_typed c S.Protocol.Ping with
          | Error (S.Client.Io _) -> ()
          | Ok _ -> Alcotest.fail "idle connection outlived the daemon"
          | Error e ->
              Alcotest.failf "unexpected error class: %s"
                (S.Client.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

(* A one-connection stand-in for the daemon: [serve] runs on the
   accepted connection in its own thread. Waits at most 5s for the
   connection, so a client that never dials cannot hang the test. *)
let with_fake_daemon suffix serve f =
  let path = temp_path suffix in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let server =
    Thread.create
      (fun () ->
        match Unix.select [ lfd ] [] [] 5.0 with
        | [], _, _ -> ()
        | _ ->
            let fd, _ = Unix.accept lfd in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () -> try serve fd with Unix.Unix_error _ -> ()))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close lfd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      match S.Client.connect_typed path with
      | Error e -> Alcotest.failf "connect: %s" (S.Client.error_to_string e)
      | Ok c -> Fun.protect ~finally:(fun () -> S.Client.close c) (fun () -> f c))

(* Nothing at the path and a socket file nobody listens on both read as
   the retryable [Connect_refused], before and after retries. *)
let test_client_refused () =
  let check_refused what = function
    | Error (S.Client.Connect_refused _ as e) ->
        Alcotest.(check int) (what ^ ": exit code") 3 (S.Client.exit_code e)
    | Error e -> Alcotest.failf "%s: %s" what (S.Client.error_to_string e)
    | Ok c ->
        S.Client.close c;
        Alcotest.failf "%s: connected" what
  in
  let missing = temp_path "nobody.sock" in
  (try Unix.unlink missing with Unix.Unix_error _ -> ());
  check_refused "missing" (S.Client.connect_typed missing);
  let dead = temp_path "dead.sock" in
  (try Unix.unlink dead with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX dead);
  Unix.close fd;
  Fun.protect
    ~finally:(fun () -> Unix.unlink dead)
    (fun () ->
      check_refused "no listener" (S.Client.connect_typed dead);
      check_refused "after retries"
        (S.Client.connect_retry
           ~policy:
             {
               Repro_resilience.Retry.retries = 2;
               base = 0.01;
               factor = 2.;
               max_delay = 0.05;
               jitter = 0.;
             }
           dead))

(* A daemon that comes up after the client starts dialling is reached
   by the retry loop. *)
let test_client_retry_late_daemon () =
  let socket_path = temp_path "late.sock" in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let outcome = ref (Error "daemon never ran") in
  let daemon =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        outcome := S.Daemon.run (S.Daemon.default_config ~socket_path))
      ()
  in
  let policy =
    {
      Repro_resilience.Retry.retries = 8;
      base = 0.05;
      factor = 2.;
      max_delay = 0.5;
      jitter = 0.;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (S.Client.with_connection socket_path (fun c ->
             S.Client.call c S.Protocol.Shutdown));
      Thread.join daemon;
      match !outcome with
      | Ok () -> ()
      | Error e -> Alcotest.failf "daemon exited with: %s" e)
    (fun () ->
      match S.Client.connect_retry ~policy socket_path with
      | Error e -> Alcotest.failf "connect: %s" (S.Client.error_to_string e)
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> S.Client.close c)
            (fun () ->
              match S.Client.call_typed c S.Protocol.Ping with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "ping: %s" (S.Client.error_to_string e)))

(* Each reply class maps to its own error and CLI exit code: bytes that
   are not JSON and JSON without "ok" are malformed, {"ok":false} is an
   application error (deadline-exceeded has its own code), and a daemon
   that hangs up mid-request is a transport failure. *)
let test_client_reply_classes () =
  let replies =
    [
      "not json";
      {|{"pong":true}|};
      {|{"ok":false,"error":{"code":"deadline-exceeded","message":"late"}}|};
      {|{"ok":false,"error":{"code":"overloaded","message":"full"}}|};
    ]
  in
  with_fake_daemon "fake1.sock"
    (fun fd ->
      List.iter
        (fun reply ->
          match S.Protocol.read_frame fd with
          | Ok (Some _) -> S.Protocol.write_frame fd reply
          | _ -> ())
        replies;
      (* take one more request and hang up without answering *)
      ignore (S.Protocol.read_frame fd))
    (fun c ->
      let outcomes =
        List.init (List.length replies + 1) (fun _ ->
            S.Client.call_typed c S.Protocol.Ping)
      in
      Alcotest.(check (list int))
        "exit codes" [ 5; 5; 4; 2; 1 ]
        (List.map
           (function Ok _ -> 0 | Error e -> S.Client.exit_code e)
           outcomes);
      match List.nth outcomes 3 with
      | Error (S.Client.App_error { code = "overloaded"; message = "full" }) -> ()
      | _ -> Alcotest.fail "application error not carried through")

(* A daemon that accepts and never answers surfaces as [Io] once the
   socket timeout passes, instead of blocking the client forever. *)
let test_client_timeout () =
  with_fake_daemon "fake2.sock"
    (fun fd ->
      (* swallow the request, then wait for the client to hang up *)
      ignore (S.Protocol.read_frame fd);
      ignore (S.Protocol.read_frame fd))
    (fun c ->
      S.Client.set_timeouts c 0.2;
      let t0 = Unix.gettimeofday () in
      match S.Client.call_typed c S.Protocol.Ping with
      | Error (S.Client.Io _) ->
          Alcotest.(check bool)
            "gave up promptly" true
            (Unix.gettimeofday () -. t0 < 4.)
      | Ok _ -> Alcotest.fail "reply from a silent daemon"
      | Error e -> Alcotest.failf "wrong class: %s" (S.Client.error_to_string e))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repro_serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_json_errors;
          Alcotest.test_case "floats bit-exact" `Quick test_json_float_exact;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "demand permutation stable" `Quick
            test_fingerprint_demand_permutation;
          Alcotest.test_case "edge insertion order stable" `Quick
            test_fingerprint_edge_order;
          Alcotest.test_case "instance sensitivity" `Quick
            test_fingerprint_instance_sensitivity;
          Alcotest.test_case "hex roundtrip" `Quick test_fingerprint_hex;
          QCheck_alcotest.to_alcotest qcheck_fingerprint_permutation;
        ] );
      ( "solve-cache",
        [
          Alcotest.test_case "LRU eviction + byte ledger" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "replacement and oversize" `Quick
            test_cache_replace_and_oversize;
          Alcotest.test_case "concurrent hit/miss (4 domains)" `Quick
            test_cache_concurrent;
          Alcotest.test_case "oracle cache shares OPT across heuristics"
            `Quick test_oracle_cache_opt_shared;
          QCheck_alcotest.to_alcotest qcheck_cache_model;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "in-flight dedup runs once" `Quick
            test_scheduler_dedup_once;
          Alcotest.test_case "cache hits and backpressure" `Quick
            test_scheduler_cache_and_backpressure;
          Alcotest.test_case "failed job isolated" `Quick
            test_scheduler_failure_isolated;
          Alcotest.test_case "lone requests run side by side on a pool" `Quick
            test_scheduler_concurrent_dispatch;
          Alcotest.test_case "concurrent burst forms a batch" `Quick
            test_scheduler_batch_admission;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncated tail tolerated" `Quick
            test_journal_truncated_tail;
          Alcotest.test_case "foreign header rejected" `Quick
            test_journal_bad_header;
          Alcotest.test_case "corrupt record skipped on replay" `Quick
            test_journal_crc_corruption;
          Alcotest.test_case "torn-write fault recovered" `Quick
            test_journal_torn_write_fault;
          Alcotest.test_case "cache journal restart" `Quick
            test_cache_journal_restart;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "evaluate round trip + cache" `Quick
            test_daemon_roundtrip;
          Alcotest.test_case "find-gap + bad request" `Quick
            test_daemon_find_gap_and_unknown_topology;
          Alcotest.test_case "whitebox find-gap is proven" `Quick
            test_daemon_whitebox_bound;
          Alcotest.test_case "journal survives restart" `Quick
            test_daemon_persistent_cache;
          Alcotest.test_case "bad frames dropped, daemon lives" `Quick
            test_daemon_bad_frames;
          Alcotest.test_case "identical concurrent queries solve once" `Quick
            test_daemon_concurrent_once;
          Alcotest.test_case "evaluate caches OPT only" `Quick
            test_daemon_oracle_cache_opt_only;
          Alcotest.test_case "stale socket replaced, removed on exit" `Quick
            test_daemon_stale_socket;
          Alcotest.test_case "shutdown drains idle connections" `Quick
            test_daemon_drains_idle;
        ] );
      ( "framing",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame errors" `Quick test_frame_errors;
          QCheck_alcotest.to_alcotest qcheck_frame_garbage;
          QCheck_alcotest.to_alcotest qcheck_frame_truncation;
          Alcotest.test_case "short reads reassembled" `Quick
            test_frame_short_reads;
          Alcotest.test_case "back-to-back frames split" `Quick
            test_frame_back_to_back;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request json round trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejects;
          Alcotest.test_case "find-gap methods" `Quick test_request_methods;
        ] );
      ( "client",
        [
          Alcotest.test_case "refused connect typed" `Quick test_client_refused;
          Alcotest.test_case "retry reaches a late daemon" `Quick
            test_client_retry_late_daemon;
          Alcotest.test_case "reply classes and exit codes" `Quick
            test_client_reply_classes;
          Alcotest.test_case "silent daemon times out" `Quick
            test_client_timeout;
        ] );
    ]
