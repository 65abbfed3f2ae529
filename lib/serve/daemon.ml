open Repro_topology
open Repro_te
open Repro_metaopt
module Engine = Repro_engine
module Resilience = Repro_resilience

type config = {
  socket_path : string;
  jobs : int;
  cache_mb : int;
  cache_dir : string option;
  queue_limit : int;
  batch_max : int;
  shards : int;
  heartbeat_timeout : float option;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = 1;
    cache_mb = 64;
    cache_dir = None;
    queue_limit = 256;
    batch_max = 16;
    shards = 8;
    heartbeat_timeout = None;
  }

let default_cache_dir () =
  let base =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> d
    | _ -> (
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> Filename.concat h ".cache"
        | _ -> Filename.get_temp_dir_name ())
  in
  Filename.concat base "repro-serve"

let journal_file = "solve-cache.journal"
let basis_journal_file = "basis-cache.journal"

(* ------------------------------------------------------------------ *)
(* server state                                                        *)
(* ------------------------------------------------------------------ *)

type state = {
  config : config;
  pool : Engine.Pool.t option;
  results : string Solve_cache.t;
  oracle : float option Solve_cache.t;
  bases : Basis_store.t option;
      (* cross-sweep basis snapshots (shared journal with the sweep
         CLI): cold OPT solves warm-start from the topology's final
         sweep basis instead of factorizing from scratch *)
  sched : string Scheduler.t;
  pathsets : (string * int, Pathset.t) Hashtbl.t;
  pathsets_mutex : Mutex.t;
  breaker : Resilience.Breaker.t;
  started : float;
  stop : bool Atomic.t;
  (* live connection registry: the drain nudges idle readers with a
     receive-side shutdown. Each fd is closed exactly once, by its own
     handler thread. *)
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_mutex : Mutex.t;
}

let pathset_of state ~topology ~paths g =
  Mutex.lock state.pathsets_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock state.pathsets_mutex)
    (fun () ->
      match Hashtbl.find_opt state.pathsets (topology, paths) with
      | Some p -> p
      | None ->
          let p = Pathset.compute (Demand.full_space g) ~k:paths in
          Hashtbl.replace state.pathsets (topology, paths) p;
          p)

let ( let* ) = Result.bind

(* Build the oracle for a protocol instance, sharing pathsets and the
   oracle-value cache. Mirrors the CLI's evaluator construction. *)
let build_evaluator state (inst : Protocol.instance) =
  match Topologies.by_name inst.Protocol.topology with
  | None -> Error (Printf.sprintf "unknown topology %S" inst.Protocol.topology)
  | Some g ->
      let pathset =
        pathset_of state ~topology:inst.Protocol.topology
          ~paths:inst.Protocol.paths g
      in
      let ev =
        match inst.Protocol.heuristic with
        | Protocol.Dp { threshold_frac } ->
            Evaluate.make_dp pathset
              ~threshold:(threshold_frac *. Graph.max_capacity g)
        | Protocol.Pop { parts; instances; seed } ->
            Evaluate.make_pop pathset ~parts ~instances
              ~rng:(Rng.create seed) ()
      in
      let ev = Evaluate.with_pool ev state.pool in
      let ev =
        match state.bases with
        | None -> ev
        | Some bs ->
            Evaluate.with_opt_basis ev
              (Basis_store.find bs
                 (Basis_store.key ~graph:g ~paths:inst.Protocol.paths
                    ~role:`Opt ()))
      in
      Ok
        (Oracle_cache.attach ~cache:state.oracle ~paths:inst.Protocol.paths ev,
         g)

let build_demand space g (spec : Protocol.demand_spec) =
  match spec with
  | Protocol.Gen { gen; seed } ->
      let rng = Rng.create seed in
      Ok
        (match gen with
        | `Uniform -> Demand.uniform space ~rng ~max:(0.5 *. Graph.max_capacity g)
        | `Gravity ->
            Demand.gravity space ~rng ~total:(0.5 *. Graph.total_capacity g)
        | `Bimodal ->
            Demand.bimodal space ~rng ~fraction_large:0.2
              ~small_max:(0.1 *. Graph.max_capacity g)
              ~large_max:(Graph.max_capacity g))
  | Protocol.Csv csv -> Demand.of_csv space csv
  | Protocol.Entries l ->
      let d = Demand.zero space in
      let rec fill = function
        | [] -> Ok d
        | (src, dst, v) :: rest -> (
            if v < 0. then
              Error (Printf.sprintf "negative volume for pair (%d,%d)" src dst)
            else
              match Demand.index space ~src ~dst with
              | Some k ->
                  d.(k) <- v;
                  fill rest
              | None ->
                  Error (Printf.sprintf "unknown pair (%d,%d)" src dst))
      in
      fill l

let demands_to_entries space d =
  let l = ref [] in
  Array.iteri
    (fun k v ->
      if v <> 0. then begin
        let s, dst = Demand.pair space k in
        l :=
          Json.List
            [ Json.Num (float_of_int s); Json.Num (float_of_int dst); Json.Num v ]
          :: !l
      end)
    d;
  Json.List (List.rev !l)

let trace_to_json trace =
  Json.List (List.map (fun (t, g) -> Json.List [ Json.Num t; Json.Num g ]) trace)

let group (inst : Protocol.instance) op =
  Printf.sprintf "%s/%s/%d" op inst.Protocol.topology inst.Protocol.paths

(* ---- the solves (run inside the scheduler's batches) --------------- *)

(* The heuristic value skips the oracle cache: the result cache already
   keys this answer on the same content (graph, paths, heuristic,
   demand). The OPT value stays cached, shared across heuristics. *)
let evaluate_job ev g demand () =
  let space = Pathset.space ev.Evaluate.pathset in
  let opt = Evaluate.opt_value ev demand in
  let heur = Evaluate.heuristic_value (Oracle_cache.detach ev) demand in
  Json.Obj
    [
      ("opt", Json.Num opt);
      ("heuristic", match heur with Some h -> Json.Num h | None -> Json.Null);
      ( "gap",
        match heur with Some h -> Json.Num (opt -. h) | None -> Json.Null );
      ( "normalized_gap",
        match heur with
        | Some h -> Json.Num ((opt -. h) /. Graph.total_capacity g)
        | None -> Json.Null );
      ("feasible", Json.Bool (heur <> None));
      ("demand_total", Json.Num (Demand.total demand));
      ("pairs", Json.Num (float_of_int (Demand.size space)));
    ]

(* [budget] (wall seconds, from degrade mode) bounds the solve itself:
   the whitebox MILPs run under a [Resilience.Deadline] and the search
   time limits shrink to it, so the job comes back with a best-so-far
   answer instead of the caller timing out empty-handed. *)
let find_gap_job ?pool ?budget ~jobs ev ~(method_ : Protocol.search_method)
    ~time ~seed () =
  let space = Pathset.space ev.Evaluate.pathset in
  let effective_time =
    match budget with Some b -> Float.min time b | None -> time
  in
  let degraded_fields tripped reason =
    if tripped then
      [ ("degraded", Json.Bool true); ("reason", Json.Str reason) ]
    else []
  in
  match method_ with
  | Protocol.Whitebox ->
      let deadline =
        Option.map (fun b -> Resilience.Deadline.create ~wall:b ()) budget
      in
      let options =
        {
          Adversary.default_options with
          jobs;
          bb =
            {
              Repro_lp.Branch_bound.default_options with
              time_limit = effective_time;
              stall_time = Float.max 2. (effective_time /. 4.);
              deadline;
            };
        }
      in
      let r = Adversary.find ev ~options ?pool () in
      let tripped =
        match Option.bind deadline Resilience.Deadline.tripped with
        | Some trip ->
            Some ("deadline: " ^ Resilience.Deadline.trip_to_string trip)
        | None -> None
      in
      Json.Obj
        ([
           ("gap", Json.Num r.Adversary.gap);
           ("normalized_gap", Json.Num r.Adversary.normalized_gap);
           ("opt", Json.Num r.Adversary.opt_value);
           ("heuristic", Json.Num r.Adversary.heuristic_value);
           ( "upper_bound",
             match r.Adversary.upper_bound with
             | Some ub -> Json.Num ub
             | None -> Json.Null );
           ( "oracle_calls",
             Json.Num (float_of_int r.Adversary.stats.Adversary.oracle_calls) );
           ("demands", demands_to_entries space r.Adversary.demands);
           ("trace", trace_to_json r.Adversary.trace);
         ]
        @ degraded_fields (tripped <> None)
            (Option.value ~default:"" tripped))
  | Protocol.Hillclimb | Protocol.Annealing ->
      let options = { Blackbox.default_options with time_limit = effective_time } in
      let rng = Rng.create seed in
      let r =
        match method_ with
        | Protocol.Hillclimb -> Blackbox.hill_climb ev ~rng ~options ()
        | _ -> Blackbox.simulated_annealing ev ~rng ~options ()
      in
      Json.Obj
        ([
           ("gap", Json.Num r.Blackbox.gap);
           ("normalized_gap", Json.Num r.Blackbox.normalized_gap);
           ("evaluations", Json.Num (float_of_int r.Blackbox.evaluations));
           ("restarts", Json.Num (float_of_int r.Blackbox.restarts));
           ("demands", demands_to_entries space r.Blackbox.demands);
           ("trace", trace_to_json r.Blackbox.trace);
         ]
        @ degraded_fields
            (effective_time < time)
            (Printf.sprintf "search time cut from %gs to %gs by deadline" time
               effective_time))

(* ---- request handling ---------------------------------------------- *)

let scheduler_error = function
  | Scheduler.Overloaded { queued; limit } ->
      Protocol.error ~code:"overloaded"
        (Printf.sprintf "queue full (%d/%d); retry later" queued limit)
  | Scheduler.Failed msg -> Protocol.error ~code:"solve-failed" msg
  | Scheduler.Timed_out budget ->
      Protocol.error ~code:"deadline-exceeded"
        (Printf.sprintf
           "no answer within the %gs deadline; the solve continues toward \
            the cache — retrying may hit"
           budget)
  | Scheduler.Shutdown ->
      Protocol.error ~code:"overloaded" "daemon is shutting down"

let submit state ~key ~group ?deadline_s job =
  match Resilience.Breaker.admit state.breaker with
  | Resilience.Breaker.Shed ->
      Protocol.error ~code:"degraded"
        "circuit open: recent solves failed or timed out; retry after cooldown"
  | Resilience.Breaker.Admit | Resilience.Breaker.Probe -> (
      let t0 = Unix.gettimeofday () in
      (* the answer is encoded once, inside the job: that string is what
         the result cache holds and counts and what the journal appends *)
      let result =
        Scheduler.submit state.sched ~key ~group ?deadline_s (fun () ->
            Json.to_string (job ()))
      in
      let ok =
        match result with
        | Error (Scheduler.Failed _ | Scheduler.Timed_out _) -> false
        | Error (Scheduler.Overloaded _ | Scheduler.Shutdown) | Ok _ -> true
      in
      Resilience.Breaker.record state.breaker ~ok
        ~latency_s:(Unix.gettimeofday () -. t0);
      match result with
      | Error e -> scheduler_error e
      | Ok (answer, source) -> (
          match Json.of_string answer with
          | Ok (Json.Obj fields) ->
              Protocol.ok
                (fields
                @ [
                    ("cached", Json.Bool (source = `Cached));
                    ("coalesced", Json.Bool (source = `Coalesced));
                    ("fingerprint", Json.Str (Fingerprint.to_hex key));
                  ])
          | Ok _ -> Protocol.error ~code:"internal" "answer is not an object"
          | Error e -> Protocol.error ~code:"internal" ("answer: " ^ e)))

let cache_stats_json (s : Solve_cache.stats) =
  let total = s.Solve_cache.hits + s.Solve_cache.misses in
  Json.Obj
    [
      ("hits", Json.Num (float_of_int s.Solve_cache.hits));
      ("misses", Json.Num (float_of_int s.Solve_cache.misses));
      ( "hit_rate",
        if total = 0 then Json.Null
        else Json.Num (float_of_int s.Solve_cache.hits /. float_of_int total)
      );
      ("evictions", Json.Num (float_of_int s.Solve_cache.evictions));
      ("inserts", Json.Num (float_of_int s.Solve_cache.inserts));
      ("entries", Json.Num (float_of_int s.Solve_cache.entries));
      ("bytes", Json.Num (float_of_int s.Solve_cache.bytes));
      ("max_bytes", Json.Num (float_of_int s.Solve_cache.max_bytes));
      ("shards", Json.Num (float_of_int s.Solve_cache.shards));
    ]

let stats_response state =
  let sc = Scheduler.stats state.sched in
  Protocol.ok
    [
      ("uptime_s", Json.Num (Unix.gettimeofday () -. state.started));
      ("jobs", Json.Num (float_of_int state.config.jobs));
      ( "persistent",
        Json.Bool (Option.is_some state.config.cache_dir) );
      ("result_cache", cache_stats_json (Solve_cache.stats state.results));
      ("oracle_cache", cache_stats_json (Solve_cache.stats state.oracle));
      ( "basis_cache",
        match state.bases with
        | None -> Json.Null
        | Some bs ->
            let b = Basis_store.stats bs in
            Json.Obj
              [
                ("warm_hits", Json.Num (float_of_int b.Basis_store.warm_hits));
                ( "warm_misses",
                  Json.Num (float_of_int b.Basis_store.warm_misses) );
                ("stores", Json.Num (float_of_int b.Basis_store.stores));
                ("entries", Json.Num (float_of_int b.Basis_store.entries));
              ] );
      ( "scheduler",
        Json.Obj
          [
            ("submitted", Json.Num (float_of_int sc.Scheduler.submitted));
            ("cache_hits", Json.Num (float_of_int sc.Scheduler.cache_hits));
            ("dedup_hits", Json.Num (float_of_int sc.Scheduler.dedup_hits));
            ("executed", Json.Num (float_of_int sc.Scheduler.executed));
            ("batches", Json.Num (float_of_int sc.Scheduler.batches));
            ("max_batch", Json.Num (float_of_int sc.Scheduler.max_batch));
            ("rejected", Json.Num (float_of_int sc.Scheduler.rejected));
            ("timed_out", Json.Num (float_of_int sc.Scheduler.timed_out));
            ("queued_now", Json.Num (float_of_int sc.Scheduler.queued_now));
            ( "in_flight_now",
              Json.Num (float_of_int sc.Scheduler.in_flight_now) );
          ] );
      ( "breaker",
        let bs = Resilience.Breaker.stats state.breaker in
        Json.Obj
          [
            ( "state",
              Json.Str
                (Resilience.Breaker.state_to_string
                   (Resilience.Breaker.state state.breaker)) );
            ("shed", Json.Num (float_of_int bs.Resilience.Breaker.shed));
            ("opened", Json.Num (float_of_int bs.Resilience.Breaker.opened));
            ( "window_failure_rate",
              Json.Num bs.Resilience.Breaker.window_failure_rate );
          ] );
      ( "lost_workers",
        Json.Num
          (float_of_int
             (match state.pool with
             | Some p -> Engine.Pool.lost_workers p
             | None -> 0)) );
    ]

let handle state (req : Protocol.request) =
  match req with
  | Protocol.Ping -> Protocol.ok [ ("pong", Json.Bool true) ]
  | Protocol.Stats -> stats_response state
  | Protocol.Shutdown -> Protocol.ok [ ("stopping", Json.Bool true) ]
  | Protocol.Evaluate { instance; demand; deadline } -> (
      let result =
        let* ev, g = build_evaluator state instance in
        let space = Pathset.space ev.Evaluate.pathset in
        let* d = build_demand space g demand in
        Ok (ev, g, d)
      in
      match result with
      | Error e -> Protocol.error ~code:"bad-request" e
      | Ok (ev, g, d) ->
          let key =
            Fingerprint.instance ~demand:d ~paths:instance.Protocol.paths ev
          in
          submit state ~key
            ~group:(group instance "evaluate")
            ?deadline_s:deadline (evaluate_job ev g d))
  | Protocol.Find_gap { instance; method_; time; seed; deadline; degrade } -> (
      match build_evaluator state instance with
      | Error e -> Protocol.error ~code:"bad-request" e
      | Ok (ev, _g) ->
          (* with degrade the solver runs under a budget sized to the
             deadline (90%, leaving margin to assemble the reply), so it
             returns a best-so-far answer before the waiter gives up *)
          let budget =
            if degrade then Option.map (fun d -> 0.9 *. d) deadline else None
          in
          let key =
            let acc =
              Fingerprint.feed_int64 Fingerprint.empty
                (Fingerprint.instance ~paths:instance.Protocol.paths ev)
            in
            let acc = Fingerprint.feed_string acc "find-gap" in
            let acc =
              Fingerprint.feed_string acc (Protocol.method_to_string method_)
            in
            let acc = Fingerprint.feed_float acc time in
            let acc = Fingerprint.feed_int acc seed in
            (* a budget-bounded solve computes a different (weaker)
               answer: give it its own cache identity *)
            let acc =
              match budget with
              | Some b -> Fingerprint.feed_float (Fingerprint.feed_string acc "budget") b
              | None -> acc
            in
            Fingerprint.finish acc
          in
          submit state ~key
            ~group:(group instance "find-gap")
            ?deadline_s:deadline
            (find_gap_job ?pool:state.pool ?budget ~jobs:state.config.jobs ev
               ~method_ ~time ~seed))

(* ------------------------------------------------------------------ *)
(* connection + accept loops                                           *)
(* ------------------------------------------------------------------ *)

let register_conn state fd =
  Mutex.lock state.conns_mutex;
  Hashtbl.replace state.conns fd ();
  Mutex.unlock state.conns_mutex

let unregister_conn state fd =
  Mutex.lock state.conns_mutex;
  Hashtbl.remove state.conns fd;
  Mutex.unlock state.conns_mutex

let handle_connection state fd =
  let rec loop () =
    match Protocol.read_frame fd with
    | Ok None | Error _ -> ()
    | Ok (Some payload) ->
        let req =
          match Json.of_string payload with
          | Error e -> Error e
          | Ok j -> Protocol.request_of_json j
        in
        let response =
          match req with
          | Error e -> Protocol.error ~code:"bad-request" e
          | Ok r -> (
              try handle state r
              with exn ->
                Protocol.error ~code:"internal" (Printexc.to_string exn))
        in
        Protocol.write_frame fd (Json.to_string response);
        (match req with
        | Ok Protocol.Shutdown -> Atomic.set state.stop true
        | _ -> loop ())
  in
  (try loop () with Unix.Unix_error _ -> ());
  unregister_conn state fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Poll-style accept: the loop re-checks the stop flag every 200ms, so
   a "shutdown" request needs no self-connect to wake it. Returns the
   handler threads it started. *)
let accept_loop state listen_fd =
  let threads = ref [] in
  while not (Atomic.get state.stop) do
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept listen_fd with
        | conn, _ ->
            register_conn state conn;
            threads := Thread.create (handle_connection state) conn :: !threads
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done;
  !threads

let bind_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))

(* Graceful drain: idle connections are nudged off their blocking
   reads with a receive-side shutdown (in-flight responses still
   flush), handlers are joined, then the scheduler/caches/pool wind
   down and journals close. *)
let drain state threads =
  Mutex.lock state.conns_mutex;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    state.conns;
  Mutex.unlock state.conns_mutex;
  List.iter Thread.join threads;
  Scheduler.shutdown state.sched;
  Solve_cache.close state.results;
  Option.iter Basis_store.close state.bases;
  match state.pool with Some p -> Engine.Pool.shutdown p | None -> ()

let run ?(ready = fun () -> ()) config =
  Resilience.Faults.arm_from_env ();
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  match bind_unix config.socket_path with
  | Error _ as e -> e
  | Ok listen_fd -> (
      let close_listener () =
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        try Unix.unlink config.socket_path with Unix.Unix_error _ -> ()
      in
      let results =
        Solve_cache.create ~shards:config.shards
          ~max_bytes:(config.cache_mb * 1024 * 1024)
          ()
      in
      let bases = Option.map (fun _ -> Basis_store.create ()) config.cache_dir in
      let journal_result =
        match config.cache_dir with
        | None -> Ok 0
        | Some dir -> (
            if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
            let solve_journal =
              Solve_cache.with_journal results
                ~path:(Filename.concat dir journal_file)
                ~encode:Fun.id
                ~decode:(fun s ->
                  if Result.is_ok (Json.of_string s) then Some s else None)
            in
            match (solve_journal, bases) with
            | (Error _ as e), _ | e, None -> e
            | Ok n, Some bs -> (
                match
                  Basis_store.with_journal bs
                    ~path:(Filename.concat dir basis_journal_file)
                with
                | Ok _ -> Ok n
                | Error e -> Error ("basis journal: " ^ e)))
      in
      match journal_result with
      | Error e ->
          close_listener ();
          Error ("cache journal: " ^ e)
      | Ok _replayed ->
          let pool =
            if config.jobs > 1 then
              Some
                (Engine.Pool.create ?heartbeat_timeout:config.heartbeat_timeout
                   ~domains:(Engine.Jobs.clamp config.jobs)
                   ())
            else None
          in
          let sched =
            Scheduler.create ~queue_limit:config.queue_limit
              ~batch_max:config.batch_max ?pool ~cache:results
              ~cost_bytes:String.length
              ()
          in
          let state =
            {
              config;
              pool;
              results;
              bases;
              oracle = Solve_cache.create ~shards:config.shards ();
              sched;
              pathsets = Hashtbl.create 8;
              pathsets_mutex = Mutex.create ();
              breaker = Resilience.Breaker.create ();
              started = Unix.gettimeofday ();
              stop = Atomic.make false;
              conns = Hashtbl.create 16;
              conns_mutex = Mutex.create ();
            }
          in
          ready ();
          let threads = accept_loop state listen_fd in
          close_listener ();
          drain state threads;
          Ok ())
