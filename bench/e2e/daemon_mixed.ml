(* daemon-mixed: the serve tier under a closed-loop mixed load.

   The CLI's [serve --jobs 2 --cache-dir DIR] runs as a child process
   with its journal on. Two client threads, one connection each, send
   [evaluate] queries back to back (a closed loop: each waits for its
   reply before sending the next). 80% hit a 64-instance working set
   warmed during set-up and cost wire + scheduler + result-cache
   lookup; 20% are fresh gravity matrices and cost scheduler + the
   traffic-engineering oracle from scratch + a journal append, so cache
   reads sit beside cache writes. It is the only workload where the
   oracle dominates. From outside the daemon shows its [stats] op, its
   journal file and its /proc entry; the oracle layer is timed by
   replaying sampled cold queries in-process. *)

open Repro_topology
open Repro_te
open Repro_metaopt
module S = Repro_serve
module Json = S.Json

let now = Measure.now
let topologies = [| "b4"; "swan" |]
let fracs = [| 0.02; 0.05; 0.1 |]
let clients = 2
let hot_share = 0.8

(* Every [sample_every]th cold reply is replayed in-process. *)
let sample_every = 20

type query = { topology : string; frac : float; demand_seed : int }

(* The [i]th instance of the demand-seed stream starting at [base]. *)
let query ~base i =
  {
    topology = topologies.(i mod 2);
    frac = fracs.(i mod 3);
    demand_seed = base + i;
  }

let request q =
  S.Protocol.Evaluate
    {
      instance =
        {
          S.Protocol.topology = q.topology;
          paths = Search.paths;
          heuristic = S.Protocol.Dp { threshold_frac = q.frac };
        };
      demand = S.Protocol.Gen { gen = `Gravity; seed = q.demand_seed };
      deadline = None;
    }

(* Disjoint demand-seed streams for each workload seed: the hot set,
   then one fresh stream per load phase and client. *)
let hot_base seed = seed * 1_000_000

let fresh_base seed ~phase ~client =
  hot_base seed + (100_000 * (1 + (phase * clients) + client))

(* ---- the daemon process --------------------------------------------- *)

type daemon = { pid : int; dir : string; sock : string }

(* Daemons started and not yet reaped; killed at exit so no run leaves
   one behind. *)
let live = ref []

let reap ?(timeout = 10.) pid =
  let until = now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < until ->
        Thread.delay 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  Fun.protect ~finally:(fun () -> live := List.filter (( <> ) pid) !live) wait

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn (ctx : Ctx.t) name =
  let dir = Filename.concat ctx.Ctx.tmp name in
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "serve.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process ctx.Ctx.cli
          [|
            ctx.Ctx.cli; "serve"; "--socket"; sock; "--jobs"; "2";
            "--cache-dir"; dir;
          |]
          Unix.stdin null Unix.stderr)
  in
  live := pid :: !live;
  { pid; dir; sock }

let connect d ~timeout =
  let until = now () +. timeout in
  let rec go () =
    match S.Client.connect_typed d.sock with
    | Ok c ->
        S.Client.set_timeouts c 60.;
        c
    | Error _ when now () < until ->
        Thread.delay 0.002;
        go ()
    | Error e -> failwith ("daemon unreachable: " ^ S.Client.error_to_string e)
  in
  go ()

let call c req =
  match S.Client.call_typed c req with
  | Ok json -> json
  | Error e -> failwith (S.Client.error_to_string e)

(* Spawn → first ping (the boot), then one query per hot instance. *)
let boot ?tr ctx name hot =
  let t0 = now () in
  let d = spawn ctx name in
  let c = connect d ~timeout:30. in
  ignore (call c S.Protocol.Ping);
  let t1 = now () in
  Option.iter (fun t -> Measure.Trace.add t "serve.boot" t0 t1) tr;
  Measure.span tr "serve.warm" (fun () ->
      Array.iter (fun q -> ignore (call c (request q))) hot);
  (d, c, 1000. *. (t1 -. t0))

let shutdown d c =
  (try ignore (S.Client.call_typed c S.Protocol.Shutdown) with _ -> ());
  (try S.Client.close c with _ -> ());
  reap d.pid

(* ---- load ------------------------------------------------------------ *)

type phase = {
  wall : float;
  requests : int;
  replies : (float * float) list;
      (** every ok reply: completion time since the phase began, ms *)
  hot_ms : float list;
  cold_ms : float list;
  errors : string list;
  sampled : (query * Json.t) list;  (** cold replies to replay *)
}

(* One closed-loop load phase of [ctx.seconds], at least [min_requests]
   per client. With [tr] every request is a span on its client's row. *)
let load ?tr (ctx : Ctx.t) d ~hot ~phase ~min_requests =
  let start = now () in
  let until = start +. ctx.Ctx.seconds in
  let client i () =
    let requests = ref 0 and cold = ref 0 and replies = ref [] in
    let hot_ms = ref [] and cold_ms = ref [] in
    let errors = ref [] and sampled = ref [] in
    (try
       let c = connect d ~timeout:5. in
       let rng = Random.State.make [| ctx.Ctx.seed; phase; i |] in
       let base = fresh_base ctx.Ctx.seed ~phase ~client:i in
       while !requests < min_requests || now () < until do
         incr requests;
         let is_hot = Random.State.float rng 1. < hot_share in
         let q =
           if is_hot then hot.(Random.State.int rng (Array.length hot))
           else begin
             incr cold;
             query ~base !cold
           end
         in
         let t0 = now () in
         let reply = S.Client.call_typed c (request q) in
         let t1 = now () in
         Option.iter
           (fun t ->
             Measure.Trace.add t ~tid:(i + 1)
               (if is_hot then "serve.hot" else "serve.cold")
               t0 t1)
           tr;
         let ms = 1000. *. (t1 -. t0) in
         if Result.is_ok reply then replies := (t1 -. start, ms) :: !replies;
         match reply with
         | Error e -> errors := S.Client.error_to_string e :: !errors
         | Ok json when is_hot ->
             hot_ms := ms :: !hot_ms;
             if Json.obj_bool "cached" json <> Some true then
               errors := "a hot reply was not served from the cache" :: !errors
         | Ok json ->
             cold_ms := ms :: !cold_ms;
             if !cold mod sample_every = 1 then sampled := (q, json) :: !sampled
       done;
       S.Client.close c
     with e -> errors := Printexc.to_string e :: !errors);
    (!requests, !replies, !hot_ms, !cold_ms, !errors, !sampled)
  in
  let results = Array.make clients (0, [], [], [], [], []) in
  List.iter Thread.join
    (List.init clients (fun i ->
         Thread.create (fun () -> results.(i) <- client i ()) ()));
  let wall = now () -. start in
  Option.iter
    (fun t -> Measure.Trace.add t "serve.load" start (start +. wall))
    tr;
  Array.fold_left
    (fun p (n, rs, h, c, e, s) ->
      {
        p with
        requests = p.requests + n;
        replies = rs @ p.replies;
        hot_ms = h @ p.hot_ms;
        cold_ms = c @ p.cold_ms;
        errors = e @ p.errors;
        sampled = s @ p.sampled;
      })
    {
      wall;
      requests = 0;
      replies = [];
      hot_ms = [];
      cold_ms = [];
      errors = [];
      sampled = [];
    }
    results

(* Latency p50 and replies/s of a phase, taken per one-second window
   and reported as the median over the whole windows: a burst of host
   noise shorter than half the phase moves neither number. A phase
   shorter than one window (the tiny profile) is taken whole. *)
let windowed p =
  let window = 1. in
  let n = int_of_float (p.wall /. window) in
  if n = 0 then
    ( Measure.median (List.map snd p.replies),
      float_of_int (List.length p.replies) /. p.wall )
  else begin
    let buckets = Array.make n [] in
    List.iter
      (fun (t, ms) ->
        let i = int_of_float (t /. window) in
        if i < n then buckets.(i) <- ms :: buckets.(i))
      p.replies;
    let buckets = Array.to_list buckets in
    ( Measure.median
        (List.map Measure.median (List.filter (( <> ) []) buckets)),
      Measure.median
        (List.map (fun b -> float_of_int (List.length b) /. window) buckets) )
  end

(* Replay sampled cold queries through the in-process oracle: values
   must match the daemon's reply, and the solve times give the oracle
   layer's share of a cold request. Returns (opt ms, heuristic ms,
   violations) per query. *)
let replay sampled =
  let pathsets = Hashtbl.create 2 in
  List.map
    (fun (q, json) ->
      let g = Option.get (Topologies.by_name q.topology) in
      let ps =
        match Hashtbl.find_opt pathsets q.topology with
        | Some p -> p
        | None ->
            let p = Search.pathset_of g in
            Hashtbl.add pathsets q.topology p;
            p
      in
      let ev =
        Evaluate.make_dp ps ~threshold:(q.frac *. Graph.max_capacity g)
      in
      let d =
        Demand.gravity (Pathset.space ps) ~rng:(Rng.create q.demand_seed)
          ~total:(0.5 *. Graph.total_capacity g)
      in
      let t0 = now () in
      let opt = Evaluate.opt_value ev d in
      let t1 = now () in
      let heur = Evaluate.heuristic_value ev d in
      let t2 = now () in
      let what = Printf.sprintf "%s/%g/seed %d" q.topology q.frac q.demand_seed in
      let violations =
        (match Json.obj_num "opt" json with
        | Some o when Search.close o opt -> []
        | _ -> [ what ^ ": daemon OPT disagrees with the in-process oracle" ])
        @
        match (Json.member "heuristic" json, heur) with
        | Some Json.Null, None -> []
        | Some (Json.Num h), Some h' when Search.close h h' -> []
        | _ ->
            [ what ^ ": daemon DP value disagrees with the in-process oracle" ]
      in
      (1000. *. (t1 -. t0), 1000. *. (t2 -. t1), violations))
    sampled

let stat json path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
  |> Fun.flip Option.bind Json.num
  |> Option.value ~default:0.

let run (ctx : Ctx.t) r =
  let tiny = ctx.Ctx.tiny in
  let tr = ctx.Ctx.trace in
  let hot =
    Array.init (if tiny then 8 else 64) (query ~base:(hot_base ctx.Ctx.seed))
  in
  let min_requests = if tiny then 40 else 0 in
  (* set-up: boot and warm a fresh daemon [boots] times; the last one
     takes the load *)
  let boots = if tiny then 1 else 5 in
  let rec setups k acc =
    Gc.full_major ();
    let t0 = now () in
    let d, c, boot_ms = boot ?tr ctx (Printf.sprintf "daemon%d" k) hot in
    let acc = (now () -. t0, boot_ms) :: acc in
    if k + 1 < boots then begin
      shutdown d c;
      setups (k + 1) acc
    end
    else (d, c, acc)
  in
  let d, c, setup_times = setups 0 [] in
  Report.e2e r [ ("setup_s", Measure.median (List.map fst setup_times)) ];
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let cpu0 = cpu () in
  let untraced, traced, stats, rss, journal_bytes =
    Fun.protect
      ~finally:(fun () -> shutdown d c)
      (fun () ->
        let untraced = load ctx d ~hot ~phase:0 ~min_requests in
        let traced =
          Option.map (fun _ -> load ?tr ctx d ~hot ~phase:1 ~min_requests) tr
        in
        let stats = call c S.Protocol.Stats in
        let journal = Filename.concat d.dir S.Daemon.journal_file in
        ( untraced,
          traced,
          stats,
          Measure.peak_rss_mb (string_of_int d.pid),
          float_of_int (Unix.stat journal).Unix.st_size ))
  in
  let daemon_cpu_s = cpu () -. cpu0 in
  let checked p =
    Report.tally r ~attempted:p.requests p.errors;
    let replays = replay p.sampled in
    List.iter (fun (_, _, v) -> Report.op r (fun () -> v)) replays;
    replays
  in
  ignore (checked untraced);
  let traced = Option.map (fun t -> (t, checked t)) traced in
  let rps p = float_of_int (List.length p.replies) /. p.wall in
  let latency, rate = windowed untraced in
  Report.e2e r
    [
      ("latency_p50_ms", latency);
      ("answers_per_s", rate);
      ("peak_rss_mb", rss);
    ];
  Report.notes r
    [
      ("hot_p50_ms", Measure.median untraced.hot_ms);
      ("cold_p50_ms", Measure.median untraced.cold_ms);
      ("hot_n", float_of_int (List.length untraced.hot_ms));
      ("cold_n", float_of_int (List.length untraced.cold_ms));
      ("rps", rps untraced);
    ];
  Option.iter
    (fun (t, replays) ->
      let opt_ms = List.map (fun (o, _, _) -> o) replays in
      let heur_ms = List.map (fun (_, h, _) -> h) replays in
      let oracle_ms = List.map (fun (o, h, _) -> o +. h) replays in
      let cold_p50 = Measure.median t.cold_ms in
      (* the CPU time is the last daemon's: its warm-up plus both loads *)
      let requests = Array.length hot + untraced.requests + t.requests in
      Report.layers r
        [
          ("scheduler.executed", stat stats [ "scheduler"; "executed" ]);
          ("scheduler.cache_hits", stat stats [ "scheduler"; "cache_hits" ]);
          ("scheduler.dedup_hits", stat stats [ "scheduler"; "dedup_hits" ]);
          ("scheduler.batches", stat stats [ "scheduler"; "batches" ]);
          ("scheduler.max_batch", stat stats [ "scheduler"; "max_batch" ]);
          ("scheduler.rejected", stat stats [ "scheduler"; "rejected" ]);
          ("scheduler.timed_out", stat stats [ "scheduler"; "timed_out" ]);
          ("result_cache.hit_rate", stat stats [ "result_cache"; "hit_rate" ]);
          ("oracle_cache.hit_rate", stat stats [ "oracle_cache"; "hit_rate" ]);
          ("journal.bytes", journal_bytes);
          ( "journal.bytes_per_insert",
            journal_bytes
            /. Float.max 1. (stat stats [ "result_cache"; "inserts" ]) );
          ("serve.boot_ms", Measure.median (List.map snd setup_times));
          ("serve.hot_p50_ms", Measure.median t.hot_ms);
          ("serve.cold_p50_ms", cold_p50);
          ("serve.hot_p99_ms", Measure.percentile t.hot_ms 99.);
          ("serve.cold_p99_ms", Measure.percentile t.cold_ms 99.);
          ("serve.hot_n", float_of_int (List.length t.hot_ms));
          ("serve.cold_n", float_of_int (List.length t.cold_ms));
          ("serve.cold_overhead_ms_p50", cold_p50 -. Measure.median oracle_ms);
          ( "serve.daemon_cpu_ms_per_req",
            1000. *. daemon_cpu_s /. float_of_int requests );
          ("oracle.opt_calls", float_of_int (List.length opt_ms));
          ("oracle.opt_ms_p50", Measure.median opt_ms);
          ("oracle.heur_calls", float_of_int (List.length heur_ms));
          ("oracle.heur_ms_p50", Measure.median heur_ms);
          ("trace.overhead_pct", 100. *. ((rate /. snd (windowed t)) -. 1.));
        ])
    traced
