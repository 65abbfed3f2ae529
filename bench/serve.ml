(* serve: load generator for the gap-query daemon (lib/serve).

   Boots a daemon on a private Unix socket, then drives it through
   three phases and emits BENCH_serve.json:

   - cold: distinct evaluate queries, every one a real solve;
   - warm: the same queries repeated — all served from the solve cache,
     measuring the cached round-trip (wire + lookup) latency;
   - dedup: N concurrent clients firing one identical fresh query — the
     scheduler coalesces them onto a single solve.

   The headline number is warm-vs-cold p50: how much cheaper a repeated
   query is once the content-addressed cache has seen it. *)

module S = Repro_serve
module Json = S.Json

let jobs = 4

let fail fmt = Printf.ksprintf failwith fmt

let expect_ok = function
  | Error e -> fail "serve bench: transport: %s" e
  | Ok response -> (
      match Json.member "ok" response with
      | Some (Json.Bool true) -> response
      | _ -> fail "serve bench: request failed: %s" (Json.to_string response))

let timed_call c req =
  let t0 = Unix.gettimeofday () in
  let response = expect_ok (S.Client.call c req) in
  (1000. *. (Unix.gettimeofday () -. t0), response)

let annotated name response =
  match Option.bind (Json.member name response) Json.bool with
  | Some b -> b
  | None -> fail "serve bench: response lacks %S" name

(* ascending-sorted array, percentile in [0, 100] *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let idx = int_of_float ((float_of_int (n - 1) *. p /. 100.) +. 0.5) in
    a.(Int.max 0 (Int.min (n - 1) idx))

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let summary label a =
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let p50 = percentile sorted 50. and p99 = percentile sorted 99. in
  Common.row "  %-5s %4d requests: mean %8.3f ms   p50 %8.3f ms   p99 %8.3f ms"
    label (Array.length a) (mean a) p50 p99;
  ( (p50, p99),
    Json.Obj
      [
        ("requests", Json.Num (float_of_int (Array.length a)));
        ("mean_ms", Json.Num (mean a));
        ("p50_ms", Json.Num p50);
        ("p99_ms", Json.Num p99);
      ] )

let evaluate_query ~topology ~threshold_frac ~seed =
  S.Protocol.Evaluate
    {
      instance =
        {
          S.Protocol.topology;
          paths = Common.default_paths;
          heuristic = S.Protocol.Dp { threshold_frac };
        };
      demand = S.Protocol.Gen { gen = `Gravity; seed };
      deadline = None;
    }

let run () =
  Common.section "serve: gap-query daemon load generator";
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-serve-bench-%d.sock" (Unix.getpid ()))
  in
  let config =
    { (S.Daemon.default_config ~socket_path) with S.Daemon.jobs }
  in
  let ready = Semaphore.Binary.make false in
  let daemon =
    Thread.create
      (fun () ->
        match S.Daemon.run ~ready:(fun () -> Semaphore.Binary.release ready) config with
        | Ok () -> ()
        | Error e ->
            Printf.eprintf "serve bench: daemon: %s\n%!" e;
            Semaphore.Binary.release ready)
      ()
  in
  Semaphore.Binary.acquire ready;
  Common.row "daemon on %s (jobs %d)" socket_path jobs;

  let seeds = if Common.full_mode then [ 1; 2; 3; 4; 5; 6 ] else [ 1; 2; 3 ] in
  let queries =
    List.concat_map
      (fun topology ->
        List.concat_map
          (fun threshold_frac ->
            List.map
              (fun seed -> evaluate_query ~topology ~threshold_frac ~seed)
              seeds)
          [ 0.02; 0.05 ])
      [ "b4"; "swan" ]
  in
  let warm_rounds = if Common.full_mode then 16 else 8 in

  match
    S.Client.with_connection socket_path (fun c ->
        (* cold: every query is a distinct instance -> a real solve *)
        let cold =
          Array.of_list
            (List.map
               (fun q ->
                 let ms, response = timed_call c q in
                 if annotated "cached" response then
                   fail "serve bench: cold query reported cached";
                 ms)
               queries)
        in
        (* warm: identical queries, all answered by the solve cache *)
        let t_warm = Unix.gettimeofday () in
        let warm =
          Array.concat
            (List.init warm_rounds (fun _ ->
                 Array.of_list
                   (List.map
                      (fun q ->
                        let ms, response = timed_call c q in
                        if not (annotated "cached" response) then
                          fail "serve bench: warm query missed the cache";
                        ms)
                      queries)))
        in
        let warm_wall = Unix.gettimeofday () -. t_warm in

        (* dedup: concurrent identical fresh queries coalesce *)
        let clients = 8 in
        let dedup_query =
          evaluate_query ~topology:"swan" ~threshold_frac:0.035 ~seed:97
        in
        let responses = Array.make clients Json.Null in
        let threads =
          List.init clients (fun i ->
              Thread.create
                (fun () ->
                  match
                    S.Client.with_connection socket_path (fun c' ->
                        expect_ok (S.Client.call c' dedup_query))
                  with
                  | Ok r -> responses.(i) <- r
                  | Error e -> fail "serve bench: dedup client: %s" e)
                ())
        in
        List.iter Thread.join threads;
        let coalesced =
          Array.to_list responses
          |> List.filter (annotated "coalesced")
          |> List.length
        in
        let computed =
          Array.to_list responses
          |> List.filter (fun r ->
                 (not (annotated "coalesced" r)) && not (annotated "cached" r))
          |> List.length
        in

        (* batch: concurrent distinct queries in one admission group
           (same topology and op) — with one dispatcher per pool
           domain, the queries that queue while every dispatcher is
           busy must leave together as one parallel batch, not as 6
           batches of one *)
        let batch_clients = 6 in
        let batch_threads =
          List.init batch_clients (fun i ->
              Thread.create
                (fun () ->
                  match
                    S.Client.with_connection socket_path (fun c' ->
                        expect_ok
                          (S.Client.call c'
                             (evaluate_query ~topology:"b4"
                                ~threshold_frac:0.041 ~seed:(500 + i))))
                  with
                  | Ok _ -> ()
                  | Error e -> fail "serve bench: batch client: %s" e)
                ())
        in
        List.iter Thread.join batch_threads;

        let stats = expect_ok (S.Client.call c S.Protocol.Stats) in
        ignore (expect_ok (S.Client.call c S.Protocol.Shutdown));
        (cold, warm, warm_wall, coalesced, computed, stats))
  with
  | Error e ->
      Thread.join daemon;
      fail "serve bench: %s" e
  | Ok (cold, warm, warm_wall, coalesced, computed, stats) ->
      Thread.join daemon;
      let (cold_p50, _), cold_json = summary "cold" cold in
      let (warm_p50, _), warm_json = summary "warm" warm in
      let speedup = if warm_p50 > 0. then cold_p50 /. warm_p50 else 0. in
      let throughput =
        if warm_wall > 0. then float_of_int (Array.length warm) /. warm_wall
        else 0.
      in
      let hit_rate =
        Option.bind (Json.member "result_cache" stats) (Json.obj_num "hit_rate")
        |> Option.value ~default:0.
      in
      Common.row "  warm p50 is %.0fx lower than cold p50" speedup;
      Common.row "  cached throughput: %.0f requests/s (1 connection)"
        throughput;
      Common.row "  result-cache hit rate: %.3f" hit_rate;
      Common.row "  dedup: %d concurrent identical clients -> %d solve(s), %d coalesced"
        8 computed coalesced;
      let max_batch =
        Option.bind (Json.member "scheduler" stats) (Json.obj_int "max_batch")
        |> Option.value ~default:0
      in
      Common.row "  batch: 6 concurrent distinct clients -> max batch %d"
        max_batch;
      if max_batch <= 1 then
        fail "serve bench: concurrent burst never formed a batch (max_batch %d)"
          max_batch;
      let take name =
        Option.value (Json.member name stats) ~default:Json.Null
      in
      let doc =
        Json.Obj
          ([
             ("benchmark", Json.Str "repro-serve");
             ("mode", Json.Str (if Common.full_mode then "full" else "fast"));
           ]
          @ Common.host_json_fields ~jobs
          @ [
            ("cold", cold_json);
            ("warm", warm_json);
            ("warm_vs_cold_p50", Json.Num speedup);
            ("cached_throughput_rps", Json.Num throughput);
            ( "dedup",
              Json.Obj
                [
                  ("clients", Json.Num 8.);
                  ("computed", Json.Num (float_of_int computed));
                  ("coalesced", Json.Num (float_of_int coalesced));
                ] );
              ("result_cache", take "result_cache");
              ("oracle_cache", take "oracle_cache");
              ("scheduler", take "scheduler");
            ])
      in
      let oc = open_out "BENCH_serve.json" in
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n';
      close_out oc;
      Common.row "machine-readable results written to BENCH_serve.json"
