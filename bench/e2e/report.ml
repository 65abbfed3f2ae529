(* Metric names and units, and the result record one workload run
   fills in. The two lists below must match BENCHMARK.json's
   [end_to_end] and [per_layer]; [Compare.load_spec] refuses a
   BENCHMARK.json that disagrees. *)

module Json = Repro_serve.Json

type better = Lower | Higher
type spec = { name : string; unit : string; better : better }

let better_to_string = function Lower -> "lower" | Higher -> "higher"
let lo name unit = { name; unit; better = Lower }
let hi name unit = { name; unit; better = Higher }

(* What a user of each workload waits for and gets back. An "answer" is
   one find-gap result, one proof pair, one evaluated sweep scenario or
   one daemon reply. *)
let end_to_end =
  [
    lo "setup_s" "s";
    lo "latency_p50_ms" "ms";
    hi "answers_per_s" "1/s";
    lo "peak_rss_mb" "MiB";
  ]

(* From the traced run. A layer a workload does not exercise reads 0. *)
let per_layer =
  [
    lo "topology.pathset_ms" "ms";
    lo "encode.build_ms" "ms";
    lo "encode.vars" "count";
    lo "encode.rows" "count";
    lo "encode.sos1" "count";
    lo "lp.root_ms" "ms";
    lo "lp.pivots" "count";
    hi "lp.pivots_per_s" "1/s";
    lo "lp.refactorizations" "count";
    lo "lp.etas" "count";
    hi "lp.warm_hit_ratio" "1";
    hi "lp.presolve_rows" "count";
    hi "lp.presolve_cols" "count";
    hi "lp.rhs_ftran" "count";
    lo "lp.rhs_dual" "count";
    lo "bb.nodes" "count";
    lo "bb.tree_s" "s";
    hi "bb.nodes_per_s" "1/s";
    lo "bb.node_self_ms_p50" "ms";
    lo "bb.node_self_ms_p99" "ms";
    hi "bb.workers" "count";
    lo "bb.steals" "count";
    lo "bb.idle_s" "s";
    lo "adversary.pre_tree_s" "s";
    lo "adversary.oracle_calls" "count";
    lo "adversary.time_to_best_s" "s";
    lo "adversary.incumbent_updates" "count";
    hi "adversary.gap_norm" "1";
    lo "adversary.bound_norm" "1";
    lo "oracle.opt_calls" "count";
    lo "oracle.opt_ms_p50" "ms";
    lo "oracle.heur_calls" "count";
    lo "oracle.heur_ms_p50" "ms";
    lo "oracle.share_pct" "%";
    lo "sweep.skeleton_ms" "ms";
    lo "sweep.chunks" "count";
    lo "sweep.us_per_scenario" "us";
    hi "sweep.jobs1_scenarios_per_s" "1/s";
    hi "engine.parallel_efficiency" "1";
    hi "scheduler.executed" "count";
    hi "scheduler.cache_hits" "count";
    hi "scheduler.dedup_hits" "count";
    hi "scheduler.batches" "count";
    hi "scheduler.max_batch" "count";
    lo "scheduler.rejected" "count";
    lo "scheduler.timed_out" "count";
    hi "result_cache.hit_rate" "1";
    hi "oracle_cache.hit_rate" "1";
    lo "journal.bytes" "B";
    lo "journal.bytes_per_insert" "B";
    lo "serve.boot_ms" "ms";
    lo "serve.hot_p50_ms" "ms";
    lo "serve.cold_p50_ms" "ms";
    lo "serve.hot_p99_ms" "ms";
    lo "serve.cold_p99_ms" "ms";
    hi "serve.hot_n" "count";
    hi "serve.cold_n" "count";
    lo "serve.cold_overhead_ms_p50" "ms";
    lo "serve.daemon_cpu_ms_per_req" "ms";
    lo "host.calib_ms" "ms";
    lo "gc.major_per_op" "count";
    lo "gc.minor_mb_per_op" "MiB";
    lo "trace.overhead_pct" "%";
    hi "trace.coverage_pct" "%";
  ]

let unit_of name =
  match List.find_opt (fun s -> s.name = name) (end_to_end @ per_layer) with
  | Some s -> s.unit
  | None -> ""

(* One workload run. [counters] are the deterministic work counts at
   jobs 1 (identical on every rep and every run of one build), [notes]
   the workload's own headline numbers (gap, hot/cold latency, ...). *)
type t = {
  workload : string;
  seed : int;
  seconds : float;
  tiny : bool;
  traced : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, newest first *)
  mutable e2e : (string * float) list;
  mutable layers : (string * float) list;
  mutable counters : (string * float) list;
  mutable notes : (string * float) list;
  mutable rep_walls : float list;  (** untraced rep walls, seconds *)
}

let create ~workload ~seed ~seconds ~tiny ~traced =
  {
    workload;
    seed;
    seconds;
    tiny;
    traced;
    attempted = 0;
    failed = 0;
    failures = [];
    e2e = [];
    layers = [];
    counters = [];
    notes = [];
    rep_walls = [];
  }

(* Only the first few failures are printed and kept verbatim; all are
   counted. *)
let shown_failures = 20

let fail r msg =
  if r.failed < shown_failures then begin
    Printf.eprintf "e2e %s: FAILED: %s\n%!" r.workload msg;
    r.failures <- msg :: r.failures
  end;
  r.failed <- r.failed + 1

(* One attempted operation: [f] returns the violations it found; any
   violation, or an exception, fails the operation. *)
let op r f =
  r.attempted <- r.attempted + 1;
  match f () with
  | [] -> ()
  | v :: _ -> fail r v
  | exception e -> fail r (Printexc.to_string e)

(* [attempted] operations that ran elsewhere (client threads); each
   message is one failed operation. *)
let tally r ~attempted messages =
  r.attempted <- r.attempted + attempted;
  List.iter (fail r) messages

let merge old kvs =
  List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) old @ kvs

let e2e r kvs = r.e2e <- merge r.e2e kvs
let layers r kvs = r.layers <- merge r.layers kvs
let counters r kvs = r.counters <- merge r.counters kvs
let notes r kvs = r.notes <- merge r.notes kvs

let correct r = r.failed = 0

(* A metric that is not a finite number fails the run. *)
let check_finite r values =
  List.iter
    (fun (k, v) ->
      if not (Float.is_finite v) then fail r (k ^ " is not a finite number"))
    values

(* [{"name": {"value": v, "unit": u}}] in spec order; metrics the run
   did not measure read 0 (a layer the workload does not exercise). *)
let metrics_json specs values =
  Json.Obj
    (List.map
       (fun s ->
         let v =
           match List.assoc_opt s.name values with
           | Some v when Float.is_finite v -> v
           | _ -> 0.
         in
         (s.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str s.unit) ]))
       specs)

let plain kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num r.seconds);
      ("tiny", Json.Bool r.tiny);
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failures", Json.List (List.rev_map (fun m -> Json.Str m) r.failures));
      ("metrics", metrics_json end_to_end r.e2e);
      ( "layers",
        if r.traced then metrics_json per_layer r.layers else Json.Obj [] );
      ("counters", plain r.counters);
      ("notes", plain r.notes);
      ("rep_walls_s", Json.List (List.map (fun w -> Json.Num w) r.rep_walls));
      ( "host",
        Json.Obj
          [
            ( "cpus",
              Json.Num (float_of_int (Domain.recommended_domain_count ())) );
            ("ocaml", Json.Str Sys.ocaml_version);
          ] );
    ]

(* The one-line result of [e2e.exe bench]: end-to-end metrics
   for an untraced run, per-layer metrics for a traced one. *)
let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           if r.traced then metrics_json per_layer r.layers
           else metrics_json end_to_end r.e2e );
       ])
