(* [e2e.exe compare BASE.json... -- CHANGE.json...]: two sets of runs
   judged metric by metric with the bounds from BENCHMARK.json.

   For every workload x end-to-end metric it prints each side's median,
   quartiles and run count and one verdict:
   - better: the change wins at least 9/10 of the runs paired in file
     order (ties count for neither) and the medians differ by more than
     the base's interquartile range — or the base spread exceeds the
     bound and every change run beats every base run;
   - unresolved: the base's own spread exceeds the bound;
   - worse: the change median is worse than the base median by more
     than the bound (and by more than the metric's absolute floor);
   - unchanged: otherwise.
   The deterministic work counters are printed as exact counts and
   deltas, never as speed-ups. Exits 1 when any verdict is "worse". *)

module Json = Repro_serve.Json

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* ---- BENCHMARK.json ------------------------------------------------- *)

let fail_spec path fmt =
  Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt

(* The end-to-end metrics with their bounds. Refuses a BENCHMARK.json
   whose workloads, run length or metric lists (names, units, direction,
   order) differ from what the benchmark emits. *)
let load_spec ~workloads ~run_seconds path =
  let j = read_json path in
  let list key =
    match Option.bind (Json.member key j) Json.list with
    | Some l -> l
    | None -> fail_spec path "missing list %S" key
  in
  let names = List.map (Json.obj_str "name") (list "workloads") in
  if names <> List.map Option.some workloads then
    fail_spec path "workloads differ from the benchmark's [%s]"
      (String.concat "; " workloads);
  if Json.obj_num "run_seconds" j <> Some run_seconds then
    fail_spec path "run_seconds differs from the benchmark's default %g"
      run_seconds;
  let metrics key (specs : Report.spec list) =
    let got = list key in
    if List.length got <> List.length specs then
      fail_spec path "%s lists %d metrics, the benchmark emits %d" key
        (List.length got) (List.length specs);
    List.map2
      (fun m (s : Report.spec) ->
        let better = Report.better_to_string s.Report.better in
        if
          Json.obj_str "name" m <> Some s.Report.name
          || Json.obj_str "unit" m <> Some s.Report.unit
          || Json.obj_str "better" m <> Some better
        then
          fail_spec path "%s entry for %S disagrees with the benchmark" key
            s.Report.name;
        (s, Json.obj_num "bound" m))
      got specs
  in
  ignore (metrics "per_layer" Report.per_layer);
  List.map
    (fun (s, bound) ->
      match bound with
      | Some b -> (s, b)
      | None ->
          fail_spec path "end_to_end metric %S has no bound" s.Report.name)
    (metrics "end_to_end" Report.end_to_end)

(* ---- result files --------------------------------------------------- *)

type run = {
  workload : string;
  metrics : (string * float) list;
  counters : (string * float) list;
}

let values key j =
  match Json.member key j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Num x -> Some (k, x)
          | Json.Obj _ -> Option.map (fun x -> (k, x)) (Json.obj_num "value" v)
          | _ -> None)
        kvs
  | _ -> []

let runs_of_file path =
  let record j =
    {
      workload = Option.value (Json.obj_str "workload" j) ~default:"?";
      metrics = values "metrics" j;
      counters = values "counters" j;
    }
  in
  match read_json path with
  | Json.List l -> List.map record l
  | j -> [ record j ]

(* ---- verdicts ------------------------------------------------------- *)

(* Absolute floors under the relative bounds: smaller differences are
   timer and scheduler noise on any host. *)
let floor_of = function
  | "setup_s" -> 0.002
  | "latency_p50_ms" -> 0.02
  | _ -> 0.

let verdict ~(spec : Report.spec) ~bound base change =
  let gain a b =
    match spec.Report.better with
    | Report.Lower -> a -. b
    | Report.Higher -> b -. a
  in
  let bq1, bmed, bq3 = Measure.quartiles base in
  let _, cmed, _ = Measure.quartiles change in
  let rec pairs a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []
  in
  let paired = pairs base change in
  let wins = List.length (List.filter (fun (b, c) -> gain b c > 0.) paired) in
  let iqr = bq3 -. bq1 in
  let all_better =
    List.for_all (fun c -> List.for_all (fun b -> gain b c > 0.) base) change
  in
  if
    paired <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length paired)
    && Float.abs (cmed -. bmed) > iqr
  then "better"
  else if iqr > bound *. Float.abs bmed then
    if all_better then "better" else "unresolved"
  else if
    -.gain bmed cmed
    > Float.max (bound *. Float.abs bmed) (floor_of spec.Report.name)
  then "worse"
  else "unchanged"

let distinct xs = List.sort_uniq Float.compare xs

let counter_line xs =
  match distinct xs with
  | [ x ] -> Printf.sprintf "%.0f" x
  | [] -> "-"
  | _ -> "varies"

let row = Printf.printf "%-13s %-22s %28s %28s %8s  %s\n"

let run ~workloads ~run_seconds ~bench base_files change_files =
  let spec = load_spec ~workloads ~run_seconds bench in
  let base = List.concat_map runs_of_file base_files in
  let change = List.concat_map runs_of_file change_files in
  let worse = ref false in
  row "workload" "metric" "base median [q1, q3] n" "change median [q1, q3] n"
    "delta" "verdict";
  List.iter
    (fun w ->
      let b = List.filter (fun r -> r.workload = w) base in
      let c = List.filter (fun r -> r.workload = w) change in
      let values field name runs =
        List.filter_map (fun r -> List.assoc_opt name (field r)) runs
      in
      List.iter
        (fun ((s : Report.spec), bound) ->
          let metric = values (fun r -> r.metrics) s.Report.name in
          match (metric b, metric c) with
          | [], _ | _, [] -> ()
          | bv, cv ->
              let v = verdict ~spec:s ~bound bv cv in
              if v = "worse" then worse := true;
              let side xs =
                let q1, m, q3 = Measure.quartiles xs in
                Printf.sprintf "%.4g [%.4g, %.4g] %d" m q1 q3 (List.length xs)
              in
              let bm = Measure.median bv and cm = Measure.median cv in
              row w s.Report.name (side bv) (side cv)
                (Printf.sprintf "%+.1f%%" (100. *. (cm -. bm) /. Float.abs bm))
                (Printf.sprintf "%s (bound %g)" v bound))
        spec;
      let names =
        List.sort_uniq compare
          (List.concat_map (fun r -> List.map fst r.counters) (b @ c))
      in
      List.iter
        (fun k ->
          let bv = values (fun r -> r.counters) k b in
          let cv = values (fun r -> r.counters) k c in
          let delta =
            match (distinct bv, distinct cv) with
            | [ x ], [ y ] -> Printf.sprintf "%+.0f" (y -. x)
            | _ -> "-"
          in
          row w k (counter_line bv) (counter_line cv) delta "count")
        names)
    workloads;
  if !worse then 1 else 0
