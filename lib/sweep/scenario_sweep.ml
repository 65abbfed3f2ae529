module Evaluate = Repro_metaopt.Evaluate
module Oracle_cache = Repro_serve.Oracle_cache
module Solve_cache = Repro_serve.Solve_cache
module Fingerprint = Repro_serve.Fingerprint
module Json = Repro_serve.Json
module Pool = Repro_engine.Pool
module Chunks = Repro_engine.Chunks
module Deadline = Repro_resilience.Deadline
module Outcome = Repro_resilience.Outcome
module Faults = Repro_resilience.Faults

type mode = Shared_basis | Rebuild

type options = {
  jobs : int;
  chunk : int;
  backend : Backend.kind option;
  mode : mode;
  deadline : Deadline.t option;
  cache : float option Solve_cache.t option;
  jsonl : string option;
  batch_rhs : bool;
  basis_store : Repro_serve.Basis_store.t option;
}

let default_options =
  {
    jobs = 1;
    chunk = 32;
    backend = None;
    mode = Shared_basis;
    deadline = None;
    cache = None;
    jsonl = None;
    batch_rhs = false;
    basis_store = None;
  }

type scenario_result = {
  scenario : Plan.scenario;
  fingerprint : Fingerprint.t;
  opt : float;
  heur : float option;
  cached_opt : bool;
  cached_heur : bool;
}

let gap r = Option.map (fun h -> r.opt -. h) r.heur

type result = {
  results : scenario_result option array;
  completed : int;
  from_cache : int;
  skipped : int;
  chunks : int;
  lp_stats : Simplex.stats;
  basis_warm_hits : int;
  wall_s : float;
  outcome : [ `Complete | `Partial of Outcome.reason ];
}

let json_of_result r =
  let s = r.scenario in
  let opt_num = function None -> Json.Null | Some v -> Json.Num v in
  Json.Obj
    [
      ("i", Json.Num (float_of_int s.Plan.index));
      ("fp", Json.Str (Fingerprint.to_hex r.fingerprint));
      ("threshold", Json.Num s.Plan.threshold);
      ("scale", Json.Num s.Plan.scale);
      ("seed", Json.Num (float_of_int s.Plan.seed));
      ("opt", Json.Num r.opt);
      ("heur", opt_num r.heur);
      ("gap", opt_num (gap r));
      ("cached", Json.Bool (r.cached_opt && r.cached_heur));
    ]

(* One scenario: consult the cache, solve what is missing (shared-basis
   fast path or full Evaluate rebuild), publish back. [None] = the
   scenario could not be finished (budget tripped mid-solve, or an
   unexpected LP status); callers count it as skipped. *)
let compute_scenario ~options ~paths ~pathset ~state plan (s : Plan.scenario) =
  let deadline = options.deadline in
  let ev = Evaluate.make_dp pathset ~threshold:s.Plan.threshold in
  let demand = Plan.demand plan s in
  let fingerprint = Fingerprint.instance ~demand ~paths ev in
  let hook =
    match options.cache with
    | None -> None
    | Some cache -> (Oracle_cache.attach ~cache ~paths ev).Evaluate.hook
  in
  let lookup tag =
    match hook with None -> None | Some h -> h.Evaluate.lookup ~tag demand
  in
  let insert tag v =
    match hook with None -> () | Some h -> h.Evaluate.insert ~tag demand v
  in
  let opt =
    match lookup "opt" with
    | Some (Some v) -> Some (v, true)
    | Some None | None -> (
        let solved =
          match (options.mode, state) with
          | Shared_basis, Some st -> (
              match Shared_lp.solve_opt ?deadline st demand with
              | Ok v -> Some v
              | Error _ -> None)
          | Rebuild, _ | Shared_basis, None ->
              Some (Evaluate.opt_value ev demand)
        in
        match solved with
        | Some v ->
            insert "opt" (Some v);
            Some (v, false)
        | None -> None)
  in
  match opt with
  | None -> None
  | Some (opt, cached_opt) -> (
      let heur =
        match lookup "heur" with
        | Some h -> Some (h, true)
        | None -> (
            let solved =
              match (options.mode, state) with
              | Shared_basis, Some st -> (
                  match
                    Shared_lp.solve_heur ?deadline st
                      ~threshold:s.Plan.threshold demand
                  with
                  | Ok h -> Some h
                  | Error _ -> None)
              | Rebuild, _ | Shared_basis, None ->
                  Some (Evaluate.heuristic_value ev demand)
            in
            match solved with
            | Some h ->
                insert "heur" h;
                Some (h, false)
            | None -> None)
      in
      match heur with
      | None -> None
      | Some (heur, cached_heur) ->
          Some { scenario = s; fingerprint; opt; heur; cached_opt; cached_heur })

(* Batched chunk body: materialize the chunk's scenario contexts up
   front, answer every OPT the cache cannot via ONE batched multi-RHS
   kernel call, then run the heuristic solves (bound edits — the dual
   warm-restart path) and assemble results in scenario order. The OPT
   and heuristic backends are separate states, so hoisting all OPT
   solves ahead of the heuristic solves preserves each backend's
   per-state operation sequence exactly — with no cache attached the
   output is bitwise identical to the scalar loop. Deadlines are
   checked before the OPT batch and per heuristic solve (the scalar
   loop checks per scenario — the batch trades that granularity for
   throughput). *)
let run_chunk_batched ~options ~paths ~pathset ~st plan scen lo hi emit =
  let deadline = options.deadline in
  let expired () =
    match deadline with Some d -> Deadline.expired d | None -> false
  in
  let count = hi - lo in
  let ev =
    Array.init count (fun j ->
        Evaluate.make_dp pathset ~threshold:scen.(lo + j).Plan.threshold)
  in
  (* Materialize the chunk's demands up front. Demand-major plan order
     means threshold-only neighbours share (seed, scale, perturb) and
     thus the exact demand matrix — generate it once per run instead of
     re-running the gravity generator per scenario (identical values, so
     the --batch-rhs toggle stays bitwise). *)
  let demand =
    Array.init count (fun j ->
        let s = scen.(lo + j) in
        if j > 0 then begin
          let p = scen.(lo + j - 1) in
          if s.Plan.seed = p.Plan.seed
             && s.Plan.scale = p.Plan.scale
             && s.Plan.perturb = None && p.Plan.perturb = None
          then None
          else Some (Plan.demand plan s)
        end
        else Some (Plan.demand plan s))
    |> fun opts ->
    let out = Array.make count [||] in
    for j = 0 to count - 1 do
      out.(j) <- (match opts.(j) with Some d -> d | None -> out.(j - 1))
    done;
    out
  in
  (* one graph + path-budget feed for the whole chunk; equals
     Fingerprint.instance per scenario bit for bit *)
  let fp_prefix = Fingerprint.instance_prefix ~paths pathset in
  let fp =
    Array.init count (fun j ->
        Fingerprint.instance_of_prefix fp_prefix ~demand:demand.(j) ev.(j))
  in
  let hook =
    Array.init count (fun j ->
        match options.cache with
        | None -> None
        | Some cache ->
            (Oracle_cache.attach ~cache ~paths ev.(j)).Evaluate.hook)
  in
  let lookup j tag =
    match hook.(j) with
    | None -> None
    | Some h -> h.Evaluate.lookup ~tag demand.(j)
  in
  let insert j tag v =
    match hook.(j) with
    | None -> ()
    | Some h -> h.Evaluate.insert ~tag demand.(j) v
  in
  (* OPT phase: one batched kernel call for every cache miss *)
  let opt = Array.make count None in
  let todo = ref [] in
  for j = count - 1 downto 0 do
    match lookup j "opt" with
    | Some (Some v) -> opt.(j) <- Some (v, true)
    | Some None | None -> todo := j :: !todo
  done;
  let todo = Array.of_list !todo in
  if Array.length todo > 0 && not (expired ()) then begin
    let sols =
      Shared_lp.solve_opt_batch ?deadline st
        (Array.map (fun j -> demand.(j)) todo)
    in
    Array.iteri
      (fun k j ->
        match sols.(k) with
        | Ok v ->
            insert j "opt" (Some v);
            opt.(j) <- Some (v, false)
        | Error _ -> ())
      todo
  end;
  (* heuristic phase + assembly, scenario order *)
  for j = 0 to count - 1 do
    if not (expired ()) then
      match opt.(j) with
      | None -> ()
      | Some (optv, cached_opt) -> (
          let heur =
            match lookup j "heur" with
            | Some h -> Some (h, true)
            | None -> (
                match
                  Shared_lp.solve_heur ?deadline st
                    ~threshold:scen.(lo + j).Plan.threshold demand.(j)
                with
                | Ok h ->
                    insert j "heur" h;
                    Some (h, false)
                | Error _ -> None)
          in
          match heur with
          | None -> ()
          | Some (heurv, cached_heur) ->
              emit (lo + j)
                {
                  scenario = scen.(lo + j);
                  fingerprint = fp.(j);
                  opt = optv;
                  heur = heurv;
                  cached_opt;
                  cached_heur;
                })
  done

let run ?(options = default_options) ~paths pathset plan =
  let t0 = Unix.gettimeofday () in
  let n = Plan.num_scenarios plan in
  let scen = Plan.scenarios plan in
  let chunk = max 1 options.chunk in
  (* chunk count comes from the plan and the chunk size only — never from
     [jobs] — so chunk boundaries (and hence every warm-start history)
     are identical whatever the pool size *)
  let ranges = Chunks.ranges ~n ~chunks:(max 1 ((n + chunk - 1) / chunk)) in
  let shared =
    match options.mode with
    | Shared_basis -> Some (Shared_lp.build pathset)
    | Rebuild -> None
  in
  (* cross-sweep snapshot store: ALL lookups happen here, before any
     chunk runs, so installs are independent of worker scheduling and
     jobs=1 / jobs=N histories stay identical; the store is written
     back once, after every chunk has finished. Each chunk prefers the
     snapshot keyed by its own first-scenario instance fingerprint —
     on a repeated sweep that is the basis the PREVIOUS chunk ended
     with, optimal for the scenario immediately before this chunk's
     first — and falls back to the role-only key holding a prior
     sweep's final basis. *)
  let nchunks = List.length ranges in
  let chunk_keys =
    match (options.basis_store, shared) with
    | Some _, Some _ ->
        let g = Pathset.graph pathset in
        Some
          (List.map
             (fun (lo, _) ->
               let s = scen.(lo) in
               let ev = Evaluate.make_dp pathset ~threshold:s.Plan.threshold in
               let demand = Plan.demand plan s in
               let inst = Fingerprint.instance ~demand ~paths ev in
               ( Repro_serve.Basis_store.key ~instance:inst ~graph:g ~paths
                   ~role:`Opt (),
                 Repro_serve.Basis_store.key ~instance:inst ~graph:g ~paths
                   ~role:`Heur () ))
             ranges
          |> Array.of_list)
    | _ -> None
  in
  let chunk_warm =
    match (options.basis_store, chunk_keys) with
    | Some bs, Some keys ->
        let g = Pathset.graph pathset in
        let final_opt =
          Repro_serve.Basis_store.find bs
            (Repro_serve.Basis_store.key ~graph:g ~paths ~role:`Opt ())
        and final_heur =
          Repro_serve.Basis_store.find bs
            (Repro_serve.Basis_store.key ~graph:g ~paths ~role:`Heur ())
        in
        Some
          (Array.map
             (fun (ko, kh) ->
               let pick k fb =
                 match Repro_serve.Basis_store.find bs k with
                 | Some s -> Some s
                 | None -> fb
               in
               (pick ko final_opt, pick kh final_heur))
             keys)
    | _ -> None
  in
  let results = Array.make n None in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  let out = Option.map open_out options.jsonl in
  let agg = ref Simplex.empty_stats in
  let basis_hits = ref 0 in
  let chunk_snaps = Array.make nchunks None in
  let failed_chunks = ref 0 in
  let chunk_failed () = locked (fun () -> incr failed_chunks) in
  let run_chunk idx (lo, hi) =
    Faults.inject "sweep_chunk";
    let state =
      Option.map (Shared_lp.create_state ?backend:options.backend) shared
    in
    let installed =
      match (state, chunk_warm) with
      | Some st, Some warm ->
          let opt, heur = warm.(idx) in
          if opt <> None || heur <> None then
            Shared_lp.install_bases st ~opt ~heur
          else 0
      | _ -> 0
    in
    let lines = Buffer.create 256 in
    let emit i r =
      (* distinct slots per chunk: no two writers share an index *)
      results.(i) <- Some r;
      if out <> None then begin
        Buffer.add_string lines (Json.to_string (json_of_result r));
        Buffer.add_char lines '\n'
      end
    in
    (match state with
    | Some st when options.batch_rhs ->
        run_chunk_batched ~options ~paths ~pathset ~st plan scen lo hi emit
    | _ ->
        for i = lo to hi - 1 do
          let expired =
            match options.deadline with
            | Some d -> Deadline.expired d
            | None -> false
          in
          if not expired then
            match
              compute_scenario ~options ~paths ~pathset ~state plan scen.(i)
            with
            | None -> ()
            | Some r -> emit i r
        done);
    locked (fun () ->
        basis_hits := !basis_hits + installed;
        (* every chunk's final state feeds the snapshot store (written
           back after the sweep); slots are per-chunk, so the content
           is independent of worker scheduling *)
        (if options.basis_store <> None then
           match state with
           | Some st -> chunk_snaps.(idx) <- Some (hi, Shared_lp.final_bases st)
           | None -> ());
        Option.iter
          (fun st -> agg := Simplex.add_stats !agg (Shared_lp.stats st))
          state;
        match out with
        | Some oc when Buffer.length lines > 0 ->
            (* whole chunks at a time, flushed: a sweep killed later still
               leaves every finished chunk on disk *)
            output_string oc (Buffer.contents lines);
            flush oc
        | _ -> ())
  in
  let safe_chunk idx r =
    try run_chunk idx r with Faults.Injected _ -> chunk_failed ()
  in
  let iranges = List.mapi (fun i r -> (i, r)) ranges in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out_noerr out)
    (fun () ->
      if options.jobs <= 1 then
        List.iter (fun (i, r) -> safe_chunk i r) iranges
      else
        Pool.with_pool ~domains:options.jobs (fun pool ->
            iranges
            |> List.map (fun (i, r) ->
                   Pool.submit pool (fun () -> safe_chunk i r))
            |> List.iter (fun fut ->
                   try Pool.await fut with
                   | Pool.Cancelled | Pool.Stalled _ -> chunk_failed ())));
  (match (options.basis_store, chunk_keys) with
  | Some bs, Some keys ->
      let g = Pathset.graph pathset in
      Array.iteri
        (fun idx snaps ->
          match snaps with
          | None -> ()
          | Some (hi, (opt_snap, heur_snap)) ->
              (* a chunk's final basis is optimal for its LAST scenario
                 — the one immediately preceding the NEXT chunk's first
                 (plan order is contiguous), usually sharing its demand
                 outright. File it under the next chunk's key, so a
                 repeated sweep installs a basis zero-or-few pivots
                 from each chunk's opening solve; filing it under the
                 chunk's own key would hand that chunk a basis a whole
                 chunk of pivots away, costing more in install
                 refactorization than it saves. *)
              if idx + 1 < nchunks then begin
                let ko, kh = keys.(idx + 1) in
                Repro_serve.Basis_store.store bs ko opt_snap;
                Repro_serve.Basis_store.store bs kh heur_snap
              end;
              (* the chunk with hi = n refreshes the role-only slots —
                 the sweep's final bases, the ones the daemon and
                 adjacent sweeps install *)
              if hi = n then begin
                Repro_serve.Basis_store.store bs
                  (Repro_serve.Basis_store.key ~graph:g ~paths ~role:`Opt ())
                  opt_snap;
                Repro_serve.Basis_store.store bs
                  (Repro_serve.Basis_store.key ~graph:g ~paths ~role:`Heur ())
                  heur_snap
              end)
        chunk_snaps
  | _ -> ());
  let completed, from_cache =
    Array.fold_left
      (fun (c, fc) r ->
        match r with
        | None -> (c, fc)
        | Some r ->
            (c + 1, if r.cached_opt && r.cached_heur then fc + 1 else fc))
      (0, 0) results
  in
  let outcome =
    if completed = n then `Complete
    else
      match Option.bind options.deadline Deadline.tripped with
      | Some trip -> `Partial (Outcome.of_trip trip)
      | None -> `Partial (Outcome.Worker_lost !failed_chunks)
  in
  {
    results;
    completed;
    from_cache;
    skipped = n - completed;
    chunks = List.length ranges;
    lp_stats = !agg;
    basis_warm_hits = !basis_hits;
    wall_s = Unix.gettimeofday () -. t0;
    outcome;
  }

let verbose_stats_line (s : Simplex.stats) =
  Printf.sprintf
    "rhs_ftran=%d rhs_dual=%d rhs_batch=%d rhs_batch_cols=%d rhs_peeled=%d \
     refactorizations=%d etas=%d warm_hits=%d warm_misses=%d \
     presolve_rows=%d presolve_cols=%d"
    s.Simplex.rhs_ftran s.Simplex.rhs_dual s.Simplex.rhs_batch
    s.Simplex.rhs_batch_cols s.Simplex.rhs_peeled s.Simplex.refactorizations
    s.Simplex.etas s.Simplex.warm_hits s.Simplex.warm_misses
    s.Simplex.presolve_rows s.Simplex.presolve_cols
