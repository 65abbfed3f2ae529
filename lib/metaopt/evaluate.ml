type heuristic_spec =
  | Dp_spec of { threshold : float }
  | Pop_spec of {
      parts : int;
      partitions : Pop.partition list;
      reduce : [ `Average | `Kth_smallest of int ];
    }

type cache_hook = {
  lookup : tag:string -> Demand.t -> float option option;
  insert : tag:string -> Demand.t -> float option -> unit;
}

type t = {
  pathset : Pathset.t;
  spec : heuristic_spec;
  pool : Repro_engine.Pool.t option;
  hook : cache_hook option;
  opt_basis : Repro_lp.Simplex.basis_snapshot option;
}

let make_dp pathset ~threshold =
  {
    pathset;
    spec = Dp_spec { threshold };
    pool = None;
    hook = None;
    opt_basis = None;
  }

let make_pop pathset ~parts ~instances ~rng ?(reduce = `Average) () =
  if instances <= 0 then invalid_arg "Evaluate.make_pop: instances <= 0";
  let num_pairs = Pathset.num_pairs pathset in
  let partitions =
    List.init instances (fun _ -> Pop.random_partition ~rng ~num_pairs ~parts)
  in
  {
    pathset;
    spec = Pop_spec { parts; partitions; reduce };
    pool = None;
    hook = None;
    opt_basis = None;
  }

let with_pool t pool = { t with pool }
let with_cache t hook = { t with hook }
let with_opt_basis t opt_basis = { t with opt_basis }

(* Route a computation through the attached cache hook, if any. The hook
   is consulted and filled under whatever synchronization it carries
   itself (the serving layer's cache is sharded and mutex-protected), so
   this is safe from tree-search workers on different domains. *)
let cached t ~tag demand compute =
  match t.hook with
  | None -> compute ()
  | Some hook -> (
      match hook.lookup ~tag demand with
      | Some v -> v
      | None ->
          let v = compute () in
          hook.insert ~tag demand v;
          v)

let partitions t =
  match t.spec with
  | Dp_spec _ -> []
  | Pop_spec { partitions; _ } -> partitions

let opt_value t demand =
  match
    cached t ~tag:"opt" demand (fun () ->
        Some
          (Opt_max_flow.solve ?basis:t.opt_basis t.pathset demand)
            .Opt_max_flow.total)
  with
  | Some v -> v
  | None -> assert false (* "opt" computations always produce a value *)

let reduce_values reduce values =
  match reduce with
  | `Average ->
      List.fold_left ( +. ) 0. values /. float_of_int (List.length values)
  | `Kth_smallest k ->
      let sorted = List.sort compare values in
      let n = List.length sorted in
      if k < 1 || k > n then invalid_arg "Evaluate: bad k for Kth_smallest";
      List.nth sorted (k - 1)

let heuristic_value_raw t demand =
  match t.spec with
  | Dp_spec { threshold } -> (
      match Demand_pinning.solve t.pathset ~threshold demand with
      | Demand_pinning.Feasible { total; _ } -> Some total
      | Demand_pinning.Infeasible_pinning _ -> None)
  | Pop_spec { parts; partitions; reduce } ->
      (* the R partition instances are independent solves: fan them out on
         the pool; list order (hence the reduction) is preserved, so the
         value is bit-identical to the serial run *)
      let totals =
        Repro_engine.Parallel.map_list ?pool:t.pool
          (fun partition ->
            (Pop.solve ?pool:t.pool t.pathset ~parts partition demand)
              .Pop.total)
          partitions
      in
      Some (reduce_values reduce totals)

let heuristic_value t demand =
  cached t ~tag:"heur" demand (fun () -> heuristic_value_raw t demand)

let gap t demand =
  match heuristic_value t demand with
  | None -> None
  | Some h -> Some (opt_value t demand -. h)

let normalize t g =
  g /. Graph.total_capacity (Pathset.graph t.pathset)

let normalized_gap t demand = Option.map (normalize t) (gap t demand)
