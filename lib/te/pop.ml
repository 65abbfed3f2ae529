type partition = int array

let random_partition ~rng ~num_pairs ~parts =
  if parts <= 0 then invalid_arg "Pop.random_partition: parts <= 0";
  let order = Array.init num_pairs (fun k -> k) in
  Rng.shuffle rng order;
  let assignment = Array.make num_pairs 0 in
  Array.iteri (fun rank k -> assignment.(k) <- rank mod parts) order;
  assignment

type result = {
  total : float;
  per_part : float array;
  allocation : Allocation.t;
}

(* Solve one OptMaxFlow per part over that part's demands, with capacities
   scaled down by [parts], and union the allocations (eq. 6). The per-part
   solves are independent LPs; with a pool they run concurrently, and the
   per-part totals/allocations are folded in part order afterwards so the
   result is bit-identical to the serial loop. *)
let solve_per_part ?pool pathset ~parts ~demand_of_part =
  if parts <= 0 then invalid_arg "Pop.solve: parts <= 0";
  let g = Pathset.graph pathset in
  let scale = 1. /. float_of_int parts in
  let scaled = Array.init (Graph.num_edges g) (fun e -> scale *. Graph.capacity g e) in
  let results =
    Repro_engine.Parallel.init ?pool parts (fun c ->
        let demand = demand_of_part c in
        let only k = demand.(k) > 0. in
        Opt_max_flow.residual_capacity_solve pathset demand ~only
          ~residual:scaled)
  in
  let per_part = Array.map (fun r -> r.Opt_max_flow.total) results in
  let allocation =
    Array.fold_left
      (fun acc r -> Allocation.merge acc r.Opt_max_flow.allocation)
      (Allocation.zero pathset) results
  in
  {
    total = Array.fold_left ( +. ) 0. per_part;
    per_part;
    allocation;
  }

let solve ?pool pathset ~parts partition demand =
  if Array.length partition <> Pathset.num_pairs pathset then
    invalid_arg "Pop.solve: partition size mismatch";
  let demand_of_part c =
    Array.mapi (fun k d -> if partition.(k) = c then d else 0.) demand
  in
  solve_per_part ?pool pathset ~parts ~demand_of_part

type split_demands = {
  origin : int array;
  volumes : float array;
}

let client_split demand ~threshold ~max_splits =
  if max_splits < 0 then invalid_arg "Pop.client_split: max_splits < 0";
  if threshold <= 0. then invalid_arg "Pop.client_split: threshold <= 0";
  let origin = ref [] and volumes = ref [] in
  Array.iteri
    (fun k d ->
      let splits = ref 0 and v = ref d in
      while !splits < max_splits && !v >= threshold do
        incr splits;
        v := !v /. 2.
      done;
      let copies = 1 lsl !splits in
      for _ = 1 to copies do
        origin := k :: !origin;
        volumes := !v :: !volumes
      done)
    demand;
  {
    origin = Array.of_list (List.rev !origin);
    volumes = Array.of_list (List.rev !volumes);
  }

let solve_with_client_split ?pool pathset ~parts ~rng ~threshold ~max_splits
    demand =
  let split = client_split demand ~threshold ~max_splits in
  let num_virtual = Array.length split.origin in
  let assignment = random_partition ~rng ~num_pairs:num_virtual ~parts in
  let demand_of_part c =
    let d = Array.make (Pathset.num_pairs pathset) 0. in
    Array.iteri
      (fun v k -> if assignment.(v) = c then d.(k) <- d.(k) +. split.volumes.(v))
      split.origin;
    d
  in
  solve_per_part ?pool pathset ~parts ~demand_of_part
