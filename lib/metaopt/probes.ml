let dp_candidates pathset ~threshold ~demand_ub =
  let n = Pathset.num_pairs pathset in
  (* demand on unroutable pairs moves neither OPT nor the heuristic but
     burns constraint headroom (hose caps, goalposts): keep it at zero *)
  let routable_only d =
    Array.mapi (fun k v -> if Pathset.routable pathset k then v else 0.) d
  in
  let hops_of k =
    if Pathset.routable pathset k then Paths.hops (Pathset.shortest pathset k)
    else 0
  in
  let max_hops =
    let m = ref 0 in
    for k = 0 to n - 1 do
      if hops_of k > !m then m := hops_of k
    done;
    !m
  in
  let sweep h =
    Array.init n (fun k -> if hops_of k >= h then threshold else demand_ub)
  in
  let corners = [ Array.make n demand_ub; Array.make n threshold ] in
  List.map routable_only
    (corners @ List.init (Int.max 0 (max_hops - 1)) (fun i -> sweep (i + 2)))

let pop_candidates pathset ~partitions ~parts ~demand_ub =
  let n = Pathset.num_pairs pathset in
  let concentrate pred =
    Array.init n (fun k ->
        if pred k && Pathset.routable pathset k then demand_ub else 0.)
  in
  let per_part =
    List.concat_map
      (fun partition ->
        List.init parts (fun c -> concentrate (fun k -> partition.(k) = c)))
      partitions
  in
  (* co-location greedy: pairs that share a partition with pair 0 in as
     many instances as possible *)
  let colocated =
    if n = 0 then []
    else begin
      let seeds = [ 0; n / 2; n - 1 ] in
      List.map
        (fun seed ->
          concentrate (fun k ->
              let agree =
                List.fold_left
                  (fun acc p -> if p.(k) = p.(seed) then acc + 1 else acc)
                  0 partitions
              in
              2 * agree >= List.length partitions))
        (List.sort_uniq compare seeds)
    end
  in
  (concentrate (fun _ -> true) :: per_part) @ colocated

let score ev ~constraints d =
  let d = Input_constraints.project constraints d in
  if not (Input_constraints.satisfied constraints d) then None
  else
    match Evaluate.gap ev d with
    | None -> None
    | Some g -> Some (d, g)

let best_candidate ?pool ev ~constraints candidates =
  (* score in parallel, reduce serially in candidate order: same winner
     (and same tie-breaking towards earlier candidates) as the serial
     fold, bit for bit *)
  let scored =
    Repro_engine.Parallel.map_list ?pool (score ev ~constraints) candidates
  in
  List.fold_left
    (fun best s ->
      match s with
      | None -> best
      | Some (d, g) -> (
          match best with
          | Some (_, bg) when bg >= g -> best
          | _ -> Some (d, g)))
    None scored

let refine ev ~constraints ~budget ~levels start =
  match score ev ~constraints start with
  | None -> (None, 1)
  | Some (d0, g0) ->
      let best_d = ref (Array.copy d0) and best_g = ref g0 in
      let calls = ref 0 in
      let improved_in_pass = ref true in
      let n = Array.length d0 in
      while !improved_in_pass && !calls < budget do
        improved_in_pass := false;
        let k = ref 0 in
        while !k < n && !calls < budget do
          List.iter
            (fun level ->
              if !calls < budget && Float.abs (!best_d.(!k) -. level) > 1e-9
              then begin
                let cand = Array.copy !best_d in
                cand.(!k) <- level;
                incr calls;
                match score ev ~constraints cand with
                | Some (d, g) when g > !best_g +. 1e-9 ->
                    best_d := d;
                    best_g := g;
                    improved_in_pass := true
                | _ -> ()
              end)
            levels;
          incr k
        done
      done;
      (Some (!best_d, !best_g), 1 + !calls)
