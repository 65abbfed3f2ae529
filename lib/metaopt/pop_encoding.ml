module F = Repro_follower

type t = {
  followers : F.Kkt_rewrite.emitted list;
  instance_totals : Model.var list;
  value : Linexpr.t;
}

(* One follower: the block-diagonal union of a single instance's
   per-partition problems. All parts share the inner variable space; each
   (edge, part) pair gets its own scaled capacity row over that part's
   pairs only, and each pair's demand row binds to the shared outer demand
   variable. *)
let instance_follower model pathset ~demand_vars ~parts ~partition
    ~index =
  let flows = Flow_rows.make pathset ~only:(fun _ -> true) in
  let g = Pathset.graph pathset in
  let scale = 1. /. float_of_int parts in
  let cap_rows = ref [] in
  for c = parts - 1 downto 0 do
    for e = Graph.num_edges g - 1 downto 0 do
      let inner_terms =
        List.filter_map
          (fun (k, p) ->
            if Flow_rows.included flows k && partition.(k) = c then
              Some (Flow_rows.var flows ~pair:k ~path:p, 1.)
            else None)
          (Pathset.pairs_using_edge pathset e)
      in
      if inner_terms <> [] then
        cap_rows :=
          {
            F.Ir.row_name = Printf.sprintf "pop%d_cap_%d_%d" index c e;
            inner_terms;
            outer_terms = [];
            sense = F.Ir.Le;
            rhs = scale *. Graph.capacity g e;
          }
          :: !cap_rows
    done
  done;
  let rows = Flow_rows.demand_rows flows ~demand_vars @ !cap_rows in
  F.Kkt_rewrite.emit model
    (Flow_rows.follower flows ~name:(Printf.sprintf "pop%d" index) rows)

(* Bind one host variable to each follower's optimum and reduce them to
   the deterministic descriptor the adversary optimizes (§3.2). *)
let reduce_followers model followers ~cap_total ~reduce =
  let instance_totals =
    List.mapi
      (fun index (follower : F.Kkt_rewrite.emitted) ->
        let h =
          Model.add_var
            ~name:(Printf.sprintf "pop_total_%d" index)
            ~ub:cap_total model
        in
        ignore
          (Model.add_constr
             ~name:(Printf.sprintf "pop_total_def_%d" index)
             model
             (Linexpr.sub (Linexpr.var h) follower.F.Kkt_rewrite.value)
             Model.Eq 0.);
        h)
      followers
  in
  let value =
    match reduce with
    | `Average ->
        let r = float_of_int (List.length instance_totals) in
        Linexpr.of_terms (List.map (fun h -> (h, 1. /. r)) instance_totals)
    | `Kth_smallest k ->
        let sorted =
          Sorting_network.encode model ~lo:0. ~hi:cap_total
            (Array.of_list instance_totals)
        in
        if k < 1 || k > Array.length sorted then
          invalid_arg "Pop_encoding: bad percentile index";
        Linexpr.var sorted.(k - 1)
  in
  (instance_totals, value)

let encode model pathset ~demand_vars ~parts ~partitions ~reduce () =
  if partitions = [] then invalid_arg "Pop_encoding.encode: no partitions";
  if parts <= 0 then invalid_arg "Pop_encoding.encode: parts <= 0";
  List.iter
    (fun p ->
      if Array.length p <> Pathset.num_pairs pathset then
        invalid_arg "Pop_encoding.encode: partition size mismatch")
    partitions;
  let followers =
    List.mapi
      (fun index partition ->
        instance_follower model pathset ~demand_vars ~parts ~partition
          ~index)
      partitions
  in
  let cap_total = Graph.total_capacity (Pathset.graph pathset) in
  let instance_totals, value =
    reduce_followers model followers ~cap_total ~reduce
  in
  { followers; instance_totals; value }
