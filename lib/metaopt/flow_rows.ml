module Ir = Repro_follower.Ir

type t = {
  pathset : Pathset.t;
  offsets : int array; (* -1 for excluded pairs *)
  num_vars : int;
  owner : (int * int) array; (* inner var -> (pair, path) *)
}

let make pathset ~only =
  let n_pairs = Pathset.num_pairs pathset in
  let offsets = Array.make n_pairs (-1) in
  let owner = ref [] in
  let next = ref 0 in
  for k = 0 to n_pairs - 1 do
    if only k && Pathset.routable pathset k then begin
      offsets.(k) <- !next;
      let np = Array.length (Pathset.paths_of_pair pathset k) in
      for p = 0 to np - 1 do
        owner := (k, p) :: !owner
      done;
      next := !next + np
    end
  done;
  {
    pathset;
    offsets;
    num_vars = !next;
    owner = Array.of_list (List.rev !owner);
  }

let num_vars t = t.num_vars
let included t k = t.offsets.(k) >= 0

let var t ~pair ~path =
  if t.offsets.(pair) < 0 then invalid_arg "Flow_rows.var: excluded pair";
  let np = Array.length (Pathset.paths_of_pair t.pathset pair) in
  if path < 0 || path >= np then invalid_arg "Flow_rows.var: bad path";
  t.offsets.(pair) + path

let pair_of_var t v = t.owner.(v)

let objective t = List.init t.num_vars (fun v -> (v, 1.))

let demand_rows t ~demand_vars =
  let rows = ref [] in
  Array.iteri
    (fun k off ->
      if off >= 0 then begin
        let np = Array.length (Pathset.paths_of_pair t.pathset k) in
        let inner_terms = List.init np (fun p -> (off + p, 1.)) in
        rows :=
          {
            Ir.row_name = Printf.sprintf "dem_%d" k;
            inner_terms;
            outer_terms = [ (demand_vars.(k), -1.) ];
            sense = Ir.Le;
            rhs = 0.;
          }
          :: !rows
      end)
    t.offsets;
  List.rev !rows

let capacity_rows ?(scale = 1.) t =
  let g = Pathset.graph t.pathset in
  let rows = ref [] in
  for e = 0 to Graph.num_edges g - 1 do
    let inner_terms =
      List.filter_map
        (fun (k, p) ->
          if included t k then Some (var t ~pair:k ~path:p, 1.) else None)
        (Pathset.pairs_using_edge t.pathset e)
    in
    if inner_terms <> [] then
      rows :=
        {
          Ir.row_name = Printf.sprintf "cap_%d" e;
          inner_terms;
          outer_terms = [];
          sense = Ir.Le;
          rhs = scale *. Graph.capacity g e;
        }
        :: !rows
  done;
  List.rev !rows

let follower t ~name rows =
  let ir = Ir.create ~name () in
  ignore (Ir.add_cols ir t.num_vars);
  Ir.set_objective ir (objective t);
  Ir.add_rows ir rows;
  ir
