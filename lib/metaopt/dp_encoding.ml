module F = Repro_follower

type t = {
  indicators : (int * Model.var) list;
  flows : Flow_rows.t;
  value : Linexpr.t;
  tracked : F.Bigm.tracked list;
}

let encode model pathset ~demand_vars ~threshold ~demand_ub ?epsilon ?big_m
    () =
  if demand_ub <= 0. then invalid_arg "Dp_encoding.encode: demand_ub <= 0";
  if threshold < 0. then invalid_arg "Dp_encoding.encode: threshold < 0";
  let epsilon =
    match epsilon with
    | Some e -> e
    | None -> 1e-6 *. demand_ub
  in
  let flows = Flow_rows.make pathset ~only:(fun _ -> true) in
  (* The pin rows' big-M constants, derived per pair from the host model's
     presolve intervals (the demand variable's tightened upper bound)
     instead of the global hand-picked [demand_ub + epsilon]. [big_m]
     overrides the derivation — the regression tests use it to prove that
     a too-small constant is caught by the audit rather than silently
     cutting the optimum. *)
  let var_interval = lazy (F.Bigm.host_intervals model) in
  let m_of k =
    match big_m with
    | Some m -> m
    | None ->
        let d =
          F.Bigm.derive_ub
            ~context:(Printf.sprintf "dp_pin_%d" k)
            ~var_interval:(Lazy.force var_interval)
            ~fallback:demand_ub
            [ (demand_vars.(k), 1.) ]
        in
        d.F.Bigm.m +. epsilon
  in
  let indicators = ref [] in
  let pin_rows = ref [] in
  (* (row name, inner activity, outer activity, gate, M) for the audit *)
  let pin_specs = ref [] in
  for k = Pathset.num_pairs pathset - 1 downto 0 do
    if Flow_rows.included flows k then begin
      let z =
        Model.add_var ~name:(Printf.sprintf "dp_z_%d" k) ~kind:Model.Binary model
      in
      indicators := (k, z) :: !indicators;
      (* host linking rows: z = 1 <=> d_k > threshold
         d_k - threshold <= (demand_ub - threshold) z
         d_k >= (threshold + epsilon) z *)
      ignore
        (Model.add_constr ~name:(Printf.sprintf "dp_link_up_%d" k) model
           (Linexpr.of_terms
              [ (demand_vars.(k), 1.); (z, -.(demand_ub -. threshold)) ])
           Model.Le threshold);
      ignore
        (Model.add_constr ~name:(Printf.sprintf "dp_link_dn_%d" k) model
           (Linexpr.of_terms
              [ (demand_vars.(k), 1.); (z, -.(threshold +. epsilon)) ])
           Model.Ge 0.);
      (* inner pinning rows (the paper's big-M or-constraints) *)
      let big_m = m_of k in
      let np = Array.length (Pathset.paths_of_pair pathset k) in
      let non_shortest =
        List.init (np - 1) (fun i -> (Flow_rows.var flows ~pair:k ~path:(i + 1), 1.))
      in
      if non_shortest <> [] then begin
        pin_rows :=
          {
            F.Ir.row_name = Printf.sprintf "pin_spread_%d" k;
            inner_terms = non_shortest;
            outer_terms = [ (z, -.big_m) ];
            sense = F.Ir.Le;
            rhs = 0.;
          }
          :: !pin_rows;
        pin_specs :=
          (Printf.sprintf "pin_spread_%d" k, non_shortest, [], z, big_m)
          :: !pin_specs
      end;
      pin_rows :=
        {
          F.Ir.row_name = Printf.sprintf "pin_full_%d" k;
          inner_terms = [ (Flow_rows.var flows ~pair:k ~path:0, -1.) ];
          outer_terms = [ (demand_vars.(k), 1.); (z, -.big_m) ];
          sense = F.Ir.Le;
          rhs = 0.;
        }
        :: !pin_rows;
      pin_specs :=
        ( Printf.sprintf "pin_full_%d" k,
          [ (Flow_rows.var flows ~pair:k ~path:0, -1.) ],
          [ (demand_vars.(k), 1.) ],
          z,
          big_m )
        :: !pin_specs
    end
  done;
  let rows =
    Flow_rows.demand_rows flows ~demand_vars
    @ Flow_rows.capacity_rows flows
    @ List.rev !pin_rows
  in
  let kkt = F.Kkt_rewrite.emit model (Flow_rows.follower flows ~name:"dp" rows) in
  let tracked =
    List.rev_map
      (fun (name, inner_terms, outer_terms, z, m) ->
        {
          F.Bigm.context = name;
          m;
          indicator = z;
          active_when = `One;
          activity =
            Linexpr.of_terms
              (List.map (fun (j, c) -> (kkt.F.Kkt_rewrite.x.(j), c)) inner_terms
              @ outer_terms);
        })
      !pin_specs
  in
  {
    indicators = !indicators;
    flows;
    value = kkt.F.Kkt_rewrite.value;
    tracked;
  }
