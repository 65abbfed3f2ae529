type heuristic =
  | Dp of { threshold : float }
  | Pop of {
      parts : int;
      partitions : Pop.partition list;
      reduce : [ `Average | `Kth_smallest of int ];
    }

type t = {
  model : Model.t;
  demand_vars : Model.var array;
  opt_vars : Mcf.flow_vars;
  opt_value : Linexpr.t;
  heuristic_value : Linexpr.t;
  demand_ub : float;
  tracked : Repro_follower.Bigm.tracked list;
}

let default_demand_ub pathset = Graph.max_capacity (Pathset.graph pathset)

let build pathset ~heuristic ?(constraints = Input_constraints.none) ?demand_ub
    ?quantize () =
  let demand_ub =
    match demand_ub with
    | Some u -> u
    | None -> default_demand_ub pathset
  in
  let model = Model.create ~name:"metaopt_gap" () in
  let space = Pathset.space pathset in
  let demand_vars =
    Array.init (Demand.size space) (fun k ->
        let s, d = Demand.pair space k in
        Model.add_var ~name:(Printf.sprintf "d_%d_%d" s d) ~ub:demand_ub model)
  in
  (* §5 "Scaling": optionally restrict the input space to a grid - worst
     gaps tend to live at extremum points, so quantizing trades little
     quality for a much smaller branch space. d_k = step * n_k, n integer. *)
  (match quantize with
  | None -> ()
  | Some step ->
      if step <= 0. then invalid_arg "Gap_problem.build: quantize <= 0";
      Array.iteri
        (fun k dv ->
          let levels = Float.round (demand_ub /. step) in
          let s, d = Demand.pair space k in
          let n =
            Model.add_var
              ~name:(Printf.sprintf "dq_%d_%d" s d)
              ~kind:Model.Integer ~ub:levels model
          in
          ignore
            (Model.add_constr
               ~name:(Printf.sprintf "quant_%d" k)
               model
               (Linexpr.of_terms [ (dv, 1.); (n, -.step) ])
               Model.Eq 0.))
        demand_vars);
  Input_constraints.apply model ~demand_vars constraints;
  (* OPT block: merged with the outer maximization *)
  let opt_vars =
    Mcf.add_feasible_flow ~prefix:"opt_f" model pathset (Mcf.Var demand_vars)
  in
  let opt_value = Mcf.total_flow_expr opt_vars in
  let heuristic_value, tracked =
    match heuristic with
    | Dp { threshold } ->
        let enc =
          Dp_encoding.encode model pathset ~demand_vars ~threshold ~demand_ub
            ()
        in
        (enc.Dp_encoding.value, enc.Dp_encoding.tracked)
    | Pop { parts; partitions; reduce } ->
        let enc =
          Pop_encoding.encode model pathset ~demand_vars ~parts ~partitions
            ~reduce ()
        in
        (enc.Pop_encoding.value, [])
  in
  Model.set_objective model Model.Maximize
    (Linexpr.sub opt_value heuristic_value);
  {
    model;
    demand_vars;
    opt_vars;
    opt_value;
    heuristic_value;
    demand_ub;
    tracked;
  }

let demands_of_primal t primal =
  Array.map
    (fun v ->
      let x = if v < Array.length primal then primal.(v) else 0. in
      Float.min t.demand_ub (Float.max 0. x))
    t.demand_vars

let size t =
  (Model.num_vars t.model, Model.num_constrs t.model, Model.num_sos1 t.model)

let audit ?tol t primal = Repro_follower.Bigm.audit ?tol primal t.tracked

let size_of_model m = (Model.num_vars m, Model.num_constrs m, Model.num_sos1 m)

(* Metaopt with OPT also KKT-rewritten instead of merged with the outer
   maximization: the naive ablation of Fig 6. *)
let naive_metaopt pathset ~heuristic =
  let space = Pathset.space pathset in
  let naive_model = Model.create ~name:"naive_metaopt" () in
  let demand_ub = default_demand_ub pathset in
  let naive_demands =
    Array.init (Demand.size space) (fun _ -> Model.add_var ~ub:demand_ub naive_model)
  in
  let flows = Flow_rows.make pathset ~only:(fun _ -> true) in
  let opt_kkt =
    Repro_follower.Kkt_rewrite.emit naive_model
      (Flow_rows.follower flows ~name:"opt_kkt"
         (Flow_rows.demand_rows flows ~demand_vars:naive_demands
         @ Flow_rows.capacity_rows flows))
  in
  let heur_value =
    match heuristic with
    | Dp { threshold } ->
        (Dp_encoding.encode naive_model pathset ~demand_vars:naive_demands
           ~threshold ~demand_ub ())
          .Dp_encoding.value
    | Pop { parts; partitions; reduce } ->
        (Pop_encoding.encode naive_model pathset ~demand_vars:naive_demands
           ~parts ~partitions ~reduce ())
          .Pop_encoding.value
  in
  Model.set_objective naive_model Model.Maximize
    (Linexpr.sub opt_kkt.Repro_follower.Kkt_rewrite.value heur_value);
  naive_model

(* The plain formulations an operator would solve directly, for Fig 6's
   size comparison; demands enter as constants so we use a placeholder
   demand of demand_ub/2 everywhere (sizes do not depend on the values). *)
let baseline_sizes pathset ~heuristic =
  let space = Pathset.space pathset in
  let demand = Demand.constant space (default_demand_ub pathset /. 2.) in
  (* OPT alone *)
  let opt_model = Model.create ~name:"opt_alone" () in
  let vars = Mcf.add_feasible_flow opt_model pathset (Mcf.Const demand) in
  Model.set_objective opt_model Model.Maximize (Mcf.total_flow_expr vars);
  (* heuristic alone: one representative LP (DP residual-style single LP
     with pinning rows as constants; POP: all parts of one instance) *)
  let heur_model = Model.create ~name:"heuristic_alone" () in
  (match heuristic with
  | Dp _ ->
      let vars = Mcf.add_feasible_flow heur_model pathset (Mcf.Const demand) in
      (* pinning rows with known pin set: two rows per routable pair *)
      Array.iteri
        (fun k per_path ->
          if Array.length per_path > 0 then begin
            let spread =
              Linexpr.of_terms
                (List.init
                   (Array.length per_path - 1)
                   (fun i -> (per_path.(i + 1), 1.)))
            in
            ignore (Model.add_constr heur_model spread Model.Le 0.);
            ignore
              (Model.add_constr heur_model
                 (Linexpr.var ~coef:(-1.) per_path.(0))
                 Model.Le (-.demand.(k)))
          end)
        vars;
      Model.set_objective heur_model Model.Maximize (Mcf.total_flow_expr vars)
  | Pop { parts; partitions; _ } ->
      let partition =
        match partitions with
        | p :: _ -> p
        | [] -> invalid_arg "baseline_sizes: no partitions"
      in
      let scale = 1. /. float_of_int parts in
      let exprs =
        List.init parts (fun c ->
            let only k = partition.(k) = c in
            let vars =
              Mcf.add_feasible_flow
                ~prefix:(Printf.sprintf "f%d" c)
                ~only ~cap_scale:scale heur_model pathset (Mcf.Const demand)
            in
            Mcf.total_flow_expr vars)
      in
      Model.set_objective heur_model Model.Maximize (Linexpr.sum exprs));
  [
    ("opt", size_of_model opt_model);
    ("heuristic", size_of_model heur_model);
    ("naive-metaopt", size_of_model (naive_metaopt pathset ~heuristic));
  ]
