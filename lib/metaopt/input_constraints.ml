type goalpost = {
  reference : float array;
  distance : float;
  relative : bool;
  pairs : int list option;
}

type intra = {
  terms : (int * float) list;
  avg_coef : float;
  sense : Model.sense;
  bound : float;
}

type t = {
  lower : float array option;
  upper : float array option;
  goalposts : goalpost list;
  intra : intra list;
}

let none = { lower = None; upper = None; goalposts = []; intra = [] }

let goalpost ?pairs ~reference ~distance ~relative () =
  { none with goalposts = [ { reference; distance; relative; pairs } ] }

let box ?lower ?upper () = { none with lower; upper }

let within_factor_of_average ~num_pairs ~factor =
  let intra =
    List.init num_pairs (fun k ->
        { terms = [ (k, 1.) ]; avg_coef = -.factor; sense = Model.Le; bound = 0. })
  in
  { none with intra }

let hose ~space ~egress ~ingress =
  let n = Graph.num_nodes space.Demand.graph in
  if Array.length egress <> n || Array.length ingress <> n then
    invalid_arg "Input_constraints.hose: need one cap per node";
  let rows_for ~select caps =
    List.filter_map
      (fun node ->
        let terms = ref [] in
        Array.iteri
          (fun k (s, d) -> if select s d = node then terms := (k, 1.) :: !terms)
          space.Demand.pairs;
        if !terms = [] then None
        else
          Some
            { terms = !terms; avg_coef = 0.; sense = Model.Le; bound = caps.(node) })
      (List.init n (fun v -> v))
  in
  {
    none with
    intra =
      rows_for ~select:(fun s _ -> s) egress
      @ rows_for ~select:(fun _ d -> d) ingress;
  }

let combine a b =
  let merge_bound f x y =
    match (x, y) with
    | None, z | z, None -> z
    | Some x, Some y -> Some (Array.map2 f x y)
  in
  {
    lower = merge_bound Float.max a.lower b.lower;
    upper = merge_bound Float.min a.upper b.upper;
    goalposts = a.goalposts @ b.goalposts;
    intra = a.intra @ b.intra;
  }

let goalpost_interval gp k =
  let r = gp.reference.(k) in
  let d = if gp.relative then gp.distance *. r else gp.distance in
  (r -. d, r +. d)

let goalpost_pairs gp =
  match gp.pairs with
  | Some pairs -> pairs
  | None -> List.init (Array.length gp.reference) (fun k -> k)

let apply model ~demand_vars t =
  let n = Array.length demand_vars in
  let tighten k lo hi =
    let cur_lo = Model.var_lb model demand_vars.(k)
    and cur_hi = Model.var_ub model demand_vars.(k) in
    Model.set_var_bounds model demand_vars.(k) ~lb:(Float.max cur_lo lo)
      ~ub:(Float.min cur_hi hi)
  in
  Option.iter (fun lb -> Array.iteri (fun k v -> tighten k v infinity) lb) t.lower;
  Option.iter (fun ub -> Array.iteri (fun k v -> tighten k neg_infinity v) ub) t.upper;
  List.iter
    (fun gp ->
      List.iter
        (fun k ->
          let lo, hi = goalpost_interval gp k in
          tighten k (Float.max 0. lo) hi)
        (goalpost_pairs gp))
    t.goalposts;
  let avg_expr =
    Linexpr.of_terms
      (Array.to_list (Array.map (fun v -> (v, 1. /. float_of_int n)) demand_vars))
  in
  List.iter
    (fun ic ->
      let expr =
        Linexpr.add
          (Linexpr.of_terms (List.map (fun (k, c) -> (demand_vars.(k), c)) ic.terms))
          (Linexpr.scale ic.avg_coef avg_expr)
      in
      ignore (Model.add_constr ~name:"intra" model expr ic.sense ic.bound))
    t.intra

let satisfied ?(tol = 1e-6) t d =
  let n = Array.length d in
  let box_ok =
    (match t.lower with
    | None -> true
    | Some lb -> Array.for_all2 (fun v b -> v >= b -. tol) d lb)
    &&
    match t.upper with
    | None -> true
    | Some ub -> Array.for_all2 (fun v b -> v <= b +. tol) d ub
  in
  let gp_ok =
    List.for_all
      (fun gp ->
        List.for_all
          (fun k ->
            let lo, hi = goalpost_interval gp k in
            d.(k) >= lo -. tol && d.(k) <= hi +. tol)
          (goalpost_pairs gp))
      t.goalposts
  in
  let avg = if n = 0 then 0. else Array.fold_left ( +. ) 0. d /. float_of_int n in
  let intra_ok =
    List.for_all
      (fun ic ->
        let lhs =
          List.fold_left (fun acc (k, c) -> acc +. (c *. d.(k))) 0. ic.terms
          +. (ic.avg_coef *. avg)
        in
        match ic.sense with
        | Model.Le -> lhs <= ic.bound +. tol
        | Model.Ge -> lhs >= ic.bound -. tol
        | Model.Eq -> Float.abs (lhs -. ic.bound) <= tol)
      t.intra
  in
  box_ok && gp_ok && intra_ok

let project t d =
  let d = Array.copy d in
  let clamp k lo hi = d.(k) <- Float.min hi (Float.max lo d.(k)) in
  Option.iter (fun lb -> Array.iteri (fun k v -> clamp k v infinity) lb) t.lower;
  Option.iter (fun ub -> Array.iteri (fun k v -> clamp k neg_infinity v) ub) t.upper;
  List.iter
    (fun gp ->
      List.iter
        (fun k ->
          let lo, hi = goalpost_interval gp k in
          clamp k (Float.max 0. lo) hi)
        (goalpost_pairs gp))
    t.goalposts;
  (* violated non-homogeneous <=-rows (hose caps, absolute sum bounds):
     uniform down-scaling restores them without leaving the box *)
  let n = Array.length d in
  let avg = if n = 0 then 0. else Array.fold_left ( +. ) 0. d /. float_of_int n in
  let scale = ref 1. in
  List.iter
    (fun ic ->
      if ic.sense = Model.Le && ic.bound >= 0. then begin
        let lhs =
          List.fold_left (fun acc (k, c) -> acc +. (c *. d.(k))) 0. ic.terms
          +. (ic.avg_coef *. avg)
        in
        if lhs > ic.bound +. 1e-12 && lhs > 0. then
          scale := Float.min !scale (ic.bound /. lhs)
      end)
    t.intra;
  if !scale < 1. then
    Array.iteri (fun k v -> d.(k) <- Float.max 0. (!scale *. v)) d;
  d
