type config = {
  items : int;
  dims : int;
  capacity : float;
  size_ub : float;
  epsilon : float;
}

let config ?(items = 6) ?(dims = 1) ?(capacity = 1.) ?size_ub ?epsilon () =
  if items < 2 then invalid_arg "Binpack.config: items < 2";
  if dims < 1 then invalid_arg "Binpack.config: dims < 1";
  if capacity <= 0. then invalid_arg "Binpack.config: capacity <= 0";
  let size_ub = match size_ub with Some u -> u | None -> capacity in
  if size_ub <= 0. || size_ub > capacity then
    invalid_arg "Binpack.config: size_ub outside (0, capacity]";
  let epsilon = match epsilon with Some e -> e | None -> 1e-3 *. capacity in
  if epsilon <= 0. then invalid_arg "Binpack.config: epsilon <= 0";
  { items; dims; capacity; size_ub; epsilon }

type instance = float array

let size cfg a ~item ~dim = a.((item * cfg.dims) + dim)

let key cfg a i =
  let acc = ref 0. in
  for d = 0 to cfg.dims - 1 do
    acc := !acc +. size cfg a ~item:i ~dim:d
  done;
  !acc

(* decreasing dimension-sum, ties by index (stable) *)
let sorted_order cfg a =
  List.stable_sort
    (fun i j -> compare (key cfg a j) (key cfg a i))
    (List.init cfg.items Fun.id)

let normalize cfg a =
  if Array.length a <> cfg.items * cfg.dims then
    invalid_arg "Binpack.normalize: instance size mismatch";
  let clamped = Array.map (fun v -> Float.min cfg.size_ub (Float.max 0. v)) a in
  let order = Array.of_list (sorted_order cfg clamped) in
  Array.init (cfg.items * cfg.dims) (fun idx ->
      let i = idx / cfg.dims and d = idx mod cfg.dims in
      size cfg clamped ~item:order.(i) ~dim:d)

type packing = { bins : int; assignment : int array }

let ffd cfg a =
  let fit_tol = 1e-9 *. cfg.capacity in
  let loads = Array.init cfg.items (fun _ -> Array.make cfg.dims 0.) in
  let nbins = ref 0 in
  let assignment = Array.make cfg.items (-1) in
  let fits b i =
    let ok = ref true in
    for d = 0 to cfg.dims - 1 do
      if loads.(b).(d) +. size cfg a ~item:i ~dim:d > cfg.capacity +. fit_tol
      then ok := false
    done;
    !ok
  in
  let place b i =
    for d = 0 to cfg.dims - 1 do
      loads.(b).(d) <- loads.(b).(d) +. size cfg a ~item:i ~dim:d
    done;
    assignment.(i) <- b
  in
  List.iter
    (fun i ->
      let b = ref 0 in
      while assignment.(i) < 0 do
        if !b = !nbins then begin
          incr nbins;
          place !b i
        end
        else if fits !b i then place !b i
        else incr b
      done)
    (sorted_order cfg a);
  { bins = !nbins; assignment }

(* ------------------------------------------------------------------ *)
(* Exact optimal packing (oracle)                                      *)
(* ------------------------------------------------------------------ *)

let opt ?(node_limit = 20000) ?(time_limit = 5.) cfg a =
  let n = cfg.items in
  let model = Model.create ~name:"binpack_opt" () in
  let w =
    Array.init n (fun j ->
        Model.add_var ~name:(Printf.sprintf "w_%d" j) ~kind:Model.Binary model)
  in
  (* item i may only use bins 0..i: classic symmetry breaking *)
  let x =
    Array.init n (fun i ->
        Array.init (i + 1) (fun j ->
            Model.add_var
              ~name:(Printf.sprintf "x_%d_%d" i j)
              ~kind:Model.Binary model))
  in
  for i = 0 to n - 1 do
    ignore
      (Model.add_constr
         ~name:(Printf.sprintf "assign_%d" i)
         model
         (Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) x.(i))))
         Model.Eq 1.);
    for j = 0 to i do
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "open_%d_%d" i j)
           model
           (Linexpr.of_terms [ (x.(i).(j), 1.); (w.(j), -1.) ])
           Model.Le 0.)
    done
  done;
  for j = 0 to n - 1 do
    for d = 0 to cfg.dims - 1 do
      let terms = ref [ (w.(j), -.cfg.capacity) ] in
      for i = j to n - 1 do
        let s = size cfg a ~item:i ~dim:d in
        if s > 0. then terms := (x.(i).(j), s) :: !terms
      done;
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "cap_%d_%d" j d)
           model (Linexpr.of_terms !terms) Model.Le 0.)
    done;
    if j < n - 1 then
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "wsym_%d" j)
           model
           (Linexpr.of_terms [ (w.(j + 1), 1.); (w.(j), -1.) ])
           Model.Le 0.)
  done;
  (* total-volume lower bound on the bin count, per dimension *)
  let lb =
    let best = ref 1 in
    for d = 0 to cfg.dims - 1 do
      let total = ref 0. in
      for i = 0 to n - 1 do
        total := !total +. size cfg a ~item:i ~dim:d
      done;
      best := max !best (int_of_float (Float.ceil (!total /. cfg.capacity -. 1e-9)))
    done;
    !best
  in
  ignore
    (Model.add_constr ~name:"count_lb" model
       (Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) w)))
       Model.Ge (float_of_int lb));
  Model.set_objective model Model.Minimize
    (Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) w)));
  let options =
    {
      Branch_bound.default_options with
      node_limit;
      time_limit;
      jobs = 1;
      log_progress = false;
    }
  in
  let res = Solver.solve ~options model in
  let bins =
    match res.Branch_bound.outcome with
    | Branch_bound.Optimal | Branch_bound.Feasible ->
        int_of_float (Float.round res.Branch_bound.objective)
    | _ -> n
  in
  (bins, res.Branch_bound.outcome)

(* ------------------------------------------------------------------ *)
(* White-box gap encoding                                              *)
(* ------------------------------------------------------------------ *)

type encoded = {
  model : Model.t;
  sizes : Model.var array;
  ff_used : Model.var array;
  opt_open : Model.var array;
  gap_expr : Linexpr.t;
}

(* Items are processed in index order; the decreasing-order rows on the
   size variables make index order coincide with FFD's sorted order, so
   the first-fit logic below encodes FFD exactly. McCormick products
   t = s * y are exact because y is binary. *)
let encode cfg =
  let n = cfg.items and nd = cfg.dims in
  let cap = cfg.capacity and su = cfg.size_ub in
  let model = Model.create ~name:"binpack_gap" () in
  let sizes =
    Array.init (n * nd) (fun idx ->
        Model.add_var
          ~name:(Printf.sprintf "bp_s_%d_%d" (idx / nd) (idx mod nd))
          ~ub:su model)
  in
  let svar i d = sizes.((i * nd) + d) in
  (* canonical FFD order: dimension sums non-increasing *)
  for i = 0 to n - 2 do
    ignore
      (Model.add_constr
         ~name:(Printf.sprintf "bp_order_%d" i)
         model
         (Linexpr.of_terms
            (List.init nd (fun d -> (svar i d, 1.))
            @ List.init nd (fun d -> (svar (i + 1) d, -1.))))
         Model.Ge 0.)
  done;
  (* FF side: y.(i).(j) = item i lands in bin j (j <= i) *)
  let y =
    Array.init n (fun i ->
        Array.init (i + 1) (fun j ->
            Model.add_var
              ~name:(Printf.sprintf "bp_y_%d_%d" i j)
              ~kind:Model.Binary model))
  in
  Array.iteri
    (fun i yi ->
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "bp_assign_%d" i)
           model
           (Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) yi)))
           Model.Eq 1.))
    y;
  (* t.(i).(j).(d) = s_{i,d} * y_{i,j} (exact via McCormick) *)
  let mccormick ~tag ~sel ~t ~s =
    ignore
      (Model.add_constr ~name:(tag ^ "a") model
         (Linexpr.of_terms [ (t, 1.); (sel, -.su) ])
         Model.Le 0.);
    ignore
      (Model.add_constr ~name:(tag ^ "b") model
         (Linexpr.of_terms [ (t, 1.); (s, -1.) ])
         Model.Le 0.);
    ignore
      (Model.add_constr ~name:(tag ^ "c") model
         (Linexpr.of_terms [ (s, 1.); (sel, su); (t, -1.) ])
         Model.Le su)
  in
  let t =
    Array.init n (fun i ->
        Array.init (i + 1) (fun j ->
            Array.init nd (fun d ->
                let tv =
                  Model.add_var
                    ~name:(Printf.sprintf "bp_t_%d_%d_%d" i j d)
                    ~ub:su model
                in
                mccormick
                  ~tag:(Printf.sprintf "bp_tm_%d_%d_%d" i j d)
                  ~sel:y.(i).(j) ~t:tv ~s:(svar i d);
                tv)))
  in
  for j = 0 to n - 1 do
    for d = 0 to nd - 1 do
      let terms = ref [] in
      for i = j to n - 1 do
        terms := (t.(i).(j).(d), 1.) :: !terms
      done;
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "bp_ffcap_%d_%d" j d)
           model (Linexpr.of_terms !terms) Model.Le cap)
    done
  done;
  (* first-fit rule: if item i lands after bin j, some dimension of bin j
     must overflow at i's insertion time (prefix load + s_{i,d}) *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      let v =
        Array.init nd (fun d ->
            Model.add_var
              ~name:(Printf.sprintf "bp_v_%d_%d_%d" i j d)
              ~kind:Model.Binary model)
      in
      let later = List.init (i - j) (fun k -> (y.(i).(j + 1 + k), -1.)) in
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "bp_skip_%d_%d" i j)
           model
           (Linexpr.of_terms
              (Array.to_list (Array.map (fun vv -> (vv, 1.)) v) @ later))
           Model.Ge 0.);
      for d = 0 to nd - 1 do
        let prefix = List.init (i - j) (fun k -> (t.(j + k).(j).(d), 1.)) in
        ignore
          (Model.add_constr
             ~name:(Printf.sprintf "bp_ovf_%d_%d_%d" i j d)
             model
             (Linexpr.of_terms
                ((svar i d, 1.) :: (v.(d), -.(cap +. cfg.epsilon)) :: prefix))
             Model.Ge 0.)
      done
    done
  done;
  (* bin-used indicators the objective counts *)
  let ff_used =
    Array.init n (fun j ->
        Model.add_var ~name:(Printf.sprintf "bp_u_%d" j) ~kind:Model.Binary
          model)
  in
  for j = 0 to n - 1 do
    let users = List.init (n - j) (fun k -> (y.(j + k).(j), -1.)) in
    ignore
      (Model.add_constr
         ~name:(Printf.sprintf "bp_used_%d" j)
         model
         (Linexpr.of_terms ((ff_used.(j), 1.) :: users))
         Model.Le 0.)
  done;
  (* total volume forces the used count up: sum_i s_{i,d} <= cap * sum_j u_j
     (valid at the optimum, tightens the relaxation) *)
  for d = 0 to nd - 1 do
    ignore
      (Model.add_constr
         ~name:(Printf.sprintf "bp_fflb_%d" d)
         model
         (Linexpr.of_terms
            (List.init n (fun i -> (svar i d, 1.))
            @ List.init n (fun j -> (ff_used.(j), -.cap))))
         Model.Le 0.)
  done;
  (* OPT side: fewest bins for the same sizes, merged with the host
     minimization direction (no KKT needed) *)
  let opt_open =
    Array.init n (fun j ->
        Model.add_var ~name:(Printf.sprintf "bp_w_%d" j) ~kind:Model.Binary
          model)
  in
  let xo =
    Array.init n (fun i ->
        Array.init (i + 1) (fun j ->
            Model.add_var
              ~name:(Printf.sprintf "bp_x_%d_%d" i j)
              ~kind:Model.Binary model))
  in
  Array.iteri
    (fun i xi ->
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "bp_optassign_%d" i)
           model
           (Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, 1.)) xi)))
           Model.Eq 1.);
      Array.iteri
        (fun j xij ->
          ignore
            (Model.add_constr
               ~name:(Printf.sprintf "bp_xw_%d_%d" i j)
               model
               (Linexpr.of_terms [ (xij, 1.); (opt_open.(j), -1.) ])
               Model.Le 0.))
        xi)
    xo;
  let tx =
    Array.init n (fun i ->
        Array.init (i + 1) (fun j ->
            Array.init nd (fun d ->
                let tv =
                  Model.add_var
                    ~name:(Printf.sprintf "bp_tx_%d_%d_%d" i j d)
                    ~ub:su model
                in
                mccormick
                  ~tag:(Printf.sprintf "bp_xm_%d_%d_%d" i j d)
                  ~sel:xo.(i).(j) ~t:tv ~s:(svar i d);
                tv)))
  in
  for j = 0 to n - 1 do
    for d = 0 to nd - 1 do
      let terms = ref [] in
      for i = j to n - 1 do
        terms := (tx.(i).(j).(d), 1.) :: !terms
      done;
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "bp_optcap_%d_%d" j d)
           model (Linexpr.of_terms !terms) Model.Le cap)
    done;
    if j < n - 1 then
      ignore
        (Model.add_constr
           ~name:(Printf.sprintf "bp_wsym_%d" j)
           model
           (Linexpr.of_terms [ (opt_open.(j + 1), 1.); (opt_open.(j), -1.) ])
           Model.Le 0.)
  done;
  (* sizes fit into the open OPT bins *)
  for d = 0 to nd - 1 do
    ignore
      (Model.add_constr
         ~name:(Printf.sprintf "bp_optlb_%d" d)
         model
         (Linexpr.of_terms
            (List.init n (fun i -> (svar i d, 1.))
            @ List.init n (fun j -> (opt_open.(j), -.cap))))
         Model.Le 0.)
  done;
  let gap_expr =
    Linexpr.of_terms
      (Array.to_list (Array.map (fun u -> (u, 1.)) ff_used)
      @ Array.to_list (Array.map (fun w -> (w, -1.)) opt_open))
  in
  Model.set_objective model Model.Maximize gap_expr;
  { model; sizes; ff_used; opt_open; gap_expr }

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

(* deterministic xorshift so probe sets are reproducible per seed *)
let make_rng seed =
  let state = ref (if seed = 0 then 0x9E3779B9 else seed land max_int) in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    let x = x land max_int in
    state := (if x = 0 then 0x2545F491 else x);
    float_of_int !state /. float_of_int max_int

let probes cfg ~seed =
  let n = cfg.items and c = cfg.capacity in
  let rng = make_rng seed in
  let clamp v = Float.min cfg.size_ub (Float.max 0. v) in
  let per_item f =
    Array.init (n * cfg.dims) (fun idx -> clamp (f (idx / cfg.dims) (idx mod cfg.dims)))
  in
  (* the classic FFD worst case: n/3 items just over 2 bins' worth of
     "large", the rest at 0.3 — FFD wastes a bin pairing the large items *)
  let thirds =
    (* one (2 x 0.4, 4 x 0.3) block per 6 items costs FFD an extra bin;
       leftover items get size 0 so they never disturb the packing *)
    let k = max 1 (n / 6) in
    per_item (fun i _ ->
        if i < 2 * k then 0.4 *. c
        else if i < 6 * k then 0.3 *. c
        else 0.)
  in
  let weyl =
    let phi = 0.618033988749895 in
    per_item (fun i d ->
        let f = Float.rem ((float_of_int i *. phi) +. (float_of_int d *. 0.31)) 1. in
        c *. (0.26 +. (0.36 *. f)))
  in
  let halves =
    per_item (fun i _ -> if i mod 2 = 0 then 0.52 *. c else 0.27 *. c)
  in
  let random tag =
    (tag, per_item (fun _ _ -> c *. (0.2 +. (0.42 *. rng ()))))
  in
  let base =
    [
      ("ffd_thirds", thirds);
      ("ffd_weyl", weyl);
      ("ffd_halves", halves);
      random "rand_a";
      random "rand_b";
      random "rand_c";
    ]
  in
  let skew =
    if cfg.dims >= 2 then
      [
        ( "dim_skew",
          per_item (fun i d ->
              if d = i mod cfg.dims then 0.62 *. c else 0.21 *. c) );
      ]
    else []
  in
  List.map (fun (tag, a) -> (tag, normalize cfg a)) (base @ skew)

(* ------------------------------------------------------------------ *)
(* End-to-end search                                                   *)
(* ------------------------------------------------------------------ *)

type options = {
  probe_budget : int;
  run_milp : bool;
  node_limit : int;
  time_limit : float;
  verify_node_limit : int;
  verify_time_limit : float;
  seed : int;
}

let default_options =
  {
    probe_budget = 48;
    run_milp = true;
    node_limit = 600;
    time_limit = 10.;
    verify_node_limit = 6000;
    verify_time_limit = 2.;
    seed = 42;
  }

type result = {
  config : config;
  instance : instance;
  ffd_bins : int;
  opt_bins : int;
  gap : int;
  bound : float;
  outcome : Branch_bound.outcome;
  probe : string;
  oracle_calls : int;
  oracle_closed : bool;
  milp_nodes : int;
  elapsed : float;
}

(* oracle-verified evaluation with caching; thread-safe because the gap
   MILP's primal heuristic runs on worker domains *)
let make_oracle cfg opts =
  let cache : (string, (instance * int * int) option) Hashtbl.t =
    Hashtbl.create 64
  in
  let lock = Mutex.create () in
  let calls = ref 0 in
  let closed = ref true in
  let eval inst =
    let inst = normalize cfg inst in
    let cache_key =
      String.concat ","
        (Array.to_list (Array.map (Printf.sprintf "%.6f") inst))
    in
    Mutex.lock lock;
    let cached = Hashtbl.find_opt cache cache_key in
    Mutex.unlock lock;
    match cached with
    | Some r -> r
    | None ->
        let p = ffd cfg inst in
        let o, outcome =
          opt ~node_limit:opts.verify_node_limit
            ~time_limit:opts.verify_time_limit cfg inst
        in
        let r =
          match outcome with
          | Branch_bound.Optimal -> Some (inst, p.bins, o)
          | _ -> None
        in
        Mutex.lock lock;
        incr calls;
        if r = None then closed := false;
        Hashtbl.replace cache cache_key r;
        Mutex.unlock lock;
        r
  in
  (eval, calls, closed, lock)

let find_gap ?(options = default_options) cfg =
  let t0 = Unix.gettimeofday () in
  let eval, calls, closed, lock = make_oracle cfg options in
  let best = ref None in
  let consider ~probe r =
    match r with
    | Some (inst, f, o) -> (
        let g = f - o in
        match !best with
        | Some (_, _, _, g0, _) when g0 >= g -> ()
        | _ -> best := Some (inst, f, o, g, probe))
    | None -> ()
  in
  List.iter
    (fun (tag, inst) -> consider ~probe:tag (eval inst))
    (probes cfg ~seed:options.seed);
  (* coordinate refinement of the incumbent over a coarse size grid *)
  let levels =
    List.map
      (fun f -> f *. cfg.capacity)
      [ 0.25; 0.3; 1. /. 3.; 0.35; 0.4; 0.45; 0.51 ]
  in
  let budget = ref options.probe_budget in
  (match !best with
  | None -> ()
  | Some (inst0, _, _, _, _) ->
      let current = Array.copy inst0 in
      Array.iteri
        (fun idx old ->
          List.iter
            (fun v ->
              if !budget > 0 && Float.abs (v -. old) > 1e-9 then begin
                decr budget;
                current.(idx) <- v;
                let before = match !best with Some (_, _, _, g, _) -> g | None -> -1 in
                consider ~probe:"refine" (eval current);
                let after = match !best with Some (_, _, _, g, _) -> g | None -> -1 in
                if after <= before then current.(idx) <- old
              end)
            levels)
        (Array.copy current));
  (* white-box MILP stage: the search space is the encoding, every
     incumbent is realized through the oracle *)
  let milp_outcome = ref Branch_bound.Optimal in
  let milp_bound = ref nan in
  let milp_nodes = ref 0 in
  if options.run_milp then begin
    let enc = encode cfg in
    let grid = 0.01 *. cfg.capacity in
    let snap v = grid *. Float.round (v /. grid) in
    let heuristic primal =
      let inst =
        Array.map (fun v -> snap (Float.max 0. (Float.min cfg.size_ub primal.(v)))) enc.sizes
      in
      match eval inst with
      | Some (_, f, o) -> Some (float_of_int (f - o), None)
      | None -> None
    in
    let bb_options =
      {
        Branch_bound.default_options with
        node_limit = options.node_limit;
        time_limit = options.time_limit;
        log_progress = false;
      }
    in
    let res =
      Solver.solve ~options:bb_options ~presolve:true
        ~primal_heuristic:heuristic enc.model
    in
    milp_outcome := res.Branch_bound.outcome;
    milp_bound := res.Branch_bound.best_bound;
    milp_nodes := res.Branch_bound.nodes;
    (match res.Branch_bound.primal with
    | Some primal ->
        let inst =
          Array.map
            (fun v -> snap (Float.max 0. (Float.min cfg.size_ub primal.(v))))
            enc.sizes
        in
        consider ~probe:"milp" (eval inst)
    | None -> ())
  end;
  Mutex.lock lock;
  let oracle_calls = !calls and oracle_closed = !closed in
  Mutex.unlock lock;
  let instance, ffd_bins, opt_bins, gap, probe =
    match !best with
    | Some (inst, f, o, g, p) -> (inst, f, o, g, p)
    | None ->
        (* every oracle solve was cut short; report the first probe
           unverified rather than fail *)
        let _, inst = List.hd (probes cfg ~seed:options.seed) in
        let p = ffd cfg inst in
        (inst, p.bins, p.bins, 0, "unverified")
  in
  let bound =
    if options.run_milp && not (Float.is_nan !milp_bound) then !milp_bound
    else float_of_int gap
  in
  {
    config = cfg;
    instance;
    ffd_bins;
    opt_bins;
    gap;
    bound;
    outcome = !milp_outcome;
    probe;
    oracle_calls;
    oracle_closed;
    milp_nodes = !milp_nodes;
    elapsed = Unix.gettimeofday () -. t0;
  }
