type outcome = Reduced of t | Infeasible_model

and t = {
  model : Model.t;
  var_map : int array;
  fixed_values : float array;
  rows_dropped : int;
  vars_fixed : int;
  bounds_tightened : int;
}

let tol = 1e-9

exception Infeasible_found

let reduce original =
  let n = Model.num_vars original in
  let m = Model.num_constrs original in
  let lb = Array.init n (Model.var_lb original) in
  let ub = Array.init n (Model.var_ub original) in
  let kind = Array.init n (Model.var_kind original) in
  let fixed = Array.make n false in
  let fixed_value = Array.make n 0. in
  let dropped = Array.make m false in
  let bounds_tightened = ref 0 in
  let sos = Array.map Array.copy (Model.sos1_groups original) in
  let sos_dropped = Array.make (Array.length sos) false in
  let fix v value =
    if not fixed.(v) then begin
      if value < lb.(v) -. 1e-7 || value > ub.(v) +. 1e-7 then
        raise Infeasible_found;
      fixed.(v) <- true;
      fixed_value.(v) <- value;
      lb.(v) <- value;
      ub.(v) <- value
    end
  in
  let tighten_lb v x =
    if x > lb.(v) +. tol then begin
      lb.(v) <- x;
      incr bounds_tightened
    end
  in
  let tighten_ub v x =
    if x < ub.(v) -. tol then begin
      ub.(v) <- x;
      incr bounds_tightened
    end
  in
  let effective_row i =
    let terms =
      List.filter (fun (v, _) -> not fixed.(v))
        (Linexpr.terms (Model.constr_expr original i))
    in
    let shift =
      List.fold_left
        (fun acc (v, c) -> if fixed.(v) then acc +. (c *. fixed_value.(v)) else acc)
        0.
        (Linexpr.terms (Model.constr_expr original i))
    in
    (terms, Model.constr_rhs original i -. shift)
  in
  let lhs_interval terms =
    List.fold_left
      (fun (mn, mx) (v, c) ->
        if c > 0. then (mn +. (c *. lb.(v)), mx +. (c *. ub.(v)))
        else (mn +. (c *. ub.(v)), mx +. (c *. lb.(v))))
      (0., 0.) terms
  in
  (* force every variable of [terms] to the bound achieving the lhs
     minimum (used when a <=-row can only hold at its minimum) *)
  let force_to_min terms =
    List.iter
      (fun (v, c) -> fix v (if c > 0. then lb.(v) else ub.(v)))
      terms
  in
  let force_to_max terms =
    List.iter
      (fun (v, c) -> fix v (if c > 0. then ub.(v) else lb.(v)))
      terms
  in
  let result =
    try
      let changed = ref true in
      let iterations = ref 0 in
      while !changed && !iterations < 20 do
        changed := false;
        incr iterations;
        (* variable rules *)
        for v = 0 to n - 1 do
          (match kind.(v) with
          | Model.Binary | Model.Integer ->
              let l = Float.ceil (lb.(v) -. 1e-7)
              and u = Float.floor (ub.(v) +. 1e-7) in
              if l > lb.(v) +. tol || u < ub.(v) -. tol then begin
                lb.(v) <- Float.max lb.(v) l;
                ub.(v) <- Float.min ub.(v) u;
                incr bounds_tightened;
                changed := true
              end
          | Model.Continuous -> ());
          if lb.(v) > ub.(v) +. 1e-7 then raise Infeasible_found;
          if (not fixed.(v)) && ub.(v) -. lb.(v) <= tol then begin
            fix v lb.(v);
            changed := true
          end
        done;
        (* row rules *)
        for i = 0 to m - 1 do
          if not dropped.(i) then begin
            let terms, rhs = effective_row i in
            let sense = Model.constr_sense original i in
            match terms with
            | [] ->
                (match sense with
                | Model.Le -> if 0. > rhs +. 1e-7 then raise Infeasible_found
                | Model.Ge -> if 0. < rhs -. 1e-7 then raise Infeasible_found
                | Model.Eq ->
                    if Float.abs rhs > 1e-7 then raise Infeasible_found);
                dropped.(i) <- true;
                changed := true
            | [ (v, c) ] ->
                (match sense with
                | Model.Le ->
                    if c > 0. then tighten_ub v (rhs /. c)
                    else tighten_lb v (rhs /. c)
                | Model.Ge ->
                    if c > 0. then tighten_lb v (rhs /. c)
                    else tighten_ub v (rhs /. c)
                | Model.Eq -> fix v (rhs /. c));
                dropped.(i) <- true;
                changed := true
            | _ -> (
                let mn, mx = lhs_interval terms in
                match sense with
                | Model.Le ->
                    if mn > rhs +. 1e-7 then raise Infeasible_found
                    else if mx <= rhs +. tol then begin
                      dropped.(i) <- true;
                      changed := true
                    end
                    else if mn >= rhs -. tol && mn > neg_infinity then begin
                      (* forcing row: only its minimum satisfies it *)
                      force_to_min terms;
                      dropped.(i) <- true;
                      changed := true
                    end
                | Model.Ge ->
                    if mx < rhs -. 1e-7 then raise Infeasible_found
                    else if mn >= rhs -. tol then begin
                      dropped.(i) <- true;
                      changed := true
                    end
                    else if mx <= rhs +. tol && mx < infinity then begin
                      force_to_max terms;
                      dropped.(i) <- true;
                      changed := true
                    end
                | Model.Eq ->
                    if mn > rhs +. 1e-7 || mx < rhs -. 1e-7 then
                      raise Infeasible_found
                    else if mn >= rhs -. tol && mn > neg_infinity then begin
                      force_to_min terms;
                      dropped.(i) <- true;
                      changed := true
                    end
                    else if mx <= rhs +. tol && mx < infinity then begin
                      force_to_max terms;
                      dropped.(i) <- true;
                      changed := true
                    end)
          end
        done;
        (* SOS1 propagation *)
        Array.iteri
          (fun gi group ->
            if not sos_dropped.(gi) then begin
              let nonzero_fixed =
                Array.exists
                  (fun v -> fixed.(v) && Float.abs fixed_value.(v) > 1e-9)
                  group
              in
              if nonzero_fixed then begin
                Array.iter
                  (fun v ->
                    if not (fixed.(v) && Float.abs fixed_value.(v) > 1e-9) then
                      fix v 0.)
                  group;
                sos_dropped.(gi) <- true;
                changed := true
              end
              else begin
                let remaining =
                  Array.of_list
                    (List.filter (fun v -> not fixed.(v)) (Array.to_list group))
                in
                if Array.length remaining < Array.length group then changed := true;
                sos.(gi) <- remaining;
                if Array.length remaining <= 1 then begin
                  sos_dropped.(gi) <- true;
                  if Array.length remaining < Array.length group then
                    changed := true
                end
              end
            end)
          sos
      done;
      None
    with Infeasible_found -> Some Infeasible_model
  in
  match result with
  | Some infeasible -> infeasible
  | None ->
      (* assemble the reduced model *)
      let reduced = Model.create ~name:(Model.name original ^ "_presolved") () in
      let var_map = Array.make n (-1) in
      for v = 0 to n - 1 do
        if not fixed.(v) then
          var_map.(v) <-
            Model.add_var ~name:(Model.var_name original v) ~lb:lb.(v)
              ~ub:ub.(v) ~kind:kind.(v) reduced
      done;
      let rows_dropped = ref 0 in
      for i = 0 to m - 1 do
        if dropped.(i) then incr rows_dropped
        else begin
          let terms, rhs = effective_row i in
          let expr =
            Linexpr.of_terms (List.map (fun (v, c) -> (var_map.(v), c)) terms)
          in
          ignore
            (Model.add_constr
               ~name:(Model.constr_name original i)
               reduced expr
               (Model.constr_sense original i)
               rhs)
        end
      done;
      Array.iteri
        (fun gi group ->
          if (not sos_dropped.(gi)) && Array.length group >= 2 then
            Model.add_sos1 reduced
              (List.map (fun v -> var_map.(v)) (Array.to_list group)))
        sos;
      let dir, obj = Model.objective original in
      let obj_shift =
        List.fold_left
          (fun acc (v, c) -> if fixed.(v) then acc +. (c *. fixed_value.(v)) else acc)
          (Linexpr.const_part obj) (Linexpr.terms obj)
      in
      let obj' =
        Linexpr.of_terms ~constant:obj_shift
          (List.filter_map
             (fun (v, c) -> if fixed.(v) then None else Some (var_map.(v), c))
             (Linexpr.terms obj))
      in
      Model.set_objective reduced dir obj';
      Reduced
        {
          model = reduced;
          var_map;
          fixed_values = fixed_value;
          rows_dropped = !rows_dropped;
          vars_fixed =
            Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 fixed;
          bounds_tightened = !bounds_tightened;
        }

(* ------------------------------------------------------------------ *)
(* Interval propagation for big-M derivation                           *)
(* ------------------------------------------------------------------ *)

type row = { terms : (int * float) array; sense : Model.sense; rhs : float }

(* Full row-implied bound tightening over [lb]/[ub], edited in place,
   for at most four fixed-point rounds: for each row and each of its
   variables, the residual activity of the other variables bounds what
   this one can contribute; integer variables round to the nearest
   contained integer. Infinite contributions are counted, not summed,
   so a single unbounded variable still receives the bound implied by
   its (finite) co-variables. Returns false when propagation empties a
   box or a row. *)
let tighten_intervals ~rows ~integer ~lb ~ub =
  try
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 4 do
      changed := false;
      incr rounds;
      Array.iter
        (fun { terms; sense; rhs } ->
          (* activity interval, with infinities counted separately so a
             single infinite term can be excluded exactly *)
          let mn_fin = ref 0. and mx_fin = ref 0. in
          let mn_inf = ref 0 and mx_inf = ref 0 in
          Array.iter
            (fun (v, c) ->
              let lo_c = if c > 0. then c *. lb.(v) else c *. ub.(v) in
              let hi_c = if c > 0. then c *. ub.(v) else c *. lb.(v) in
              if lo_c = neg_infinity then incr mn_inf else mn_fin := !mn_fin +. lo_c;
              if hi_c = infinity then incr mx_inf else mx_fin := !mx_fin +. hi_c)
            terms;
          let mn = if !mn_inf > 0 then neg_infinity else !mn_fin in
          let mx = if !mx_inf > 0 then infinity else !mx_fin in
          (match sense with
          | Model.Le -> if mn > rhs +. 1e-7 then raise Infeasible_found
          | Model.Ge -> if mx < rhs -. 1e-7 then raise Infeasible_found
          | Model.Eq ->
              if mn > rhs +. 1e-7 || mx < rhs -. 1e-7 then
                raise Infeasible_found);
          Array.iter
            (fun (v, c) ->
              let lo_c = if c > 0. then c *. lb.(v) else c *. ub.(v) in
              let hi_c = if c > 0. then c *. ub.(v) else c *. lb.(v) in
              (* residual activity of the row without v *)
              let mn_wo =
                if lo_c = neg_infinity then
                  if !mn_inf = 1 then !mn_fin else neg_infinity
                else if !mn_inf > 0 then neg_infinity
                else !mn_fin -. lo_c
              in
              let mx_wo =
                if hi_c = infinity then
                  if !mx_inf = 1 then !mx_fin else infinity
                else if !mx_inf > 0 then infinity
                else !mx_fin -. hi_c
              in
              let apply_ub x =
                let x =
                  if integer.(v) then Float.floor (x +. 1e-7) else x
                in
                if x < ub.(v) -. tol then begin
                  ub.(v) <- x;
                  changed := true;
                  if lb.(v) > ub.(v) +. 1e-7 then raise Infeasible_found
                end
              in
              let apply_lb x =
                let x = if integer.(v) then Float.ceil (x -. 1e-7) else x in
                if x > lb.(v) +. tol then begin
                  lb.(v) <- x;
                  changed := true;
                  if lb.(v) > ub.(v) +. 1e-7 then raise Infeasible_found
                end
              in
              (* c*x_v <= rhs - mn_wo from Le/Eq rows *)
              (match sense with
              | Model.Le | Model.Eq ->
                  if mn_wo > neg_infinity then begin
                    let bound = (rhs -. mn_wo) /. c in
                    if c > 0. then apply_ub bound else apply_lb bound
                  end
              | Model.Ge -> ());
              (* c*x_v >= rhs - mx_wo from Ge/Eq rows *)
              match sense with
              | Model.Ge | Model.Eq ->
                  if mx_wo < infinity then begin
                    let bound = (rhs -. mx_wo) /. c in
                    if c > 0. then apply_lb bound else apply_ub bound
                  end
              | Model.Le -> ())
            terms)
        rows
    done;
    true
  with Infeasible_found -> false

let model_rows model =
  Array.init (Model.num_constrs model) (fun i ->
      {
        terms = Array.of_list (Linexpr.terms (Model.constr_expr model i));
        sense = Model.constr_sense model i;
        rhs = Model.constr_rhs model i;
      })

let var_intervals model =
  match reduce model with
  | Infeasible_model -> None
  | Reduced red -> (
      (* sharpen the reduced model's boxes with the full row-implied
         propagation before mapping back: [reduce] only tightens via
         singleton rows, which leaves big-M intervals looser than the
         rows actually allow *)
      let nr = Model.num_vars red.model in
      let lb = Array.init nr (Model.var_lb red.model) in
      let ub = Array.init nr (Model.var_ub red.model) in
      let integer =
        Array.init nr (fun v ->
            match Model.var_kind red.model v with
            | Model.Binary | Model.Integer -> true
            | Model.Continuous -> false)
      in
      if tighten_intervals ~rows:(model_rows red.model) ~integer ~lb ~ub then
        Some
          (Array.mapi
             (fun v mapped ->
               if mapped >= 0 then (lb.(mapped), ub.(mapped))
               else (red.fixed_values.(v), red.fixed_values.(v)))
             red.var_map)
      else None)

let restore red reduced_primal =
  Array.mapi
    (fun v mapped ->
      if mapped >= 0 then reduced_primal.(mapped) else red.fixed_values.(v))
    red.var_map
