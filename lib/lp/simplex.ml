(* Bounded-variable two-phase primal simplex + dual simplex warm restarts.
   Internally we always minimize; Standard_form already negated maximization
   objectives. Column layout: [0, n) structural, [n, n+m) slacks (one per
   row, identity coefficients), [n+m, n+2m) artificials (identity; only used
   by phase 1 and, as a side benefit, their tableau columns are B^-1, which
   gives us dual values for free). *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

let pp_status ppf = function
  | Optimal -> Fmt.string ppf "optimal"
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unbounded -> Fmt.string ppf "unbounded"
  | Iteration_limit -> Fmt.string ppf "iteration limit"

type stats = {
  iterations : int;
  refactorizations : int;
  etas : int;
  warm_hits : int;
  warm_misses : int;
  rhs_ftran : int;
  rhs_dual : int;
  rhs_batch : int;
  rhs_batch_cols : int;
  rhs_peeled : int;
  presolve_rows : int;
  presolve_cols : int;
}

let empty_stats =
  {
    iterations = 0;
    refactorizations = 0;
    etas = 0;
    warm_hits = 0;
    warm_misses = 0;
    rhs_ftran = 0;
    rhs_dual = 0;
    rhs_batch = 0;
    rhs_batch_cols = 0;
    rhs_peeled = 0;
    presolve_rows = 0;
    presolve_cols = 0;
  }

let add_stats a b =
  {
    iterations = a.iterations + b.iterations;
    refactorizations = a.refactorizations + b.refactorizations;
    etas = a.etas + b.etas;
    warm_hits = a.warm_hits + b.warm_hits;
    warm_misses = a.warm_misses + b.warm_misses;
    rhs_ftran = a.rhs_ftran + b.rhs_ftran;
    rhs_dual = a.rhs_dual + b.rhs_dual;
    rhs_batch = a.rhs_batch + b.rhs_batch;
    rhs_batch_cols = a.rhs_batch_cols + b.rhs_batch_cols;
    rhs_peeled = a.rhs_peeled + b.rhs_peeled;
    presolve_rows = a.presolve_rows + b.presolve_rows;
    presolve_cols = a.presolve_cols + b.presolve_cols;
  }

let pp_stats ppf s =
  Fmt.pf ppf "iters=%d refactors=%d etas=%d warm=%d/%d" s.iterations
    s.refactorizations s.etas s.warm_hits (s.warm_hits + s.warm_misses);
  if s.rhs_ftran > 0 || s.rhs_dual > 0 then
    Fmt.pf ppf " rhs=%df/%dd" s.rhs_ftran s.rhs_dual;
  if s.rhs_batch > 0 then
    Fmt.pf ppf " batch=%dx%d(-%d peeled)" s.rhs_batch s.rhs_batch_cols
      s.rhs_peeled;
  if s.presolve_rows > 0 || s.presolve_cols > 0 then
    Fmt.pf ppf " presolve=-%dr/-%dc" s.presolve_rows s.presolve_cols

(* A basis usable to warm-start any backend on the same standard form:
   which column is basic in each row plus every column's nonbasic anchor,
   encoded as plain int arrays so snapshots can be shipped by value
   across domains. Statuses: 0 basic, 1 at lower, 2 at upper, 3 free. *)
type basis_snapshot = { snap_basis : int array; snap_stat : int array }

type solution = {
  status : status;
  objective : float;
  primal : float array;
  duals : float array;
  reduced_costs : float array;
  iterations : int;
}

type vstat = Basic | At_lower | At_upper | Free_nb

type t = {
  sf : Standard_form.t;
  n : int;
  m : int;
  nt : int;
  b : float array;
      (* per-state right-hand side, seeded from sf.b at create; scenario
         sweeps edit it in place via set_rhs while sf stays shared
         read-only across domains *)
  tab : float array array; (* m rows x nt columns: B^-1 [A I I] *)
  d : float array; (* reduced costs, length nt *)
  cost : float array; (* current phase cost vector, length nt *)
  basis : int array; (* length m: column basic in each row *)
  stat : vstat array; (* length nt *)
  xb : float array; (* length m: values of basic variables *)
  lb : float array; (* length nt *)
  ub : float array; (* length nt *)
  mutable solved_once : bool;
  mutable phase2_opt : bool;
      (* last extract left a phase-2 optimal basis and nothing (bounds,
         basis install) invalidated it since — the precondition for the
         ftran-only RHS re-solve path *)
  mutable iters_total : int;
  mutable warm_hits : int;
  mutable warm_misses : int;
  mutable rhs_ftran : int;
  mutable rhs_dual : int;
  mutable rhs_batch : int;
  mutable rhs_batch_cols : int;
  mutable rhs_peeled : int;
  mutable refactors : int;
  mutable deadline : Repro_resilience.Deadline.t option;
      (* cooperative budget checked inside the pivot loops; installed by
         each solve_fresh/resolve call, cleared when the caller passes
         none so a stale budget never outlives its request *)
}

let feas_tol = 1e-7
let dual_tol = 1e-7
let pivot_tol = 1e-9

(* max relative row residual tolerated before the tableau is rebuilt *)
let residual_tol = 1e-6

let art t i = t.n + t.m + i
let slack t i = t.n + i

let create (sf : Standard_form.t) =
  let n = sf.n and m = sf.m in
  let nt = n + m + m in
  let lb = Array.make nt 0. and ub = Array.make nt infinity in
  Array.blit sf.lb 0 lb 0 n;
  Array.blit sf.ub 0 ub 0 n;
  for i = 0 to m - 1 do
    (match sf.senses.(i) with
    | Model.Le ->
        lb.(n + i) <- 0.;
        ub.(n + i) <- infinity
    | Model.Ge ->
        lb.(n + i) <- neg_infinity;
        ub.(n + i) <- 0.
    | Model.Eq ->
        lb.(n + i) <- 0.;
        ub.(n + i) <- 0.);
    lb.(n + m + i) <- 0.;
    ub.(n + m + i) <- 0.
  done;
  {
    sf;
    n;
    m;
    nt;
    b = Array.copy sf.b;
    tab = Array.init m (fun _ -> Array.make nt 0.);
    d = Array.make nt 0.;
    cost = Array.make nt 0.;
    basis = Array.make m (-1);
    stat = Array.make nt At_lower;
    xb = Array.make m 0.;
    lb;
    ub;
    solved_once = false;
    phase2_opt = false;
    iters_total = 0;
    warm_hits = 0;
    warm_misses = 0;
    rhs_ftran = 0;
    rhs_dual = 0;
    rhs_batch = 0;
    rhs_batch_cols = 0;
    rhs_peeled = 0;
    refactors = 0;
    deadline = None;
  }

let get_lb t j = t.lb.(j)
let get_ub t j = t.ub.(j)

(* Current value of a nonbasic variable given its status. *)
let nb_value t j =
  match t.stat.(j) with
  | At_lower -> t.lb.(j)
  | At_upper -> t.ub.(j)
  | Free_nb -> 0.
  | Basic -> invalid_arg "nb_value: basic"

let set_bounds t j ~lb ~ub =
  if j < 0 || j >= t.n then invalid_arg "Simplex.set_bounds";
  if lb > ub then invalid_arg "Simplex.set_bounds: lb > ub";
  t.phase2_opt <- false;
  if t.stat.(j) = Basic || not t.solved_once then begin
    t.lb.(j) <- lb;
    t.ub.(j) <- ub
  end
  else begin
    let v0 = nb_value t j in
    t.lb.(j) <- lb;
    t.ub.(j) <- ub;
    (* Re-anchor the nonbasic variable on a bound that still exists. *)
    (match t.stat.(j) with
    | At_lower when lb = neg_infinity ->
        t.stat.(j) <- (if ub < infinity then At_upper else Free_nb)
    | At_upper when ub = infinity ->
        t.stat.(j) <- (if lb > neg_infinity then At_lower else Free_nb)
    | _ -> ());
    let v1 = if t.stat.(j) = Basic then v0 else nb_value t j in
    let delta = v1 -. v0 in
    if delta <> 0. then
      (* keep A x = b: basic values absorb the shift via column j *)
      for i = 0 to t.m - 1 do
        let a = Array.unsafe_get (Array.unsafe_get t.tab i) j in
        if a <> 0. then t.xb.(i) <- t.xb.(i) -. (a *. delta)
      done
  end

(* ------------------------------------------------------------------ *)
(* Tableau (re)construction and invariant refresh                      *)
(* ------------------------------------------------------------------ *)

let rebuild_tableau t =
  for i = 0 to t.m - 1 do
    let row = t.tab.(i) in
    Array.fill row 0 t.nt 0.;
    Array.iter (fun (j, a) -> row.(j) <- row.(j) +. a) t.sf.rows.(i);
    row.(slack t i) <- 1.;
    row.(art t i) <- 1.
  done

(* Residual b - (A x_N) over nonbasic structural + slack columns. *)
let residuals t =
  let r = Array.copy t.b in
  (* walk rows once using sparse storage (cheaper than column walk) *)
  for i = 0 to t.m - 1 do
    Array.iter
      (fun (j, a) ->
        if t.stat.(j) <> Basic then r.(i) <- r.(i) -. (a *. nb_value t j))
      t.sf.rows.(i);
    let s = slack t i in
    if t.stat.(s) <> Basic then r.(i) <- r.(i) -. nb_value t s;
    let a = art t i in
    if t.stat.(a) <> Basic then r.(i) <- r.(i) -. nb_value t a
  done;
  r

(* Recompute basic values: xb = B^-1 r, using the artificial columns of the
   tableau which hold B^-1. *)
let refresh_xb t =
  let r = residuals t in
  for i = 0 to t.m - 1 do
    let row = t.tab.(i) in
    let acc = ref 0. in
    for k = 0 to t.m - 1 do
      let binv = Array.unsafe_get row (t.n + t.m + k) in
      if binv <> 0. then acc := !acc +. (binv *. Array.unsafe_get r k)
    done;
    t.xb.(i) <- !acc
  done

(* Recompute reduced costs d = cost - cost_B * tab. *)
let refresh_d t =
  Array.blit t.cost 0 t.d 0 t.nt;
  for i = 0 to t.m - 1 do
    let cb = t.cost.(t.basis.(i)) in
    if cb <> 0. then begin
      let row = t.tab.(i) in
      for j = 0 to t.nt - 1 do
        Array.unsafe_set t.d j
          (Array.unsafe_get t.d j -. (cb *. Array.unsafe_get row j))
      done
    end
  done;
  (* exact zeros for basic columns *)
  for i = 0 to t.m - 1 do
    t.d.(t.basis.(i)) <- 0.
  done

(* ------------------------------------------------------------------ *)
(* Pivoting                                                            *)
(* ------------------------------------------------------------------ *)

(* Pivot on (row r, column q): row ops on the tableau and reduced costs. *)
let pivot t r q =
  let rowr = t.tab.(r) in
  let piv = rowr.(q) in
  let inv = 1. /. piv in
  for j = 0 to t.nt - 1 do
    Array.unsafe_set rowr j (Array.unsafe_get rowr j *. inv)
  done;
  rowr.(q) <- 1.;
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let rowi = t.tab.(i) in
      let f = Array.unsafe_get rowi q in
      if f <> 0. then begin
        for j = 0 to t.nt - 1 do
          Array.unsafe_set rowi j
            (Array.unsafe_get rowi j -. (f *. Array.unsafe_get rowr j))
        done;
        rowi.(q) <- 0.
      end
    end
  done;
  let f = t.d.(q) in
  if f <> 0. then begin
    for j = 0 to t.nt - 1 do
      Array.unsafe_set t.d j
        (Array.unsafe_get t.d j -. (f *. Array.unsafe_get rowr j))
    done;
    t.d.(q) <- 0.
  end

(* ------------------------------------------------------------------ *)
(* Drift detection and refactorization                                 *)
(* ------------------------------------------------------------------ *)

(* Max relative row residual |a_i . x - b_i| of the current solution over
   the original (unpivoted) constraint data. The tableau accumulates
   round-off because every pivot rewrites all rows in place; this is the
   detector that decides when it has drifted too far to trust. *)
let residual_error t =
  let x = Array.make t.nt 0. in
  for j = 0 to t.nt - 1 do
    if t.stat.(j) <> Basic then x.(j) <- nb_value t j
  done;
  for i = 0 to t.m - 1 do
    x.(t.basis.(i)) <- t.xb.(i)
  done;
  let worst = ref 0. in
  for i = 0 to t.m - 1 do
    let acc = ref 0. in
    Array.iter (fun (j, a) -> acc := !acc +. (a *. x.(j))) t.sf.rows.(i);
    acc := !acc +. x.(slack t i) +. x.(art t i);
    let err = Float.abs (!acc -. t.b.(i)) /. (1. +. Float.abs t.b.(i)) in
    if err > !worst then worst := err
  done;
  !worst

(* Rebuild B^-1 [A I I] from the original matrix by Gauss-Jordan over the
   current basis (greedy largest-pivot order). false means the basis went
   numerically singular. Refreshes basic values and reduced costs on
   success because both are derived from the tableau. *)
let refactor t =
  rebuild_tableau t;
  let processed = Array.make t.m false in
  let ok = ref true in
  (try
     for _ = 1 to t.m do
       let best_r = ref (-1) and best = ref 0. in
       for r = 0 to t.m - 1 do
         if not processed.(r) then begin
           let a = Float.abs t.tab.(r).(t.basis.(r)) in
           if a > !best then begin
             best := a;
             best_r := r
           end
         end
       done;
       if !best <= pivot_tol then begin
         ok := false;
         raise Exit
       end;
       pivot t !best_r t.basis.(!best_r);
       processed.(!best_r) <- true
     done
   with Exit -> ());
  if !ok then begin
    t.refactors <- t.refactors + 1;
    refresh_xb t;
    refresh_d t
  end;
  !ok

(* ------------------------------------------------------------------ *)
(* Primal simplex                                                      *)
(* ------------------------------------------------------------------ *)

type step_result = Step_ok | Step_optimal | Step_unbounded

(* One primal iteration. [bland] selects Bland's anti-cycling rule.
   Returns whether progress was degenerate via [degen] ref. *)
let primal_step t ~bland ~degen =
  (* entering variable *)
  let q = ref (-1) in
  let best = ref dual_tol in
  let consider j score =
    if bland then begin
      if score > dual_tol && !q = -1 then q := j
    end
    else if score > !best then begin
      best := score;
      q := j
    end
  in
  for j = 0 to t.nt - 1 do
    (match t.stat.(j) with
    | Basic -> ()
    | At_lower ->
        if t.lb.(j) < t.ub.(j) then consider j (-.t.d.(j))
    | At_upper ->
        if t.lb.(j) < t.ub.(j) then consider j t.d.(j)
    | Free_nb -> consider j (Float.abs t.d.(j)))
  done;
  if !q = -1 then Step_optimal
  else begin
    let q = !q in
    let delta =
      match t.stat.(q) with
      | At_lower -> 1.
      | At_upper -> -1.
      | Free_nb -> if t.d.(q) < 0. then 1. else -1.
      | Basic -> assert false
    in
    (* ratio test *)
    let t_self =
      match t.stat.(q) with
      | Free_nb -> infinity
      | _ -> t.ub.(q) -. t.lb.(q)
    in
    let best_t = ref t_self in
    let best_r = ref (-1) in
    let best_piv = ref 0. in
    for i = 0 to t.m - 1 do
      let a = Array.unsafe_get (Array.unsafe_get t.tab i) q in
      let rate = -.delta *. a in
      (* basic value changes at [rate] per unit of t *)
      if rate < -.pivot_tol then begin
        let lo = t.lb.(t.basis.(i)) in
        if lo > neg_infinity then begin
          let lim = (t.xb.(i) -. lo) /. -.rate in
          let lim = if lim < 0. then 0. else lim in
          if
            lim < !best_t -. feas_tol
            || (lim < !best_t +. feas_tol
               && (Float.abs a > Float.abs !best_piv
                  || (bland && !best_r >= 0 && t.basis.(i) < t.basis.(!best_r))))
          then begin
            best_t := lim;
            best_r := i;
            best_piv := a
          end
        end
      end
      else if rate > pivot_tol then begin
        let hi = t.ub.(t.basis.(i)) in
        if hi < infinity then begin
          let lim = (hi -. t.xb.(i)) /. rate in
          let lim = if lim < 0. then 0. else lim in
          if
            lim < !best_t -. feas_tol
            || (lim < !best_t +. feas_tol
               && (Float.abs a > Float.abs !best_piv
                  || (bland && !best_r >= 0 && t.basis.(i) < t.basis.(!best_r))))
          then begin
            best_t := lim;
            best_r := i;
            best_piv := a
          end
        end
      end
    done;
    if !best_t = infinity then Step_unbounded
    else begin
      let step = Float.max 0. !best_t in
      degen := step <= feas_tol;
      (* move basics *)
      if step > 0. then
        for i = 0 to t.m - 1 do
          let a = Array.unsafe_get (Array.unsafe_get t.tab i) q in
          if a <> 0. then t.xb.(i) <- t.xb.(i) -. (delta *. step *. a)
        done;
      if !best_r = -1 then begin
        (* bound flip *)
        t.stat.(q) <- (if t.stat.(q) = At_lower then At_upper else At_lower);
        Step_ok
      end
      else begin
        let r = !best_r in
        let leaving = t.basis.(r) in
        let a_rq = t.tab.(r).(q) in
        let rate = -.delta *. a_rq in
        (* leaving var hit which bound? *)
        t.stat.(leaving) <- (if rate < 0. then At_lower else At_upper);
        (* guard: equality-slack style fixed vars land At_lower *)
        if t.lb.(leaving) = t.ub.(leaving) then t.stat.(leaving) <- At_lower;
        let xq_new = (if t.stat.(q) = Free_nb then 0. else nb_value t q) +. (delta *. step) in
        pivot t r q;
        t.stat.(q) <- Basic;
        t.basis.(r) <- q;
        t.xb.(r) <- xq_new;
        Step_ok
      end
    end
  end

exception Done of status

(* One per-pivot budget tick: charge the shared deadline and stop the
   loop when any budget is exhausted. A pivot is O(m*n) work, so the
   atomic charge + expiry poll is noise; with no deadline installed
   (and no faults armed) this is two loads and the solve is
   bit-identical to the pre-resilience engine. [pivot_stall] is the
   chaos-test injection point simulating a wedged pivot: it burns wall
   time right here, where only the deadline can rescue the solve. *)
let budget_tick t ~stop =
  if Repro_resilience.Faults.armed () then
    Repro_resilience.Faults.stall "pivot_stall" ~seconds:0.05;
  match t.deadline with
  | None -> ()
  | Some d ->
      Repro_resilience.Deadline.charge_pivots d 1;
      if Repro_resilience.Deadline.expired d then stop ()

let run_primal t ~iter_limit =
  let iters = ref 0 in
  let degen_run = ref 0 in
  let bland_threshold = 200 + t.m in
  (try
     while true do
       if !iters >= iter_limit then raise (Done Iteration_limit);
       let bland = !degen_run > bland_threshold in
       let degen = ref false in
       (match primal_step t ~bland ~degen with
       | Step_optimal -> raise (Done Optimal)
       | Step_unbounded -> raise (Done Unbounded)
       | Step_ok -> ());
       if !degen then incr degen_run else degen_run := 0;
       incr iters;
       t.iters_total <- t.iters_total + 1;
       budget_tick t ~stop:(fun () -> raise (Done Iteration_limit));
       if !iters mod 2000 = 0 then begin
         refresh_xb t;
         if residual_error t > residual_tol then begin
           if not (refactor t) then raise (Done Iteration_limit)
         end
         else refresh_d t
       end
     done;
     assert false
   with Done s -> (s, !iters))

(* ------------------------------------------------------------------ *)
(* Phase 1 / phase 2 orchestration                                     *)
(* ------------------------------------------------------------------ *)

let start_basis t =
  (* nonbasic structural at a finite bound nearest zero *)
  for j = 0 to t.n - 1 do
    t.stat.(j) <-
      (if t.lb.(j) > neg_infinity then At_lower
       else if t.ub.(j) < infinity then At_upper
       else Free_nb)
  done;
  rebuild_tableau t;
  (* residual with all slacks+artificials nonbasic at 0 *)
  let r = Array.copy t.b in
  for i = 0 to t.m - 1 do
    Array.iter (fun (j, a) -> r.(i) <- r.(i) -. (a *. nb_value t j)) t.sf.rows.(i)
  done;
  Array.fill t.cost 0 t.nt 0.;
  for i = 0 to t.m - 1 do
    let s = slack t i and a = art t i in
    (* default: artificial fixed out of the problem *)
    t.lb.(a) <- 0.;
    t.ub.(a) <- 0.;
    if r.(i) >= t.lb.(s) -. feas_tol && r.(i) <= t.ub.(s) +. feas_tol then begin
      (* slack can absorb the residual: basic *)
      t.basis.(i) <- s;
      t.stat.(s) <- Basic;
      t.stat.(a) <- At_lower;
      t.xb.(i) <- r.(i)
    end
    else begin
      (* slack pinned at the violated bound (0 for all senses), artificial
         carries the residual with a sign-matched one-sided bound *)
      t.stat.(s) <- At_lower;
      (* for Ge rows lb is -inf; anchor on ub = 0 instead *)
      if t.lb.(s) = neg_infinity then t.stat.(s) <- At_upper;
      t.basis.(i) <- a;
      t.stat.(a) <- Basic;
      t.xb.(i) <- r.(i);
      if r.(i) > 0. then begin
        t.lb.(a) <- 0.;
        t.ub.(a) <- infinity;
        t.cost.(a) <- 1.
      end
      else begin
        t.lb.(a) <- neg_infinity;
        t.ub.(a) <- 0.;
        t.cost.(a) <- -1.
      end
    end
  done;
  refresh_d t

let phase1_objective t =
  let acc = ref 0. in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if b >= t.n + t.m then acc := !acc +. Float.abs t.xb.(i)
  done;
  !acc

let enter_phase2 t =
  (* fix artificials to zero so they can never re-enter *)
  for i = 0 to t.m - 1 do
    let a = art t i in
    t.lb.(a) <- 0.;
    t.ub.(a) <- 0.;
    if t.stat.(a) <> Basic then t.stat.(a) <- At_lower
  done;
  Array.fill t.cost 0 t.nt 0.;
  Array.blit t.sf.c 0 t.cost 0 t.n;
  refresh_d t

(* ------------------------------------------------------------------ *)
(* Solution extraction                                                 *)
(* ------------------------------------------------------------------ *)

let primal_values t =
  let x = Array.make t.n 0. in
  for j = 0 to t.n - 1 do
    if t.stat.(j) <> Basic then x.(j) <- nb_value t j
  done;
  for i = 0 to t.m - 1 do
    if t.basis.(i) < t.n then x.(t.basis.(i)) <- t.xb.(i)
  done;
  x

let dual_values t =
  (* y = cost_B * B^-1; artificial tableau columns hold B^-1 *)
  let y = Array.make t.m 0. in
  for k = 0 to t.m - 1 do
    let acc = ref 0. in
    for i = 0 to t.m - 1 do
      let cb = t.cost.(t.basis.(i)) in
      if cb <> 0. then acc := !acc +. (cb *. t.tab.(i).(t.n + t.m + k))
    done;
    y.(k) <- !acc
  done;
  y

let extract t status iterations =
  (* every extract site with [Optimal] is past phase 2, so this flag is
     exactly "the state holds a phase-2 optimal basis" *)
  t.phase2_opt <- status = Optimal;
  let sgn = if t.sf.flip_sign then -1. else 1. in
  match status with
  | Optimal | Iteration_limit ->
      let primal = primal_values t in
      let obj = ref t.sf.obj_const in
      for j = 0 to t.n - 1 do
        obj := !obj +. (t.sf.c.(j) *. primal.(j))
      done;
      let duals = dual_values t in
      let reduced = Array.sub t.d 0 t.n in
      if t.sf.flip_sign then begin
        Array.iteri (fun i v -> duals.(i) <- -.v) duals;
        Array.iteri (fun i v -> reduced.(i) <- -.v) reduced
      end;
      {
        status;
        objective = sgn *. !obj;
        primal;
        duals;
        reduced_costs = reduced;
        iterations;
      }
  | Infeasible ->
      {
        status;
        objective = Float.nan;
        primal = Array.make t.n 0.;
        duals = Array.make t.m 0.;
        reduced_costs = Array.make t.n 0.;
        iterations;
      }
  | Unbounded ->
      {
        status;
        objective = (if t.sf.flip_sign then infinity else neg_infinity);
        primal = Array.make t.n 0.;
        duals = Array.make t.m 0.;
        reduced_costs = Array.make t.n 0.;
        iterations;
      }

let default_iter_limit t = 20_000 + (40 * (t.m + t.n))

(* Fresh two-phase solve, without the post-solve drift repair (which
   needs the dual simplex, defined below; see [solve_fresh]). *)
let solve_fresh_raw ?iter_limit t =
  let iter_limit =
    match iter_limit with
    | Some l -> l
    | None -> default_iter_limit t
  in
  start_basis t;
  let s1, it1 = run_primal t ~iter_limit in
  t.solved_once <- true;
  match s1 with
  | Iteration_limit -> extract t Iteration_limit it1
  | Unbounded ->
      (* phase 1 objective is bounded below by 0; treat as numerical noise *)
      extract t Iteration_limit it1
  | Infeasible -> assert false
  | Optimal ->
      if phase1_objective t > 1e-6 then extract t Infeasible it1
      else begin
        enter_phase2 t;
        refresh_xb t;
        let s2, it2 = run_primal t ~iter_limit in
        extract t s2 (it1 + it2)
      end

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

exception Fallback

(* Make nonbasic statuses consistent with reduced-cost signs (required for
   dual feasibility after arbitrary bound changes). *)
let normalize_nonbasic t =
  for j = 0 to t.nt - 1 do
    match t.stat.(j) with
    | Basic -> ()
    | _ ->
        let lo = t.lb.(j) and hi = t.ub.(j) in
        if lo = hi then t.stat.(j) <- At_lower
        else if t.d.(j) > dual_tol then
          if lo > neg_infinity then t.stat.(j) <- At_lower else raise Fallback
        else if t.d.(j) < -.dual_tol then
          if hi < infinity then t.stat.(j) <- At_upper else raise Fallback
        else if
          (* d ~ 0: keep current anchor when still finite *)
          (t.stat.(j) = At_lower && lo = neg_infinity)
          || (t.stat.(j) = At_upper && hi = infinity)
          || t.stat.(j) = Free_nb
        then
          t.stat.(j) <-
            (if lo > neg_infinity then At_lower
             else if hi < infinity then At_upper
             else Free_nb)
  done

let dual_step t =
  (* leaving row: largest primal infeasibility *)
  let r = ref (-1) in
  let worst = ref feas_tol in
  let need_increase = ref false in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    let below = t.lb.(b) -. t.xb.(i) and above = t.xb.(i) -. t.ub.(b) in
    if below > !worst then begin
      worst := below;
      r := i;
      need_increase := true
    end;
    if above > !worst then begin
      worst := above;
      r := i;
      need_increase := false
    end
  done;
  if !r = -1 then Step_optimal
  else begin
    let r = !r in
    let row = t.tab.(r) in
    (* entering: min |d_j| / |row_j| among sign-eligible columns *)
    let q = ref (-1) in
    let best_ratio = ref infinity in
    let best_a = ref 0. in
    for j = 0 to t.nt - 1 do
      (match t.stat.(j) with
      | Basic -> ()
      | _ when t.lb.(j) = t.ub.(j) -> ()
      | st ->
          let a = Array.unsafe_get row j in
          if Float.abs a > pivot_tol then begin
            let dirs =
              match st with
              | At_lower -> [ 1. ]
              | At_upper -> [ -1. ]
              | Free_nb -> [ 1.; -1. ]
              | Basic -> []
            in
            List.iter
              (fun delta ->
                (* xb_r changes at rate -delta*a; we need the right sign *)
                let rate = -.delta *. a in
                let eligible = if !need_increase then rate > 0. else rate < 0. in
                if eligible then begin
                  let ratio = Float.abs t.d.(j) /. Float.abs a in
                  if
                    ratio < !best_ratio -. 1e-12
                    || (ratio < !best_ratio +. 1e-12 && Float.abs a > Float.abs !best_a)
                  then begin
                    best_ratio := ratio;
                    best_a := a;
                    q := j
                  end
                end)
              dirs
          end)
    done;
    if !q = -1 then Step_unbounded (* dual unbounded = primal infeasible *)
    else begin
      let q = !q in
      let a_rq = row.(q) in
      let target =
        if !need_increase then t.lb.(t.basis.(r)) else t.ub.(t.basis.(r))
      in
      (* xb_r + (-delta_step * a_rq) = target, with x_q moving by delta_step *)
      let delta_step = (t.xb.(r) -. target) /. a_rq in
      let xq0 = if t.stat.(q) = Free_nb then 0. else nb_value t q in
      for i = 0 to t.m - 1 do
        if i <> r then begin
          let a = Array.unsafe_get (Array.unsafe_get t.tab i) q in
          if a <> 0. then t.xb.(i) <- t.xb.(i) -. (a *. delta_step)
        end
      done;
      let leaving = t.basis.(r) in
      t.stat.(leaving) <- (if !need_increase then At_lower else At_upper);
      if t.lb.(leaving) = t.ub.(leaving) then t.stat.(leaving) <- At_lower;
      pivot t r q;
      t.stat.(q) <- Basic;
      t.basis.(r) <- q;
      t.xb.(r) <- xq0 +. delta_step;
      Step_ok
    end
  end

let run_dual t ~iter_limit =
  let iters = ref 0 in
  (try
     while true do
       if !iters >= iter_limit then raise Fallback;
       (match dual_step t with
       | Step_optimal -> raise (Done Optimal)
       | Step_unbounded -> raise (Done Infeasible)
       | Step_ok -> ());
       incr iters;
       t.iters_total <- t.iters_total + 1;
       (* deadline expiry ends the solve (not [Fallback]: a from-scratch
          re-solve would keep burning an already-exhausted budget) *)
       budget_tick t ~stop:(fun () -> raise (Done Iteration_limit));
       if !iters mod 2000 = 0 then begin
         refresh_xb t;
         if residual_error t > residual_tol then begin
           if not (refactor t) then raise Fallback
         end
         else refresh_d t
       end
     done;
     assert false
   with Done s -> (s, !iters))

(* An "optimal" claim is only trusted once the solution actually satisfies
   the original rows: the in-place pivoting drifts on long solves (the
   circle-family models showed row violations up to 1.9e4). On drift,
   rebuild the tableau from the original matrix and re-optimize — dual
   simplex to restore primal feasibility of the now-exact basic values,
   then a primal polish. *)
let repair_drift t ~iter_limit (sol : solution) =
  if sol.status <> Optimal || residual_error t <= residual_tol then sol
  else begin
    let extra = ref 0 in
    let status = ref Optimal in
    (try
       let tries = ref 0 in
       while
         !status = Optimal && !tries < 2 && residual_error t > residual_tol
       do
         incr tries;
         if not (refactor t) then raise Exit;
         normalize_nonbasic t;
         let sd, itd = run_dual t ~iter_limit in
         extra := !extra + itd;
         (match sd with
         | Optimal ->
             refresh_d t;
             let sp, itp = run_primal t ~iter_limit in
             extra := !extra + itp;
             status := sp
         | s -> status := s);
         refresh_xb t
       done
     with Exit | Fallback -> ());
    extract t !status (sol.iterations + !extra)
  end

let solve_fresh ?iter_limit ?deadline t =
  t.deadline <- deadline;
  let iter_limit =
    match iter_limit with
    | Some l -> l
    | None -> default_iter_limit t
  in
  let sol = solve_fresh_raw ~iter_limit t in
  repair_drift t ~iter_limit sol

let resolve ?iter_limit ?deadline t =
  t.deadline <- deadline;
  if not t.solved_once then solve_fresh ?iter_limit ?deadline t
  else begin
    let iter_limit =
      match iter_limit with
      | Some l -> l
      | None -> default_iter_limit t
    in
    match
      (try
         (* The previous solve may have stopped inside phase 1 (e.g. an
            infeasible sibling node): reload the real phase-2 costs and
            re-fix the artificials before warm-starting, or the dual
            simplex would chase a stale phase-1 objective. *)
         enter_phase2 t;
         normalize_nonbasic t;
         refresh_xb t;
         let s, it = run_dual t ~iter_limit in
         Some (s, it)
       with Fallback -> None)
    with
    | Some (Optimal, it) ->
        (* dual simplex reached primal feasibility; reduced costs may have
           drifted below tolerance on large moves - polish with primal. *)
        t.warm_hits <- t.warm_hits + 1;
        refresh_d t;
        let s2, it2 = run_primal t ~iter_limit in
        let sol = extract t (if s2 = Optimal then Optimal else s2) (it + it2) in
        repair_drift t ~iter_limit sol
    | Some (Infeasible, it) ->
        t.warm_hits <- t.warm_hits + 1;
        extract t Infeasible it
    | Some ((Unbounded | Iteration_limit), it) ->
        t.warm_hits <- t.warm_hits + 1;
        extract t Iteration_limit it
    | None ->
        t.warm_misses <- t.warm_misses + 1;
        solve_fresh ~iter_limit ?deadline t
  end

let num_rows t = t.m

let set_rhs t i v =
  if i < 0 || i >= t.m then invalid_arg "Simplex.set_rhs";
  t.b.(i) <- v

let get_rhs t i =
  if i < 0 || i >= t.m then invalid_arg "Simplex.get_rhs";
  t.b.(i)

(* Are all basic values within their variable's bounds? *)
let basics_feasible t =
  let ok = ref true in
  for i = 0 to t.m - 1 do
    let bi = t.basis.(i) in
    if t.xb.(i) < t.lb.(bi) -. feas_tol || t.xb.(i) > t.ub.(bi) +. feas_tol
    then ok := false
  done;
  !ok

(* Re-solve after RHS-only edits. Changing b leaves every reduced cost
   untouched, so a phase-2 optimal basis stays dual feasible: recompute
   the basic values against the new b (refresh_xb) and, when they are
   still within bounds, the old basis is optimal for the new RHS with
   zero pivots. Otherwise the dual simplex restores primal feasibility
   from the same basis. *)
let resolve_rhs ?iter_limit ?deadline t =
  if not (t.solved_once && t.phase2_opt) then resolve ?iter_limit ?deadline t
  else begin
    t.deadline <- deadline;
    let iter_limit =
      match iter_limit with
      | Some l -> l
      | None -> default_iter_limit t
    in
    refresh_xb t;
    if basics_feasible t then begin
      t.rhs_ftran <- t.rhs_ftran + 1;
      extract t Optimal 0
    end
    else begin
      t.rhs_dual <- t.rhs_dual + 1;
      match (try Some (run_dual t ~iter_limit) with Fallback -> None) with
      | Some (Optimal, it) ->
          refresh_d t;
          let s2, it2 = run_primal t ~iter_limit in
          let sol =
            extract t (if s2 = Optimal then Optimal else s2) (it + it2)
          in
          repair_drift t ~iter_limit sol
      | Some (Infeasible, it) -> extract t Infeasible it
      | Some ((Unbounded | Iteration_limit), it) ->
          extract t Iteration_limit it
      | None ->
          t.warm_misses <- t.warm_misses + 1;
          solve_fresh ~iter_limit ?deadline t
    end
  end

(* Batched multi-RHS re-solve. The sparse backend runs a genuinely
   batched ftran over the whole block; the dense tableau is the
   differential oracle, so here each RHS is installed and re-solved
   through the scalar path in order — exactly the semantics the batched
   kernel must reproduce bitwise. Columns still answered by the
   zero-pivot ftran count as [rhs_batch_cols]; columns that needed
   pivots (dual fallback or a full re-solve) count as [rhs_peeled]. *)
let resolve_rhs_batch ?iter_limit ?deadline t (rhs : float array array) =
  if Array.length rhs = 0 then [||]
  else begin
    t.rhs_batch <- t.rhs_batch + 1;
    Array.map
      (fun (bk : float array) ->
        if Array.length bk <> t.m then
          invalid_arg "Simplex.resolve_rhs_batch: rhs length";
        let ftran0 = t.rhs_ftran in
        Array.blit bk 0 t.b 0 t.m;
        let sol = resolve_rhs ?iter_limit ?deadline t in
        if t.rhs_ftran > ftran0 then
          t.rhs_batch_cols <- t.rhs_batch_cols + 1
        else t.rhs_peeled <- t.rhs_peeled + 1;
        sol)
      rhs
  end

let total_iterations t = t.iters_total

let encode_stat = function
  | Basic -> 0
  | At_lower -> 1
  | At_upper -> 2
  | Free_nb -> 3

let decode_stat = function
  | 0 -> Basic
  | 1 -> At_lower
  | 2 -> At_upper
  | _ -> Free_nb

let snapshot_basis t =
  {
    snap_basis = Array.copy t.basis;
    snap_stat = Array.map encode_stat t.stat;
  }

let install_basis t snap =
  if
    Array.length snap.snap_basis <> t.m || Array.length snap.snap_stat <> t.nt
  then false
  else begin
    t.phase2_opt <- false;
    Array.blit snap.snap_basis 0 t.basis 0 t.m;
    for j = 0 to t.nt - 1 do
      t.stat.(j) <- decode_stat snap.snap_stat.(j)
    done;
    if refactor t then begin
      t.solved_once <- true;
      true
    end
    else begin
      (* singular under current bounds: force the next solve from scratch *)
      t.solved_once <- false;
      false
    end
  end

let stats t =
  {
    iterations = t.iters_total;
    refactorizations = t.refactors;
    etas = 0;
    warm_hits = t.warm_hits;
    warm_misses = t.warm_misses;
    rhs_ftran = t.rhs_ftran;
    rhs_dual = t.rhs_dual;
    rhs_batch = t.rhs_batch;
    rhs_batch_cols = t.rhs_batch_cols;
    rhs_peeled = t.rhs_peeled;
    presolve_rows = 0;
    presolve_cols = 0;
  }
