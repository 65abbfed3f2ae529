(* Sparse revised simplex over the CSC column store built by
   Standard_form. Mirrors the dense tableau backend (Simplex) exactly:
   same column layout ([0,n) structural, [n,n+m) slacks, [n+m,n+2m)
   artificials), same two-phase primal with Dantzig pricing + Bland
   fallback, same dual-simplex warm restart with solve_fresh fallback —
   but instead of carrying B^-1 [A I I] as a dense m x nt tableau it keeps
   a factorized basis inverse (Basis eta file) and reconstructs whatever
   the current pivot needs: the pricing row via one btran + sparse column
   dots, the entering column via one ftran. A pivot therefore costs
   O(nnz) instead of O(m * nt). *)

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
  cols : Sparse_matrix.t;
  bas : Basis.t;
  d : float array; (* reduced costs, repriced every iteration *)
  cost : float array; (* current phase cost vector, length nt *)
  basis : int array; (* length m: column basic in each row *)
  stat : vstat array; (* length nt *)
  xb : float array; (* length m: values of basic variables *)
  lb : float array; (* length nt *)
  ub : float array; (* length nt *)
  y : float array; (* btran workspace (duals / dual-step rho) *)
  w : float array; (* ftran workspace (entering column) *)
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
  (* installed by solve_fresh/resolve for the duration of one solve call *)
  mutable deadline : Repro_resilience.Deadline.t option;
}

let feas_tol = 1e-7
let dual_tol = 1e-7
let pivot_tol = 1e-9
let refactor_interval = 100

(* Inherited eta chains: a warm restart that begins with this many
   update etas since the last reinversion reinverts up front instead of
   dragging the parent chain through every ftran/btran of the dual run.
   Much lower than [refactor_interval] — a B&B node accumulates the
   chain across many short resolves that individually never trip the
   in-loop check (the warm-start time regression in BENCH_lp). *)
let warm_refactor_threshold = 24

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
    cols = sf.cols;
    bas = Basis.create ~m;
    d = Array.make nt 0.;
    cost = Array.make nt 0.;
    basis = Array.make m (-1);
    stat = Array.make nt At_lower;
    xb = Array.make m 0.;
    lb;
    ub;
    y = Array.make m 0.;
    w = Array.make m 0.;
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
    deadline = None;
  }

let get_lb t j = t.lb.(j)
let get_ub t j = t.ub.(j)

let nb_value t j =
  match t.stat.(j) with
  | At_lower -> t.lb.(j)
  | At_upper -> t.ub.(j)
  | Free_nb -> 0.
  | Basic -> invalid_arg "nb_value: basic"

(* Iterate the nonzeros of column [j] of the full [A I I] matrix. *)
let iter_col t j f =
  if j < t.n then Sparse_matrix.iter_col t.cols j f
  else if j < t.n + t.m then f (j - t.n) 1.
  else f (j - t.n - t.m) 1.

let set_bounds t j ~lb ~ub =
  if j < 0 || j >= t.n then invalid_arg "Sparse_simplex.set_bounds";
  if lb > ub then invalid_arg "Sparse_simplex.set_bounds: lb > ub";
  t.phase2_opt <- false;
  t.lb.(j) <- lb;
  t.ub.(j) <- ub;
  (* Re-anchor a nonbasic variable on a bound that still exists. Unlike
     the dense backend there is no incremental xb patch: every solve
     entry point recomputes basic values from scratch (refresh_xb), so
     only the status needs to stay coherent here. *)
  if t.stat.(j) <> Basic && t.solved_once then
    match t.stat.(j) with
    | At_lower when lb = neg_infinity ->
        t.stat.(j) <- (if ub < infinity then At_upper else Free_nb)
    | At_upper when ub = infinity ->
        t.stat.(j) <- (if lb > neg_infinity then At_lower else Free_nb)
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Invariant refresh: pricing and basic values                         *)
(* ------------------------------------------------------------------ *)

(* Recompute all reduced costs: y = B^-T cost_B (one btran), then
   d_j = cost_j - y . A_j per column (sparse dots; unit columns for
   slacks and artificials). *)
let price t =
  let y = t.y in
  for i = 0 to t.m - 1 do
    y.(i) <- t.cost.(t.basis.(i))
  done;
  Basis.btran t.bas y;
  for j = 0 to t.n - 1 do
    if t.stat.(j) = Basic then t.d.(j) <- 0.
    else t.d.(j) <- t.cost.(j) -. Sparse_matrix.dot_col t.cols j y
  done;
  for i = 0 to t.m - 1 do
    let s = slack t i and a = art t i in
    t.d.(s) <- (if t.stat.(s) = Basic then 0. else t.cost.(s) -. y.(i));
    t.d.(a) <- (if t.stat.(a) = Basic then 0. else t.cost.(a) -. y.(i))
  done

(* w := B^-1 A_j (one ftran of the entering column). *)
let ftran_col t j =
  Array.fill t.w 0 t.m 0.;
  iter_col t j (fun i v -> t.w.(i) <- t.w.(i) +. v);
  Basis.ftran t.bas t.w

(* Recompute basic values: xb = B^-1 (b - A_N x_N). *)
let refresh_xb t =
  let r = Array.copy t.b in
  for j = 0 to t.nt - 1 do
    if t.stat.(j) <> Basic then begin
      let v = nb_value t j in
      if v <> 0. then iter_col t j (fun i a -> r.(i) <- r.(i) -. (a *. v))
    end
  done;
  Basis.ftran t.bas r;
  Array.blit r 0 t.xb 0 t.m

(* Rebuild a short eta file from the current basis columns; false means
   the basis went numerically singular. Always refreshes xb on success
   because refactorization permutes the basis-to-row assignment. *)
let refactorize t =
  let ok = Basis.refactorize t.bas ~col:(iter_col t) t.basis in
  if ok then refresh_xb t;
  ok

let refactor_due t =
  (* the base file from reinversion is O(m) etas; only the *updates*
     appended since then measure staleness *)
  Basis.update_count t.bas >= refactor_interval

(* ------------------------------------------------------------------ *)
(* Primal simplex                                                      *)
(* ------------------------------------------------------------------ *)

type step_result = Step_ok | Step_optimal | Step_unbounded

exception Done of Simplex.status
exception Fallback

let primal_step t ~bland ~degen =
  price t;
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
    match t.stat.(j) with
    | Basic -> ()
    | At_lower -> if t.lb.(j) < t.ub.(j) then consider j (-.t.d.(j))
    | At_upper -> if t.lb.(j) < t.ub.(j) then consider j t.d.(j)
    | Free_nb -> consider j (Float.abs t.d.(j))
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
    ftran_col t q;
    let w = t.w in
    (* ratio test over the ftran'd entering column *)
    let t_self =
      match t.stat.(q) with
      | Free_nb -> infinity
      | _ -> t.ub.(q) -. t.lb.(q)
    in
    let best_t = ref t_self in
    let best_r = ref (-1) in
    let best_piv = ref 0. in
    for i = 0 to t.m - 1 do
      let a = Array.unsafe_get w i in
      let rate = -.delta *. a in
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
      if step > 0. then
        for i = 0 to t.m - 1 do
          let a = Array.unsafe_get w i in
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
        let rate = -.delta *. w.(r) in
        t.stat.(leaving) <- (if rate < 0. then At_lower else At_upper);
        if t.lb.(leaving) = t.ub.(leaving) then t.stat.(leaving) <- At_lower;
        let xq_new =
          (if t.stat.(q) = Free_nb then 0. else nb_value t q) +. (delta *. step)
        in
        Basis.push t.bas ~r w;
        t.stat.(q) <- Basic;
        t.basis.(r) <- q;
        t.xb.(r) <- xq_new;
        Step_ok
      end
    end
  end

(* One pivot's worth of budget accounting. Costs one Atomic.fetch_and_add
   plus a couple of loads when a deadline is armed, nothing when it is
   not, so jobs=1 runs without a deadline stay bit-identical. *)
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
  try
    while true do
      if !iters >= iter_limit then raise (Done Simplex.Iteration_limit);
      let bland = !degen_run > bland_threshold in
      let degen = ref false in
      (match primal_step t ~bland ~degen with
      | Step_optimal -> raise (Done Simplex.Optimal)
      | Step_unbounded -> raise (Done Simplex.Unbounded)
      | Step_ok -> ());
      if !degen then incr degen_run else degen_run := 0;
      incr iters;
      t.iters_total <- t.iters_total + 1;
      budget_tick t ~stop:(fun () -> raise (Done Simplex.Iteration_limit));
      if refactor_due t then begin
        if not (refactorize t) then raise (Done Simplex.Iteration_limit)
      end
      else if !iters mod 2000 = 0 then refresh_xb t
    done;
    assert false
  with Done s -> (s, !iters)

(* ------------------------------------------------------------------ *)
(* Phase 1 / phase 2 orchestration                                     *)
(* ------------------------------------------------------------------ *)

let start_basis t =
  for j = 0 to t.n - 1 do
    t.stat.(j) <-
      (if t.lb.(j) > neg_infinity then At_lower
       else if t.ub.(j) < infinity then At_upper
       else Free_nb)
  done;
  (* residual with all slacks + artificials nonbasic at 0 *)
  let r = Array.copy t.b in
  for j = 0 to t.n - 1 do
    let v = nb_value t j in
    if v <> 0. then iter_col t j (fun i a -> r.(i) <- r.(i) -. (a *. v))
  done;
  Array.fill t.cost 0 t.nt 0.;
  (* the starting basis is all slacks / artificials, i.e. exactly the
     identity, so the factorization is the empty eta file *)
  Basis.reset t.bas;
  for i = 0 to t.m - 1 do
    let s = slack t i and a = art t i in
    t.lb.(a) <- 0.;
    t.ub.(a) <- 0.;
    if r.(i) >= t.lb.(s) -. feas_tol && r.(i) <= t.ub.(s) +. feas_tol then begin
      t.basis.(i) <- s;
      t.stat.(s) <- Basic;
      t.stat.(a) <- At_lower;
      t.xb.(i) <- r.(i)
    end
    else begin
      t.stat.(s) <- At_lower;
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
  price t

let phase1_objective t =
  let acc = ref 0. in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if b >= t.n + t.m then acc := !acc +. Float.abs t.xb.(i)
  done;
  !acc

let enter_phase2 t =
  for i = 0 to t.m - 1 do
    let a = art t i in
    t.lb.(a) <- 0.;
    t.ub.(a) <- 0.;
    if t.stat.(a) <> Basic then t.stat.(a) <- At_lower
  done;
  Array.fill t.cost 0 t.nt 0.;
  Array.blit t.sf.c 0 t.cost 0 t.n;
  price t

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
  let y = Array.make t.m 0. in
  for i = 0 to t.m - 1 do
    y.(i) <- t.cost.(t.basis.(i))
  done;
  Basis.btran t.bas y;
  y

let extract t status iterations : Simplex.solution =
  (* every extract site with [Optimal] is past phase 2, so this flag is
     exactly "the state holds a phase-2 optimal basis" *)
  t.phase2_opt <- status = Simplex.Optimal;
  let sgn = if t.sf.flip_sign then -1. else 1. in
  match (status : Simplex.status) with
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

let solve_fresh ?iter_limit ?deadline t =
  t.deadline <- deadline;
  let iter_limit =
    match iter_limit with
    | Some l -> l
    | None -> default_iter_limit t
  in
  start_basis t;
  let s1, it1 = run_primal t ~iter_limit in
  t.solved_once <- true;
  match s1 with
  | Simplex.Iteration_limit -> extract t Simplex.Iteration_limit it1
  | Simplex.Unbounded ->
      (* phase 1 objective is bounded below by 0; treat as numerical noise *)
      extract t Simplex.Iteration_limit it1
  | Simplex.Infeasible -> assert false
  | Simplex.Optimal ->
      if phase1_objective t > 1e-6 then extract t Simplex.Infeasible it1
      else begin
        enter_phase2 t;
        refresh_xb t;
        let s2, it2 = run_primal t ~iter_limit in
        extract t s2 (it1 + it2)
      end

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

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
  price t;
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
    (* rho = B^-T e_r; alpha_j = rho . A_j is row r of B^-1 [A I I] *)
    let rho = t.y in
    Array.fill rho 0 t.m 0.;
    rho.(r) <- 1.;
    Basis.btran t.bas rho;
    let alpha j =
      if j < t.n then Sparse_matrix.dot_col t.cols j rho
      else if j < t.n + t.m then rho.(j - t.n)
      else rho.(j - t.n - t.m)
    in
    (* entering: min |d_j| / |alpha_j| among sign-eligible columns *)
    let q = ref (-1) in
    let best_ratio = ref infinity in
    let best_a = ref 0. in
    for j = 0 to t.nt - 1 do
      match t.stat.(j) with
      | Basic -> ()
      | _ when t.lb.(j) = t.ub.(j) -> ()
      | st ->
          let a = alpha j in
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
                let rate = -.delta *. a in
                let eligible = if !need_increase then rate > 0. else rate < 0. in
                if eligible then begin
                  let ratio = Float.abs t.d.(j) /. Float.abs a in
                  if
                    ratio < !best_ratio -. 1e-12
                    || (ratio < !best_ratio +. 1e-12
                       && Float.abs a > Float.abs !best_a)
                  then begin
                    best_ratio := ratio;
                    best_a := a;
                    q := j
                  end
                end)
              dirs
          end
    done;
    if !q = -1 then Step_unbounded (* dual unbounded = primal infeasible *)
    else begin
      let q = !q in
      let target =
        if !need_increase then t.lb.(t.basis.(r)) else t.ub.(t.basis.(r))
      in
      ftran_col t q;
      let w = t.w in
      let a_rq = w.(r) in
      (* the btran-priced alpha and the ftran pivot can disagree on a
         drifted eta file; a pivot Basis.push would reject means the
         factorization is stale — fall back to a fresh solve *)
      if Float.abs a_rq < 1e-12 then raise Fallback;
      let delta_step = (t.xb.(r) -. target) /. a_rq in
      let xq0 = if t.stat.(q) = Free_nb then 0. else nb_value t q in
      for i = 0 to t.m - 1 do
        if i <> r then begin
          let a = Array.unsafe_get w i in
          if a <> 0. then t.xb.(i) <- t.xb.(i) -. (a *. delta_step)
        end
      done;
      let leaving = t.basis.(r) in
      t.stat.(leaving) <- (if !need_increase then At_lower else At_upper);
      if t.lb.(leaving) = t.ub.(leaving) then t.stat.(leaving) <- At_lower;
      Basis.push t.bas ~r w;
      t.stat.(q) <- Basic;
      t.basis.(r) <- q;
      t.xb.(r) <- xq0 +. delta_step;
      Step_ok
    end
  end

let run_dual t ~iter_limit =
  let iters = ref 0 in
  try
    while true do
      if !iters >= iter_limit then raise Fallback;
      (match dual_step t with
      | Step_optimal -> raise (Done Simplex.Optimal)
      | Step_unbounded -> raise (Done Simplex.Infeasible)
      | Step_ok -> ());
      incr iters;
      t.iters_total <- t.iters_total + 1;
      (* stop with Iteration_limit, not [Fallback]: a from-scratch
         re-solve would keep burning an already-exhausted budget *)
      budget_tick t ~stop:(fun () -> raise (Done Simplex.Iteration_limit));
      if refactor_due t then begin
        if not (refactorize t) then raise Fallback
      end
      else if !iters mod 2000 = 0 then refresh_xb t
    done;
    assert false
  with Done s -> (s, !iters)

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
         (* Same caveat as the dense backend: the previous solve may have
            stopped inside phase 1, so reload phase-2 costs and re-fix the
            artificials before warm-starting. *)
         enter_phase2 t;
         normalize_nonbasic t;
         (* refactorize refreshes xb itself on success *)
         if Basis.update_count t.bas >= warm_refactor_threshold then begin
           if not (refactorize t) then raise Fallback
         end
         else refresh_xb t;
         let s, it = run_dual t ~iter_limit in
         Some (s, it)
       with Fallback -> None)
    with
    | Some (Simplex.Optimal, it) ->
        t.warm_hits <- t.warm_hits + 1;
        (* repriced at the top of the next primal step, so a plain polish
           run suffices to clean up any drifted reduced costs *)
        let s2, it2 = run_primal t ~iter_limit in
        extract t
          (if s2 = Simplex.Optimal then Simplex.Optimal else s2)
          (it + it2)
    | Some (Simplex.Infeasible, it) ->
        t.warm_hits <- t.warm_hits + 1;
        extract t Simplex.Infeasible it
    | Some ((Simplex.Unbounded | Simplex.Iteration_limit), it) ->
        t.warm_hits <- t.warm_hits + 1;
        extract t Simplex.Iteration_limit it
    | None ->
        t.warm_misses <- t.warm_misses + 1;
        solve_fresh ~iter_limit ?deadline t
  end

let num_rows t = t.m

let set_rhs t i v =
  if i < 0 || i >= t.m then invalid_arg "Sparse_simplex.set_rhs";
  t.b.(i) <- v

let get_rhs t i =
  if i < 0 || i >= t.m then invalid_arg "Sparse_simplex.get_rhs";
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
   the basic values against the new b — a single ftran through the
   existing factorization (refresh_xb) — and, when they are still
   within bounds, the old basis is optimal for the new RHS with zero
   pivots. Otherwise the dual simplex restores primal feasibility from
   the same factorized basis. *)
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
      extract t Simplex.Optimal 0
    end
    else begin
      t.rhs_dual <- t.rhs_dual + 1;
      match (try Some (run_dual t ~iter_limit) with Fallback -> None) with
      | Some (Simplex.Optimal, it) ->
          (* repriced at the top of the next primal step, so a plain
             polish run suffices, exactly as in [resolve] *)
          let s2, it2 = run_primal t ~iter_limit in
          extract t
            (if s2 = Simplex.Optimal then Simplex.Optimal else s2)
            (it + it2)
      | Some (Simplex.Infeasible, it) -> extract t Simplex.Infeasible it
      | Some ((Simplex.Unbounded | Simplex.Iteration_limit), it) ->
          extract t Simplex.Iteration_limit it
      | None ->
          t.warm_misses <- t.warm_misses + 1;
          solve_fresh ~iter_limit ?deadline t
    end
  end

(* Batched multi-RHS re-solve — the genuinely batched kernel. All
   pending RHS vectors are packed into one row-major m x K block, their
   residuals b_k - A_N x_N accumulated in a single pass over the
   nonbasic columns (one CSC walk serves the whole batch instead of one
   per scenario), and a single Basis.ftran_batch turns the block into
   candidate basic values. Columns still within bounds are answered
   with zero pivots; the first column that lost primal feasibility is
   peeled into the scalar dual-simplex fallback — its pivots change the
   basis, so the block is rebuilt from the post-pivot factorization for
   the columns after it, exactly the basis a scalar sequence would have
   reached.

   Per column the floating-point op sequence matches scalar
   [resolve_rhs] exactly (same residual subtraction order, same ftran
   arithmetic, same fallback), so the result array is bitwise identical
   to K sequential scalar calls — the property the sweep engine's
   --batch-rhs toggle relies on. *)
let resolve_rhs_batch ?iter_limit ?deadline t (rhs : float array array) =
  let kk = Array.length rhs in
  if kk = 0 then [||]
  else begin
    Array.iter
      (fun bk ->
        if Array.length bk <> t.m then
          invalid_arg "Sparse_simplex.resolve_rhs_batch: rhs length")
      rhs;
    let out = Array.make kk None in
    let pos = ref 0 in
    while !pos < kk do
      if not (t.solved_once && t.phase2_opt) then begin
        (* no phase-2 optimal basis to batch from: this column takes the
           scalar road (resolve / solve_fresh), after which batching can
           resume for the rest *)
        Array.blit rhs.(!pos) 0 t.b 0 t.m;
        out.(!pos) <- Some (resolve_rhs ?iter_limit ?deadline t);
        incr pos
      end
      else begin
        t.deadline <- deadline;
        let il =
          match iter_limit with
          | Some l -> l
          | None -> default_iter_limit t
        in
        let live = kk - !pos in
        t.rhs_batch <- t.rhs_batch + 1;
        (* Adjacent bitwise-identical RHS vectors are packed once:
           demand-major sweep grids re-solve an unchanged demand for
           every threshold in a row, and identical inputs through
           identical ops give bitwise-identical solutions, so the first
           occurrence's extract serves the whole run. Bits comparison,
           not (=): +0./-0. must stay distinct columns, their ftran
           outputs can differ in zero sign. *)
        let same_rhs a b =
          let eq = ref true in
          (try
             for i = 0 to t.m - 1 do
               if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i)
               then begin
                 eq := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !eq
        in
        let uniq = Array.make live 0 in
        let width = ref 0 in
        for c = 0 to live - 1 do
          if c = 0 || not (same_rhs rhs.(!pos + c - 1) rhs.(!pos + c)) then
            incr width;
          uniq.(c) <- !width - 1
        done;
        let w = !width in
        (* block layout: x.(i * w + u) = row i of unique batch column u *)
        let x = Array.make (t.m * w) 0. in
        for c = 0 to live - 1 do
          if c = 0 || uniq.(c) <> uniq.(c - 1) then begin
            let u = uniq.(c) and bk = rhs.(!pos + c) in
            for i = 0 to t.m - 1 do
              x.((i * w) + u) <- bk.(i)
            done
          end
        done;
        (* residuals b_k - A_N x_N: same per-column subtraction order as
           refresh_xb, but each nonbasic column is walked once for the
           whole batch *)
        for j = 0 to t.nt - 1 do
          if t.stat.(j) <> Basic then begin
            let v = nb_value t j in
            if v <> 0. then
              iter_col t j (fun i a ->
                  let base = i * w in
                  for c = 0 to w - 1 do
                    x.(base + c) <- x.(base + c) -. (a *. v)
                  done)
          end
        done;
        Basis.ftran_batch t.bas ~width:w x;
        let consumed = ref 0 and peeled = ref false in
        let last_u = ref (-1) and last_sol = ref None in
        while (not !peeled) && !consumed < live do
          let c = !consumed in
          let col = !pos + c in
          if uniq.(c) = !last_u then begin
            (* duplicate of the ftran-served column just before it: t.b
               and xb already hold exactly the values a scalar re-solve
               of the same bits would recompute *)
            t.rhs_ftran <- t.rhs_ftran + 1;
            t.rhs_batch_cols <- t.rhs_batch_cols + 1;
            out.(col) <- !last_sol;
            incr consumed
          end
          else begin
          let u = uniq.(c) in
          Array.blit rhs.(col) 0 t.b 0 t.m;
          for i = 0 to t.m - 1 do
            t.xb.(i) <- x.((i * w) + u)
          done;
          if basics_feasible t then begin
            t.rhs_ftran <- t.rhs_ftran + 1;
            t.rhs_batch_cols <- t.rhs_batch_cols + 1;
            let sol = extract t Simplex.Optimal 0 in
            last_u := u;
            last_sol := Some sol;
            out.(col) <- Some sol
          end
          else begin
            (* peel: scalar dual fallback, verbatim from resolve_rhs *)
            t.rhs_dual <- t.rhs_dual + 1;
            t.rhs_peeled <- t.rhs_peeled + 1;
            let sol =
              match
                (try Some (run_dual t ~iter_limit:il) with Fallback -> None)
              with
              | Some (Simplex.Optimal, it) ->
                  let s2, it2 = run_primal t ~iter_limit:il in
                  extract t
                    (if s2 = Simplex.Optimal then Simplex.Optimal else s2)
                    (it + it2)
              | Some (Simplex.Infeasible, it) ->
                  extract t Simplex.Infeasible it
              | Some ((Simplex.Unbounded | Simplex.Iteration_limit), it) ->
                  extract t Simplex.Iteration_limit it
              | None ->
                  t.warm_misses <- t.warm_misses + 1;
                  solve_fresh ~iter_limit:il ?deadline t
            in
            out.(col) <- Some sol;
            peeled := true
          end;
          incr consumed
          end
        done;
        pos := !pos + !consumed
      end
    done;
    Array.map (function Some s -> s | None -> assert false) out
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

let snapshot_basis t : Simplex.basis_snapshot =
  {
    Simplex.snap_basis = Array.copy t.basis;
    snap_stat = Array.map encode_stat t.stat;
  }

let install_basis t (snap : Simplex.basis_snapshot) =
  if
    Array.length snap.Simplex.snap_basis <> t.m
    || Array.length snap.Simplex.snap_stat <> t.nt
  then false
  else begin
    t.phase2_opt <- false;
    Array.blit snap.Simplex.snap_basis 0 t.basis 0 t.m;
    for j = 0 to t.nt - 1 do
      t.stat.(j) <- decode_stat snap.Simplex.snap_stat.(j)
    done;
    if Basis.refactorize t.bas ~col:(iter_col t) t.basis then begin
      (* xb and d are refreshed by the next resolve entry; only the
         factorization has to be coherent here *)
      t.solved_once <- true;
      true
    end
    else begin
      t.solved_once <- false;
      false
    end
  end

let stats t : Simplex.stats =
  {
    iterations = t.iters_total;
    refactorizations = Basis.refactorizations t.bas;
    etas = Basis.eta_count t.bas;
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
