(* Factorized basis inverse for the sparse revised simplex.

   The representation is a product-form eta file: B = E_1 E_2 ... E_K
   where each eta E is the identity with one column r replaced by a
   sparse vector w. Refactorization rebuilds the file from the current
   basis columns by LU-style triangular elimination with Markowitz-flavored
   pivot selection (sparsest-column-first processing order; within a
   column, the eligible row — |w_i| >= threshold * max|w| — with the
   fewest remaining nonzeros), which keeps fill-in low on the
   network-LP + KKT matrices we solve. Per-pivot updates push one more
   eta (the ftran'd entering column), so a pivot costs O(nnz) instead of
   the dense tableau's O(m * n) row sweep. *)

type t = {
  m : int;
  (* eta file: eta k pivots on row rows.(k) with pivot value pivots.(k);
     its off-pivot nonzeros are (idx, value) pairs in [start.(k), start.(k+1)) *)
  mutable rows : int array;
  mutable pivots : float array;
  mutable start : int array; (* length capacity + 1 *)
  mutable idx : int array;
  mutable value : float array;
  mutable n_eta : int;
  mutable nnz : int;
  mutable base_eta : int; (* etas belonging to the last refactorization *)
  mutable refactorizations : int;
  (* reinversion workspace *)
  work : float array;
  touched : int array;
  in_touched : bool array;
  mutable n_touched : int;
}

let create ~m =
  {
    m;
    rows = Array.make 16 0;
    pivots = Array.make 16 0.;
    start = Array.make 17 0;
    idx = Array.make 64 0;
    value = Array.make 64 0.;
    n_eta = 0;
    nnz = 0;
    base_eta = 0;
    refactorizations = 0;
    work = Array.make m 0.;
    touched = Array.make m 0;
    in_touched = Array.make m false;
    n_touched = 0;
  }

let eta_count t = t.n_eta
let update_count t = t.n_eta - t.base_eta
let refactorizations t = t.refactorizations

let reset t =
  t.n_eta <- 0;
  t.nnz <- 0;
  t.base_eta <- 0

let grow_int a n = Array.append a (Array.make (Int.max n (Array.length a)) 0)
let grow_float a n =
  Array.append a (Array.make (Int.max n (Array.length a)) 0.)

let ensure_eta_capacity t =
  if t.n_eta >= Array.length t.rows then begin
    t.rows <- grow_int t.rows 1;
    t.pivots <- grow_float t.pivots 1;
    t.start <- grow_int t.start 1
  end

let ensure_nnz_capacity t extra =
  if t.nnz + extra > Array.length t.idx then begin
    t.idx <- grow_int t.idx extra;
    t.value <- grow_float t.value extra
  end

(* Push an eta with pivot row [r] from the dense column [w] (length m).
   [w] holds B^-1 a_q for the entering column; w.(r) is the pivot. *)
let push t ~r (w : float array) =
  let piv = w.(r) in
  if Float.abs piv < 1e-12 then invalid_arg "Basis.push: zero pivot";
  ensure_eta_capacity t;
  let k = t.n_eta in
  t.rows.(k) <- r;
  t.pivots.(k) <- piv;
  t.start.(k) <- t.nnz;
  let count = ref 0 in
  for i = 0 to t.m - 1 do
    if i <> r && w.(i) <> 0. then incr count
  done;
  ensure_nnz_capacity t !count;
  let cursor = ref t.nnz in
  for i = 0 to t.m - 1 do
    let v = Array.unsafe_get w i in
    if i <> r && v <> 0. then begin
      t.idx.(!cursor) <- i;
      t.value.(!cursor) <- v;
      incr cursor
    end
  done;
  t.nnz <- !cursor;
  t.n_eta <- k + 1;
  t.start.(k + 1) <- t.nnz

(* Push an eta directly from a sparse (idx, val) scatter in the
   reinversion workspace; same layout as [push]. *)
let push_sparse t ~r ~piv entries =
  ensure_eta_capacity t;
  let k = t.n_eta in
  t.rows.(k) <- r;
  t.pivots.(k) <- piv;
  t.start.(k) <- t.nnz;
  ensure_nnz_capacity t (List.length entries);
  List.iter
    (fun (i, v) ->
      t.idx.(t.nnz) <- i;
      t.value.(t.nnz) <- v;
      t.nnz <- t.nnz + 1)
    entries;
  t.n_eta <- k + 1;
  t.start.(k + 1) <- t.nnz

(* Eta inverse applied to x: t = x_r / w_r; x_i -= w_i * t (i <> r);
   x_r = t. *)
let apply_col_step t k (x : float array) =
  let r = Array.unsafe_get t.rows k in
  let xr = Array.unsafe_get x r in
  if xr <> 0. then begin
    let tt = xr /. Array.unsafe_get t.pivots k in
    Array.unsafe_set x r tt;
    for p = Array.unsafe_get t.start k to Array.unsafe_get t.start (k + 1) - 1
    do
      let i = Array.unsafe_get t.idx p in
      Array.unsafe_set x i
        (Array.unsafe_get x i -. (Array.unsafe_get t.value p *. tt))
    done
  end

(* Transposed eta inverse applied to x: x_r = (x_r - sum w_i x_i) / w_r,
   other entries untouched — the step btran applies per eta. *)
let apply_row_step t k (x : float array) =
  let r = Array.unsafe_get t.rows k in
  let acc = ref (Array.unsafe_get x r) in
  for p = Array.unsafe_get t.start k to Array.unsafe_get t.start (k + 1) - 1
  do
    acc :=
      !acc
      -. (Array.unsafe_get t.value p
         *. Array.unsafe_get x (Array.unsafe_get t.idx p))
  done;
  Array.unsafe_set x r (!acc /. Array.unsafe_get t.pivots k)

(* x := B^-1 x.  Apply eta inverses oldest-first. *)
let ftran t (x : float array) =
  for k = 0 to t.n_eta - 1 do
    apply_col_step t k x
  done

(* Batched ftran: X holds [width] RHS columns interleaved row-major
   (X.(i * width + c) = column c, row i), so each eta's metadata — pivot
   row, pivot value, entry indices — is read once per eta instead of once
   per column, and the inner loops over c touch contiguous memory.

   Per column the arithmetic is EXACTLY the scalar ftran's op sequence
   (same guards, same order of subtractions), so column c of the block
   ends bitwise identical to [ftran t x_c]. That identity is what lets
   the sweep engine toggle batching without changing output. *)
let ftran_batch t ~width (x : float array) =
  if width <= 0 then invalid_arg "Basis.ftran_batch: width";
  let tv = Array.make width 0. in
  let live = Array.make width false in
  for k = 0 to t.n_eta - 1 do
    let r = Array.unsafe_get t.rows k in
    let piv = Array.unsafe_get t.pivots k in
    let rb = r * width in
    let s0 = Array.unsafe_get t.start k in
    let s1 = Array.unsafe_get t.start (k + 1) in
    (* skip columns whose pivot entry is exactly zero — the scalar step
       leaves them untouched, and an unconditional [x -. v *. 0.] would
       flip a -0. to +0. *)
    for c = 0 to width - 1 do
      let xr = Array.unsafe_get x (rb + c) in
      if xr <> 0. then begin
        Array.unsafe_set live c true;
        let tt = xr /. piv in
        Array.unsafe_set tv c tt;
        Array.unsafe_set x (rb + c) tt
      end
      else Array.unsafe_set live c false
    done;
    for p = s0 to s1 - 1 do
      let ib = Array.unsafe_get t.idx p * width in
      let v = Array.unsafe_get t.value p in
      for c = 0 to width - 1 do
        if Array.unsafe_get live c then
          Array.unsafe_set x (ib + c)
            (Array.unsafe_get x (ib + c) -. (v *. Array.unsafe_get tv c))
      done
    done
  done

(* y := B^-T y.  Apply transposed eta inverses newest-first. *)
let btran t (y : float array) =
  for k = t.n_eta - 1 downto 0 do
    apply_row_step t k y
  done

(* --------------------------------------------------------------------- *)
(* Reinversion                                                            *)
(* --------------------------------------------------------------------- *)

let markowitz_threshold = 0.05
let singular_tol = 1e-10

(* Rebuild the eta file from the basis columns. [col v f] iterates the
   nonzeros of variable [v]'s column of the full [A I I] matrix.
   On success the [basis] array is permuted in place to the new
   position-to-row assignment (callers must refresh basic values after).
   Returns false when the basis is numerically singular. *)
let refactorize t ~col (basis : int array) =
  let m = t.m in
  reset t;
  t.refactorizations <- t.refactorizations + 1;
  (* gather columns + static row counts for the Markowitz tie-break *)
  let columns = Array.make m [] in
  let row_count = Array.make m 0 in
  let nnz_of = Array.make m 0 in
  for p = 0 to m - 1 do
    let acc = ref [] and cnt = ref 0 in
    col basis.(p) (fun i v ->
        if v <> 0. then begin
          acc := (i, v) :: !acc;
          incr cnt;
          row_count.(i) <- row_count.(i) + 1
        end);
    columns.(p) <- !acc;
    nnz_of.(p) <- !cnt
  done;
  (* process sparsest columns first *)
  let order = Array.init m (fun p -> p) in
  Array.sort (fun a b -> compare (nnz_of.(a), a) (nnz_of.(b), b)) order;
  let assigned = Array.make m false in
  let new_basis = Array.make m (-1) in
  let w = t.work in
  let ok = ref true in
  (try
     Array.iter
       (fun p ->
         (* w := E^-1... applied to the column (partial ftran) *)
         t.n_touched <- 0;
         List.iter
           (fun (i, v) ->
             if not t.in_touched.(i) then begin
               t.in_touched.(i) <- true;
               t.touched.(t.n_touched) <- i;
               t.n_touched <- t.n_touched + 1
             end;
             w.(i) <- w.(i) +. v)
           columns.(p);
         for k = 0 to t.n_eta - 1 do
           let r = Array.unsafe_get t.rows k in
           let xr = Array.unsafe_get w r in
           if xr <> 0. then begin
             let tt = xr /. Array.unsafe_get t.pivots k in
             Array.unsafe_set w r tt;
             for q =
               Array.unsafe_get t.start k
               to Array.unsafe_get t.start (k + 1) - 1
             do
               let i = Array.unsafe_get t.idx q in
               if not (Array.unsafe_get t.in_touched i) then begin
                 Array.unsafe_set t.in_touched i true;
                 t.touched.(t.n_touched) <- i;
                 t.n_touched <- t.n_touched + 1
               end;
               Array.unsafe_set w i
                 (Array.unsafe_get w i -. (Array.unsafe_get t.value q *. tt))
             done
           end
         done;
         (* pivot selection: eligible = unassigned rows with magnitude
            within [markowitz_threshold] of the best; among those take the
            sparsest remaining row (Markowitz-style fill control) *)
         let vmax = ref 0. in
         for s = 0 to t.n_touched - 1 do
           let i = t.touched.(s) in
           if (not assigned.(i)) && Float.abs w.(i) > !vmax then
             vmax := Float.abs w.(i)
         done;
         if !vmax < singular_tol then begin
           ok := false;
           raise Exit
         end;
         let best = ref (-1) and best_cnt = ref max_int in
         for s = 0 to t.n_touched - 1 do
           let i = t.touched.(s) in
           if
             (not assigned.(i))
             && Float.abs w.(i) >= markowitz_threshold *. !vmax
             && (row_count.(i) < !best_cnt
                || (row_count.(i) = !best_cnt && (!best = -1 || i < !best)))
           then begin
             best := i;
             best_cnt := row_count.(i)
           end
         done;
         let r = !best in
         let piv = w.(r) in
         (* record the eta over the touched scatter; an exact identity
            column (e.g. a basic slack) needs no eta at all *)
         let entries = ref [] in
         for s = 0 to t.n_touched - 1 do
           let i = t.touched.(s) in
           if i <> r && w.(i) <> 0. then entries := (i, w.(i)) :: !entries
         done;
         if not (piv = 1. && !entries = []) then push_sparse t ~r ~piv !entries;
         assigned.(r) <- true;
         new_basis.(r) <- basis.(p);
         List.iter (fun (i, _) -> row_count.(i) <- row_count.(i) - 1)
           columns.(p);
         (* clear workspace *)
         for s = 0 to t.n_touched - 1 do
           w.(t.touched.(s)) <- 0.;
           t.in_touched.(t.touched.(s)) <- false
         done;
         t.n_touched <- 0)
       order
   with Exit ->
     (* clear workspace left dirty by the aborted column *)
     for s = 0 to t.n_touched - 1 do
       w.(t.touched.(s)) <- 0.;
       t.in_touched.(t.touched.(s)) <- false
     done;
     t.n_touched <- 0);
  if !ok then begin
    Array.blit new_basis 0 basis 0 m;
    t.base_eta <- t.n_eta
  end
  else reset t;
  !ok
