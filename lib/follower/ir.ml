type sense = Le | Eq

type row = {
  row_name : string;
  inner_terms : (int * float) list;
  outer_terms : (Model.var * float) list;
  sense : sense;
  rhs : float;
}

type t = {
  ir_name : string;
  mutable cols : int;
  mutable col_ubs : (int * float) list;  (* only finite ubs, reversed *)
  mutable obj : (int * float) list;
  mutable row_list : row list;  (* reversed *)
}

let create ~name () =
  { ir_name = name; cols = 0; col_ubs = []; obj = []; row_list = [] }

let name t = t.ir_name
let num_cols t = t.cols

let add_cols ?(ub = infinity) t n =
  if n < 0 then invalid_arg "Ir.add_cols: negative count";
  if ub < 0. then invalid_arg "Ir.add_cols: ub < 0";
  let first = t.cols in
  t.cols <- t.cols + n;
  if ub < infinity then
    t.col_ubs <-
      List.rev_append (List.init n (fun i -> (first + i, ub))) t.col_ubs;
  first

let col_ub t j =
  if j < 0 || j >= t.cols then invalid_arg "Ir.col_ub: bad column";
  match List.assoc_opt j t.col_ubs with Some u -> u | None -> infinity

let check_terms t ~what terms =
  List.iter
    (fun (j, _) ->
      if j < 0 || j >= t.cols then
        invalid_arg
          (Printf.sprintf "Ir(%s): %s references bad column %d" t.ir_name what j))
    terms

let set_objective t obj =
  check_terms t ~what:"objective" obj;
  t.obj <- obj

let objective t = t.obj

let add_row t row =
  check_terms t ~what:("row " ^ row.row_name) row.inner_terms;
  t.row_list <- row :: t.row_list

let add_rows t rows = List.iter (add_row t) rows
let num_rows t = List.length t.row_list
let rows t = Array.of_list (List.rev t.row_list)

let num_le_rows t =
  List.fold_left
    (fun acc r -> if r.sense = Le then acc + 1 else acc)
    0 t.row_list

let value t x =
  List.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0. t.obj

let solve_directly t ~outer_values =
  let model = Model.create ~name:(t.ir_name ^ "_direct") () in
  let xs =
    Array.init t.cols (fun j -> Model.add_var ~name:"x" ~ub:(col_ub t j) model)
  in
  List.iter
    (fun r ->
      let expr =
        Linexpr.of_terms (List.map (fun (j, c) -> (xs.(j), c)) r.inner_terms)
      in
      let shift =
        List.fold_left
          (fun acc (v, c) -> acc +. (c *. outer_values v))
          0. r.outer_terms
      in
      let sense = match r.sense with Le -> Model.Le | Eq -> Model.Eq in
      ignore (Model.add_constr ~name:r.row_name model expr sense (r.rhs -. shift)))
    (List.rev t.row_list);
  Model.set_objective model Model.Maximize
    (Linexpr.of_terms (List.map (fun (j, c) -> (xs.(j), c)) t.obj));
  Solver.solve_lp model
