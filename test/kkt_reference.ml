(* The hand derivation of the KKT rewrite (paper §3.1, Fig 2), kept as
   the reference emitter the tests compare [Kkt_rewrite.emit] against.

   For the follower [max c.x s.t. Ax + G theta <= / = b, x >= 0] the
   emitted system is:

   - primal feasibility: [Ax + G theta + s = b], slack [s >= 0] for
     inequality rows (equality rows keep their [=]);
   - dual feasibility: [lambda >= 0] per inequality row, free [nu] per
     equality row, [mu >= 0] per inner variable bound;
   - stationarity: [c_j - sum_i dual_i a_ij + mu_j = 0] for every j;
   - complementary slackness: [lambda_i * s_i = 0] and [mu_j * x_j = 0],
     encoded as SOS1 pairs.

   Any assignment satisfying the emitted constraints has [x] optimal for
   the follower given the host's outer values. The derivation covers
   followers without finite column upper bounds only. *)

open Repro_lp
module Ir = Repro_follower.Ir

type emitted = {
  x : Model.var array;  (** host copies of the inner variables *)
  row_duals : Model.var array;  (** per row, aligned with the row list *)
  row_slacks : Model.var option array;  (** [Some s] for inequality rows *)
  bound_duals : Model.var array;  (** [mu], per inner variable *)
  value : Linexpr.t;  (** [c . x] — the follower's optimal value *)
  num_complementarity : int;  (** SOS1 pairs added *)
}

let emit model (ir : Ir.t) =
  let prefix = Ir.name ir in
  let n = Ir.num_cols ir in
  for j = 0 to n - 1 do
    if Ir.col_ub ir j < infinity then
      invalid_arg "Kkt_reference.emit: finite column upper bound"
  done;
  let rows = Ir.rows ir in
  let m = Array.length rows in
  let x = Model.add_vars ~name:(prefix ^ "_x") model n in
  let comp = ref 0 in
  (* duals and slacks *)
  let row_duals =
    Array.init m (fun i ->
        match rows.(i).Ir.sense with
        | Ir.Le -> Model.add_var ~name:(Printf.sprintf "%s_lam_%d" prefix i) model
        | Ir.Eq ->
            Model.add_var ~name:(Printf.sprintf "%s_nu_%d" prefix i)
              ~lb:neg_infinity model)
  in
  let row_slacks =
    Array.init m (fun i ->
        match rows.(i).Ir.sense with
        | Ir.Le ->
            Some (Model.add_var ~name:(Printf.sprintf "%s_s_%d" prefix i) model)
        | Ir.Eq -> None)
  in
  (* primal feasibility rows *)
  Array.iteri
    (fun i (row : Ir.row) ->
      let expr =
        Linexpr.of_terms
          (List.map (fun (j, c) -> (x.(j), c)) row.Ir.inner_terms
          @ row.Ir.outer_terms)
      in
      match row_slacks.(i) with
      | Some s ->
          let expr = Linexpr.add_term expr s 1. in
          ignore
            (Model.add_constr ~name:(row.Ir.row_name ^ "_pf") model expr
               Model.Eq row.Ir.rhs);
          Model.add_sos1 model [ row_duals.(i); s ];
          incr comp
      | None ->
          ignore
            (Model.add_constr ~name:(row.Ir.row_name ^ "_pf") model expr
               Model.Eq row.Ir.rhs))
    rows;
  (* stationarity + bound-dual complementarity *)
  let coef_of_col = Array.make n [] in
  Array.iteri
    (fun i (row : Ir.row) ->
      List.iter
        (fun (j, c) -> coef_of_col.(j) <- (row_duals.(i), c) :: coef_of_col.(j))
        row.Ir.inner_terms)
    rows;
  let c_obj = Array.make n 0. in
  List.iter (fun (j, c) -> c_obj.(j) <- c_obj.(j) +. c) (Ir.objective ir);
  let bound_duals =
    Array.init n (fun j ->
        let mu = Model.add_var ~name:(Printf.sprintf "%s_mu_%d" prefix j) model in
        (* c_j - sum_i dual_i a_ij + mu_j = 0 *)
        let expr =
          Linexpr.add_term
            (Linexpr.of_terms (List.map (fun (d, c) -> (d, -.c)) coef_of_col.(j)))
            mu 1.
        in
        ignore
          (Model.add_constr ~name:(Printf.sprintf "%s_stat_%d" prefix j) model
             expr Model.Eq (-.c_obj.(j)));
        Model.add_sos1 model [ mu; x.(j) ];
        incr comp;
        mu)
  in
  let value =
    Linexpr.of_terms (List.map (fun (j, c) -> (x.(j), c)) (Ir.objective ir))
  in
  { x; row_duals; row_slacks; bound_duals; value; num_complementarity = !comp }
