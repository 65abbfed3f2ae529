(* Golden digests of a built model: an MD5 over everything the public
   accessors of [Model.t] expose — variables with names, bounds and
   kinds; rows with names, senses, right-hand sides and terms; SOS1
   groups; the objective. Floats are printed in hex, so two models share
   a digest only when they agree column for column, row for row and bit
   for bit. *)

open Repro_lp

let to_string m =
  let b = Buffer.create 65536 in
  let num x = Printf.bprintf b " %h" x in
  let expr e =
    List.iter
      (fun (v, c) ->
        Printf.bprintf b " %d" v;
        num c)
      (Linexpr.terms e);
    Buffer.add_string b " |";
    num (Linexpr.const_part e)
  in
  for v = 0 to Model.num_vars m - 1 do
    Printf.bprintf b "v %s %s" (Model.var_name m v)
      (match Model.var_kind m v with
      | Model.Continuous -> "C"
      | Model.Binary -> "B"
      | Model.Integer -> "I");
    num (Model.var_lb m v);
    num (Model.var_ub m v);
    Buffer.add_char b '\n'
  done;
  for c = 0 to Model.num_constrs m - 1 do
    Printf.bprintf b "r %s %s" (Model.constr_name m c)
      (match Model.constr_sense m c with
      | Model.Le -> "<="
      | Model.Ge -> ">="
      | Model.Eq -> "=");
    num (Model.constr_rhs m c);
    expr (Model.constr_expr m c);
    Buffer.add_char b '\n'
  done;
  Array.iter
    (fun g ->
      Buffer.add_string b "s";
      Array.iter (Printf.bprintf b " %d") g;
      Buffer.add_char b '\n')
    (Model.sos1_groups m);
  let dir, obj = Model.objective m in
  Buffer.add_string b
    (match dir with Model.Minimize -> "min" | Model.Maximize -> "max");
  expr obj;
  Buffer.contents b

let digest m = Digest.to_hex (Digest.string (to_string m))
