(** Shared builder for the inner-problem rows of flow-based followers:
    indexes the per-(pair, path) flow variables of a follower LP and
    produces the FeasibleFlow rows (demand and capacity constraints) as
    {!Repro_follower.Ir.row}s, with demands as outer host variables. *)

type t

val make : Pathset.t -> only:(int -> bool) -> t
(** Index flow variables for every routable pair accepted by [only]. *)

val num_vars : t -> int
val included : t -> int -> bool

val var : t -> pair:int -> path:int -> int
(** @raise Invalid_argument for excluded pairs or bad path indices. *)

val pair_of_var : t -> int -> int * int
(** Inverse mapping: inner var -> (pair, path index). *)

val objective : t -> (int * float) list
(** Max total flow: coefficient 1 on every flow variable. *)

val demand_rows :
  t -> demand_vars:Model.var array -> Repro_follower.Ir.row list
(** Per included pair: [sum_p f_k^p - d_k <= 0]. *)

val capacity_rows : ?scale:float -> t -> Repro_follower.Ir.row list
(** Per edge with included users: [sum f <= scale * capacity]. *)

val follower : t -> name:string -> Repro_follower.Ir.row list -> Repro_follower.Ir.t
(** The max-total-flow follower over this indexing with the given rows,
    ready for {!Repro_follower.Kkt_rewrite.emit}. *)
