(** ConstrainedSet (paper §3.3): realistic restrictions on the adversary's
    inputs.

    Two classes, exactly as in the paper:

    - {b goalposts}: demands must stay within a distance of a reference
      point ("historically observed demands"), in absolute or relative
      terms, possibly only for a subset of pairs (partially-specified
      goalposts);
    - {b intra-input constraints}: linear relations among the demands
      themselves, optionally involving the average demand — e.g. "every
      demand within 2x of the average".

    Per-pair box bounds are included as the degenerate goalpost case.
    All of these are linear, so [apply] emits them directly into the
    white-box model; [satisfied] checks a concrete matrix (used to filter
    black-box proposals), and [project] heuristically pulls a matrix back
    into the box+goalpost region (black-box proposals stay searchable). *)

type goalpost = {
  reference : float array;
  distance : float;
  relative : bool;
      (** absolute: [|d_k - ref_k| <= distance];
          relative: [|d_k - ref_k| <= distance * ref_k] *)
  pairs : int list option;  (** [None] — constrain every pair *)
}

type intra = {
  terms : (int * float) list;  (** coefficients over demand indices *)
  avg_coef : float;  (** coefficient of the average demand *)
  sense : Model.sense;
  bound : float;
}

type t = {
  lower : float array option;
  upper : float array option;
  goalposts : goalpost list;
  intra : intra list;
}

val none : t

val goalpost :
  ?pairs:int list ->
  reference:float array ->
  distance:float ->
  relative:bool ->
  unit ->
  t

val box : ?lower:float array -> ?upper:float array -> unit -> t

val within_factor_of_average : num_pairs:int -> factor:float -> t
(** The paper's example: every demand at most [factor] times the average. *)

val hose : space:Demand.space -> egress:float array -> ingress:float array -> t
(** The hose model the paper cites as a realistic input class (§1,
    [3, 28]): per-node caps on total originated ([egress], indexed by
    node) and total received ([ingress]) traffic, each expressed as an
    intra-input linear constraint over the demand entries. *)

val combine : t -> t -> t

val apply : Model.t -> demand_vars:Model.var array -> t -> unit
(** Emit all constraints over the given demand variables. *)

val satisfied : ?tol:float -> t -> float array -> bool

val project : t -> float array -> float array
(** Clamp into box bounds and goalpost intervals (intra constraints are
    not projected — callers reject with [satisfied] instead). *)
