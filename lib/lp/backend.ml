(* Pluggable LP backend dispatch. Both backends implement the same
   first-class module signature over a Standard_form; a Backend.t packs
   the module together with its mutable state so Solver / Branch_bound
   never know which engine they are driving. *)

type kind = Dense | Sparse

let kind_to_string = function
  | Dense -> "dense"
  | Sparse -> "sparse"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dense" | "tableau" -> Some Dense
  | "sparse" | "revised" -> Some Sparse
  | _ -> None

(* Global default: the sparse revised simplex, overridable with
   REPRO_LP_BACKEND=dense|sparse (and per-process via set_default, which
   the CLI --lp-backend flag uses). *)
let default_kind =
  ref
    (match Sys.getenv_opt "REPRO_LP_BACKEND" with
    | Some s -> (
        match kind_of_string s with
        | Some k -> k
        | None ->
            invalid_arg
              (Printf.sprintf "REPRO_LP_BACKEND=%s (expected dense|sparse)" s))
    | None -> Sparse)

let default () = !default_kind
let set_default k = default_kind := k

module type S = sig
  type state

  val create : Standard_form.t -> state
  val set_bounds : state -> int -> lb:float -> ub:float -> unit
  val get_lb : state -> int -> float
  val get_ub : state -> int -> float
  val solve_fresh :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    Simplex.solution

  val resolve :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    Simplex.solution

  val set_rhs : state -> int -> float -> unit
  val get_rhs : state -> int -> float

  val resolve_rhs :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    Simplex.solution

  val resolve_rhs_batch :
    ?iter_limit:int ->
    ?deadline:Repro_resilience.Deadline.t ->
    state ->
    float array array ->
    Simplex.solution array

  val total_iterations : state -> int
  val snapshot_basis : state -> Simplex.basis_snapshot
  val install_basis : state -> Simplex.basis_snapshot -> bool
  val num_rows : state -> int
  val stats : state -> Simplex.stats
end

module Dense_backend : S with type state = Simplex.t = struct
  type state = Simplex.t

  let create = Simplex.create
  let set_bounds = Simplex.set_bounds
  let get_lb = Simplex.get_lb
  let get_ub = Simplex.get_ub
  let solve_fresh = Simplex.solve_fresh
  let resolve = Simplex.resolve
  let set_rhs = Simplex.set_rhs
  let get_rhs = Simplex.get_rhs
  let resolve_rhs = Simplex.resolve_rhs
  let resolve_rhs_batch = Simplex.resolve_rhs_batch
  let total_iterations = Simplex.total_iterations
  let snapshot_basis = Simplex.snapshot_basis
  let install_basis = Simplex.install_basis
  let num_rows = Simplex.num_rows
  let stats = Simplex.stats
end

module Sparse_backend : S with type state = Sparse_simplex.t = struct
  type state = Sparse_simplex.t

  let create = Sparse_simplex.create
  let set_bounds = Sparse_simplex.set_bounds
  let get_lb = Sparse_simplex.get_lb
  let get_ub = Sparse_simplex.get_ub
  let solve_fresh = Sparse_simplex.solve_fresh
  let resolve = Sparse_simplex.resolve
  let set_rhs = Sparse_simplex.set_rhs
  let get_rhs = Sparse_simplex.get_rhs
  let resolve_rhs = Sparse_simplex.resolve_rhs
  let resolve_rhs_batch = Sparse_simplex.resolve_rhs_batch
  let total_iterations = Sparse_simplex.total_iterations
  let snapshot_basis = Sparse_simplex.snapshot_basis
  let install_basis = Sparse_simplex.install_basis
  let num_rows = Sparse_simplex.num_rows
  let stats = Sparse_simplex.stats
end

type t = Packed : (module S with type state = 's) * 's * kind -> t

let create ?kind sf =
  let kind =
    match kind with
    | Some k -> k
    | None -> default ()
  in
  match kind with
  | Dense -> Packed ((module Dense_backend), Dense_backend.create sf, Dense)
  | Sparse -> Packed ((module Sparse_backend), Sparse_backend.create sf, Sparse)

let kind (Packed (_, _, k)) = k
let set_bounds (Packed ((module B), s, _)) j ~lb ~ub = B.set_bounds s j ~lb ~ub
let get_lb (Packed ((module B), s, _)) j = B.get_lb s j
let get_ub (Packed ((module B), s, _)) j = B.get_ub s j

let solve_fresh ?iter_limit ?deadline (Packed ((module B), s, _)) =
  B.solve_fresh ?iter_limit ?deadline s

let resolve ?iter_limit ?deadline (Packed ((module B), s, _)) =
  B.resolve ?iter_limit ?deadline s

let set_rhs (Packed ((module B), s, _)) i v = B.set_rhs s i v
let get_rhs (Packed ((module B), s, _)) i = B.get_rhs s i

let resolve_rhs ?iter_limit ?deadline (Packed ((module B), s, _)) =
  B.resolve_rhs ?iter_limit ?deadline s

let resolve_rhs_batch ?iter_limit ?deadline (Packed ((module B), s, _)) rhs =
  B.resolve_rhs_batch ?iter_limit ?deadline s rhs

let total_iterations (Packed ((module B), s, _)) = B.total_iterations s
let snapshot_basis (Packed ((module B), s, _)) = B.snapshot_basis s
let install_basis (Packed ((module B), s, _)) snap = B.install_basis s snap
let num_rows (Packed ((module B), s, _)) = B.num_rows s
let stats (Packed ((module B), s, _)) = B.stats s
