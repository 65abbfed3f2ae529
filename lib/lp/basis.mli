(** Factorized basis inverse for the sparse revised simplex.

    Maintained as a product-form eta file: applying {!ftran} solves
    [B x = b] and {!btran} solves [B^T y = c] using only the stored eta
    nonzeros. {!update} appends one eta per simplex pivot; when the file
    grows long (or numerics degrade) callers {!refactorize} to rebuild a
    short file directly from the current basis columns via Markowitz-style
    sparse triangular elimination. *)

type t

(** A fresh factorization of the identity basis (empty eta file). *)
val create : m:int -> t

(** Total etas in the file (refactorization etas + pivot updates). *)
val eta_count : t -> int

(** Etas appended since the last refactorization. *)
val update_count : t -> int

(** How many times {!refactorize} has run over the lifetime of [t]. *)
val refactorizations : t -> int

(** Drop all etas: the factorization becomes the identity. *)
val reset : t -> unit

(** [push t ~r w] appends the pivot eta for an entering column whose
    ftran'd representation is the dense vector [w] with pivot row [r].
    @raise Invalid_argument if [w.(r)] is numerically zero. *)
val push : t -> r:int -> float array -> unit

(** [ftran t x] overwrites [x] with [B^-1 x]. *)
val ftran : t -> float array -> unit

(** [ftran_batch t ~width x] overwrites each of the [width] RHS columns
    packed row-major in [x] ([x.(i * width + c)] is row [i] of column
    [c], so [x] has length [m * width]) with [B^-1] applied to it. One
    pass over the eta file serves all columns — eta metadata is read
    once per eta and the inner loops stream contiguously over the block —
    while each column's floating-point op sequence is exactly the scalar
    {!ftran}'s, so column [c] is bitwise identical to a scalar solve.
    @raise Invalid_argument if [width <= 0]. *)
val ftran_batch : t -> width:int -> float array -> unit

(** [btran t y] overwrites [y] with [B^-T y]. *)
val btran : t -> float array -> unit

(** [refactorize t ~col basis] rebuilds the eta file from scratch out of
    the current basis columns; [col v f] must iterate the nonzeros of
    variable [v]'s column of the full constraint matrix as [f row value].
    On success the [basis] array is permuted in place to the elimination's
    row assignment (callers must recompute basic variable values after)
    and the result is [true]; on a numerically singular basis the
    factorization is left reset to the identity and the result is
    [false]. *)
val refactorize : t -> col:(int -> (int -> float -> unit) -> unit) -> int array -> bool
