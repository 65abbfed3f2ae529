(** Shared incumbent store.

    One mutex-protected cell holding the best (value, score) pair seen so
    far, written concurrently by the workers of a parallel tree search.
    The store is strictly monotone: a proposal only replaces the
    incumbent when its score is strictly greater, so the best score never
    decreases under any interleaving.

    Stored values are kept by reference: callers must pass values they
    will not mutate afterwards (branch-and-bound copies its primal
    assignment before proposing). *)

type 'a t

val create : unit -> 'a t

val propose : 'a t -> 'a -> float -> bool
(** [propose t value score] — true iff the proposal strictly improved the
    incumbent (and was installed). *)

val best : 'a t -> ('a * float) option
(** Current incumbent, if any. *)

val best_score : 'a t -> float
(** Current best score; [neg_infinity] when empty (so it can be compared
    against unconditionally). *)
