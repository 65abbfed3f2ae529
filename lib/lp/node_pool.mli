(** Concurrent best-bound node pool with work stealing.

    The queue discipline behind {!Branch_bound}: one max-heap
    per worker under a single lock. A worker pushes children onto its
    own heap; [take] returns the globally best-bound top across all
    heaps, with the worker's own heap winning ties so local
    (warm-start-cheap) work is preferred when it is just as promising.
    Taking from another worker's heap counts as a steal and ships that
    node's parent basis with it.

    [take] blocks while other workers are still expanding nodes (their
    children may yet arrive) and returns [None] exactly when the search
    is over: all heaps empty with no node in flight, or {!stop} was
    called. Priorities are caller-defined floats, higher = better (the
    branch-and-bound passes bounds in its internal "prio" direction). *)

type 'a t

(** [create ~workers] makes a pool with one heap per worker
    (workers >= 1). *)
val create : workers:int -> 'a t

val workers : 'a t -> int

(** [push t ~worker ~prio x] adds a node to [worker]'s heap and wakes
    sleeping workers. *)
val push : 'a t -> worker:int -> prio:float -> 'a -> unit

(** [take t ~worker] returns [Some (prio, node, stolen)] — [stolen] is
    true when the node came from another worker's heap — or [None] when
    the search is exhausted or stopped. The caller {b must} call
    {!finish} after expanding the node (pushing any children first). *)
val take : 'a t -> worker:int -> (float * 'a * bool) option

(** [continue_with t ~worker ~prio] re-tags [worker]'s in-flight slot
    with a new priority instead of finishing it: the worker plunges from
    the taken node straight into one of its children without going
    through the heap. Keeps termination exact (the worker stays active)
    and {!best_open} correct (the in-hand child's bound is visible). *)
val continue_with : 'a t -> worker:int -> prio:float -> unit

(** Declare the node obtained by the last {!take} fully expanded. *)
val finish : 'a t -> worker:int -> unit

(** Make every current and future {!take} return [None] immediately. *)
val stop : 'a t -> unit

(** [reclaim t ~worker] declares [worker] dead mid-expansion (a fault or
    a watchdog decision). Its in-flight slot — if any — is released so
    the surviving workers can terminate, but the node it was expanding
    is gone: its priority is folded into {!best_open} {e permanently},
    keeping the reported bound sound for the subtree that was never
    proven. The dead worker's queued nodes stay stealable. *)
val reclaim : 'a t -> worker:int -> unit

(** Number of {!reclaim}ed workers. *)
val lost : 'a t -> int

(** Like {!finish}, but the node was {e not} fully expanded (its LP was
    cut off by a budget): the in-flight priority is folded into
    {!best_open} permanently so the bound stays sound. *)
val abandon : 'a t -> worker:int -> unit

(** Best priority among all open nodes — queued tops and in-flight nodes
    (a node being expanded is still unproven). [None] when none. *)
val best_open : 'a t -> float option

(** [(steals, idle_seconds)] so far: nodes taken from another worker's
    heap, and total time workers spent blocked waiting for work. *)
val stats : 'a t -> int * float
