(** Deterministic, seeded fault injection for chaos testing.

    Production code marks its vulnerable spots with named {e injection
    points} ([Faults.fires "pivot_stall"], [Faults.inject
    "worker_death"], ...). With no faults armed — the default, always —
    every point is a single atomic load and the system behaves exactly
    as if this module did not exist. A chaos test (or
    [REPRO_FAULTS]/[REPRO_FAULT_SEED] in the environment) arms a set of
    points with firing probabilities; each point then draws from its own
    splitmix64 stream seeded by [seed] and the point name, so a given
    seed produces a reproducible fault schedule per point regardless of
    which other points are armed.

    Points are process-global (chaos tests exercise whole stacks, and
    worker domains must see the same schedule), so arm/disarm from one
    test at a time. *)

exception Injected of string
(** Raised by {!inject} when its point fires: the simulated crash. *)

type spec = { prob : float; limit : int option }
(** Firing probability per call, and an optional cap on total fires
    (e.g. "kill exactly one worker": [prob = 1.; limit = Some 1]). *)

val arm : seed:int -> points:(string * spec) list -> unit
(** Replace the armed configuration. Unlisted points never fire. *)

val arm_from_env : unit -> unit
(** Arm from [REPRO_FAULTS="point:prob[:limit],..."] with seed
    [REPRO_FAULT_SEED] (default 0). No-op when the variable is unset;
    malformed entries are ignored with a warning. *)

val disarm : unit -> unit

val armed : unit -> bool

val fires : string -> bool
(** Advance the point's stream; true when the fault should happen now.
    Always false when disarmed or the point is not armed. *)

val inject : string -> unit
(** [if fires point then raise (Injected point)]. *)

val stall : string -> seconds:float -> unit
(** If the point fires, sleep — the simulated stuck pivot / wedged
    worker that only a deadline or watchdog can rescue. *)

val fired : string -> int
(** How many times the point has fired since it was armed. *)
