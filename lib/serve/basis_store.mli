(** Cross-sweep basis snapshot store.

    Final factorized bases from a scenario sweep, keyed by the FNV-1a
    fingerprint of the LP {e skeleton} they warm-start — graph + path
    budget + role — rather than any per-scenario data: RHS and bound
    edits are exactly what {!Repro_lp.Backend.resolve_rhs} and the dual
    simplex absorb cheaply, so one basis serves every scenario of a
    repeated or adjacent sweep, and the serve daemon's cold gap queries
    (which build the same max-flow skeleton) can warm-start from a
    prior sweep's basis instead of from scratch.

    Persistence rides the same append-only {!Journal} machinery as the
    solve cache ({!with_journal}), so stores survive process restarts
    and daemons pick sweeps' bases up from disk. *)

type t

(** Which of the sweep's two per-chunk LP states a snapshot came from:
    the RHS-only OPT state or the bound-editing heuristic state. The
    daemon's cold queries install [`Opt] bases. *)
type role = [ `Opt | `Heur ]

type stats = {
  warm_hits : int;  (** lookups that found an installable snapshot *)
  warm_misses : int;
  stores : int;  (** snapshots written (or overwritten) *)
  entries : int;  (** snapshots currently resident *)
}

(** [max_bytes] bounds the in-memory LRU exactly as in
    {!Solve_cache.create}; defaults to 8 MiB (a b4-sized snapshot is a
    few KiB). *)
val create : ?max_bytes:int -> unit -> t

(** Skeleton key: graph + path budget + role, optionally refined by an
    instance fingerprint. Without [instance] the key deliberately
    excludes demand, threshold, scale and seed — that slot holds a
    sweep's {e final} basis, the one the serve daemon (which cannot
    know any sweep's chunking) installs for cold queries, and the
    fallback for adjacent sweeps. With [instance] — sweeps pass their
    chunk's first-scenario instance fingerprint — the key names a
    specific chunk neighbourhood: sweeps file each chunk's final basis
    under the {e next} chunk's key (plan order is contiguous, so that
    basis is optimal for the scenario immediately preceding the next
    chunk's first), and a {e repeated} sweep installs it zero-or-few
    dual pivots from each chunk's opening solve. *)
val key :
  ?instance:Fingerprint.t ->
  graph:Repro_topology.Graph.t ->
  paths:int ->
  role:role ->
  unit ->
  Fingerprint.t

val find : t -> Fingerprint.t -> Repro_lp.Simplex.basis_snapshot option
val store : t -> Fingerprint.t -> Repro_lp.Simplex.basis_snapshot -> unit

(** Replay [path] into the store, then append every future {!store} to
    it; same contract as {!Solve_cache.with_journal} (call at most once
    per store, CRC-checked records, corrupt tails skipped). Returns the
    number of snapshots replayed. *)
val with_journal : t -> path:string -> (int, string) result

val stats : t -> stats
val close : t -> unit
