(** The gap-query daemon: a Unix-socket service over the solve cache,
    the request scheduler, and the engine pool.

    One process serves any number of connections; each connection is
    handled by its own thread and carries length-prefixed JSON
    requests ({!Protocol}). Queries pass through the {!Scheduler}
    (cache → in-flight dedup → bounded queue), so identical queries
    from different clients cost one solve and an overloaded daemon
    degrades into structured ["overloaded"] errors instead of latency
    collapse.

    Robustness: requests may carry a ["deadline"] (a bounded wait that
    fails typed with ["deadline-exceeded"] while the solve keeps
    warming the cache) and find-gap a ["degrade"] flag (budget-bounded
    best-so-far answer instead of the error); a process-wide circuit
    breaker ({!Repro_resilience.Breaker}) sheds solve requests with
    ["degraded"] errors while recent solves keep failing or timing
    out; and {!Repro_resilience.Faults.arm_from_env} runs at startup,
    so chaos tests can arm fault points via [REPRO_FAULTS].

    Two caches are maintained:
    - the {b result cache} keys full evaluate / find-gap responses by
      canonical instance fingerprint and holds each answer once, as its
      encoded JSON: that string is its byte cost and its journal record.
      It is the one that turns repeated queries into microseconds, and
      the one the optional journal persists across restarts;
    - the {b oracle cache} keys individual oracle values and is
      attached to every evaluator ({!Oracle_cache.attach}), so even a
      {e fresh} find-gap search reuses oracle work done by earlier
      queries on the same instance. An [evaluate] caches only its OPT
      value there, which every heuristic on the same topology, paths
      and demand shares; its heuristic value would repeat the result
      cache's key. *)

type config = {
  socket_path : string;
  jobs : int;  (** engine pool domains; 1 = no pool *)
  cache_mb : int;  (** result-cache budget, MiB *)
  cache_dir : string option;
      (** journal directory ([None] — in-memory only); created if
          missing, journal file {!journal_file} inside it *)
  queue_limit : int;
  batch_max : int;
  shards : int;
  heartbeat_timeout : float option;
      (** enables the engine pool's supervision watchdog (seconds);
          [None] — no watchdog. Use a value comfortably above the
          longest legitimate solve: daemon batches run as plain pool
          tasks, which heartbeat only at start. *)
}

val default_config : socket_path:string -> config
(** jobs 1, 64 MiB, no persistence, queue 256, batch 16, 8 shards, no
    watchdog. *)

val default_cache_dir : unit -> string
(** [$XDG_CACHE_HOME/repro-serve] or [$HOME/.cache/repro-serve]. *)

val journal_file : string
(** File name of the solve-cache journal inside [cache_dir]
    ("solve-cache.journal"). *)

val basis_journal_file : string
(** Basename of the basis-snapshot journal inside [cache_dir] — the
    same {!Basis_store} journal format the sweep CLI's [--basis-cache]
    writes, so sweeps warm the daemon's cold OPT solves and vice
    versa. *)

val run : ?ready:(unit -> unit) -> config -> (unit, string) result
(** Bind, listen, serve until a ["shutdown"] request arrives, then
    drain and clean up: in-flight responses flush, idle connections
    are closed, the scheduler/caches/pool shut down, journals close and
    the socket file is unlinked. [ready] fires once the socket is
    accepting — the CLI prints its ready line from it, tests and the
    bench use it to know when to connect. Replaces a stale socket file
    at [socket_path]. *)
