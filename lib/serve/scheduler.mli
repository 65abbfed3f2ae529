(** Request scheduler: the admission layer between protocol handlers and
    the solve machinery.

    A [submit] passes through three gates, in order:

    + {b cache} — a fingerprint hit returns immediately ([`Cached]);
    + {b in-flight dedup} — if an identical query (same fingerprint) is
      already queued or running, the caller blocks on {e that} solve's
      completion instead of enqueueing a duplicate ([`Coalesced]): N
      concurrent identical queries cost one solve;
    + {b bounded queue} — new work joins a FIFO whose length is capped;
      a full queue rejects with [Overloaded] {e without blocking}, which
      is the backpressure signal the daemon turns into a structured
      error for the client.

    One dispatcher thread per engine-pool domain (one when there is no
    pool) drains the queue. A free dispatcher pops the head at once,
    with no admission delay, together with up to [batch_max - 1] queued
    entries of the same admission group (same topology / query shape —
    compatible oracle evaluations), and runs them through a single
    {!Repro_engine.Parallel.map} on the engine pool. So a lone request
    starts immediately, concurrent requests run side by side on separate
    domains, and a batch forms from whatever queued while every
    dispatcher was busy. Completed values are inserted into the cache
    (when one is attached) and handed to every waiter of the
    fingerprint.

    Jobs are closures so the scheduler is agnostic to what a solve is;
    a raising job fails only the callers waiting on that fingerprint. *)

type 'v t

type error =
  | Overloaded of { queued : int; limit : int }
      (** backpressure: the bounded queue is full *)
  | Failed of string
      (** the job raised (or the pool's watchdog declared its batch
          stalled); the diagnostic text *)
  | Timed_out of float
      (** the caller's [deadline_s] (the payload) elapsed before the
          solve finished. The solve itself is {e not} cancelled: it
          keeps running and its value still lands in the cache, so a
          retry of the same query typically hits. *)
  | Shutdown  (** the scheduler (or its pool) stopped before the job ran *)

type source =
  [ `Cached  (** served from the solve cache *)
  | `Coalesced  (** waited on an identical in-flight solve *)
  | `Computed  (** this call's job (or batch) executed *) ]

type stats = {
  submitted : int;
  cache_hits : int;
  dedup_hits : int;
  executed : int;  (** jobs actually run *)
  batches : int;
  max_batch : int;
  rejected : int;
  timed_out : int;  (** waits abandoned at their deadline *)
  queued_now : int;
  in_flight_now : int;
}

val create :
  ?queue_limit:int ->
  ?batch_max:int ->
  ?pool:Repro_engine.Pool.t ->
  ?cache:'v Solve_cache.t ->
  cost_bytes:('v -> int) ->
  unit ->
  'v t
(** [queue_limit] defaults to 256, [batch_max] to 16. [cost_bytes]
    estimates a value's cache footprint. The dispatcher threads start
    immediately: [Pool.size pool] of them, or one without a pool. *)

val submit :
  'v t ->
  key:Fingerprint.t ->
  ?group:string ->
  ?deadline_s:float ->
  (unit -> 'v) ->
  ('v * source, error) result
(** Blocking: returns when the value is available (or the request was
    rejected / the job failed). Safe to call from any thread or domain.
    [group] defaults to ["default"]; only same-group entries batch
    together. [deadline_s] (seconds, > 0) bounds {e this caller's wait}:
    past it the call returns [Error (Timed_out deadline_s)] while the
    underlying solve continues toward the cache. Deadline expiry is
    detected within one ticker period (~20ms). *)

val stats : 'v t -> stats

val shutdown : 'v t -> unit
(** Stop the dispatchers after the batches in progress; queued-but-unrun
    entries fail with [Shutdown]. Idempotent. *)
