type error =
  | Overloaded of { queued : int; limit : int }
  | Failed of string
  | Timed_out of float
  | Shutdown

type source = [ `Cached | `Coalesced | `Computed ]

type 'v cell = { mutable result : ('v, error) result option }

type 'v entry = {
  key : int64;
  group : string;
  job : unit -> 'v;
  cell : 'v cell;
}

type stats = {
  submitted : int;
  cache_hits : int;
  dedup_hits : int;
  executed : int;
  batches : int;
  max_batch : int;
  rejected : int;
  timed_out : int;
  queued_now : int;
  in_flight_now : int;
}

type 'v t = {
  mutex : Mutex.t;
  work : Condition.t;  (** signalled when the queue gains an entry *)
  finished : Condition.t;  (** broadcast when any cell gains a result *)
  queue : 'v entry Queue.t;
  in_flight : (int64, 'v cell) Hashtbl.t;  (** queued or running *)
  queue_limit : int;
  batch_max : int;
  pool : Repro_engine.Pool.t option;
  cache : 'v Solve_cache.t option;
  cost_bytes : 'v -> int;
  mutable stopping : bool;
  mutable dispatchers : Thread.t list;
  mutable ticker : Thread.t option;
  mutable timed_waiters : int;
  mutable submitted : int;
  mutable cache_hits : int;
  mutable dedup_hits : int;
  mutable executed : int;
  mutable batches : int;
  mutable max_batch : int;
  mutable rejected : int;
  mutable timed_out : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Mutex held. Deliver a result to a cell and release its fingerprint. *)
let complete t entry result =
  entry.cell.result <- Some result;
  Hashtbl.remove t.in_flight entry.key;
  match (result, t.cache) with
  | Ok v, Some cache ->
      Solve_cache.insert cache entry.key ~cost_bytes:(t.cost_bytes v) v
  | _ -> ()

(* Mutex held. Pop one batch: the head entry plus up to [batch_max - 1]
   later entries of the same admission group, preserving queue order for
   everything left behind. *)
let take_batch t =
  let first = Queue.pop t.queue in
  let rest = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  let batch = ref [ first ] and count = ref 1 in
  List.iter
    (fun e ->
      if !count < t.batch_max && e.group = first.group then begin
        batch := e :: !batch;
        incr count
      end
      else Queue.push e t.queue)
    rest;
  List.rev !batch

(* One dispatcher per pool domain: each pops the head and its queued
   group mates as soon as it is free, so a lone request starts at once
   and concurrent requests run side by side on separate domains. Batches
   form from whatever queued while every dispatcher was busy. *)
let run_dispatcher t =
  let running = ref true in
  while !running do
    let batch =
      locked t (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.work t.mutex
          done;
          if t.stopping then begin
            (* fail whatever is still queued; batches other dispatchers
               have already popped finish normally *)
            Queue.iter (fun e -> complete t e (Error Shutdown)) t.queue;
            Queue.clear t.queue;
            Condition.broadcast t.finished;
            running := false;
            []
          end
          else begin
            let batch = take_batch t in
            (* entries of another group stay queued: hand them to the
               next idle dispatcher rather than to this one's return *)
            if not (Queue.is_empty t.queue) then Condition.signal t.work;
            batch
          end)
    in
    if batch <> [] then begin
      let arr = Array.of_list batch in
      let run_one e =
        match e.job () with
        | v -> Ok v
        | exception exn -> Error (Failed (Printexc.to_string exn))
      in
      (* one Parallel.map per admitted batch: compatible solves fan out
         over the engine pool together. cost = min_work marks each solve
         as expensive, so any batch of >= 2 dispatches when a pool is
         present. The whole batch runs as a pool task awaited passively,
         so even a lone solve occupies a worker domain — never this one,
         whose systhreads (a daemon's connection handlers) must keep
         running to coalesce identical queries arriving mid-solve. *)
      let results =
        match t.pool with
        | None -> Array.map run_one arr
        | Some p -> (
            (* the pool can fail this batch wholesale: [Cancelled] when it
               shut down (or was shut down mid-request) and [Stalled] when
               the watchdog gave up on the domain running it. Either way
               every waiter of the batch gets a typed error, never a
               dispatcher-killing exception. *)
            match
              Repro_engine.Pool.await_passive
                (Repro_engine.Pool.submit p (fun () ->
                     Repro_engine.Parallel.map ~pool:p
                       ~cost:Repro_engine.Parallel.default_min_work run_one arr))
            with
            | results -> results
            | exception Repro_engine.Pool.Cancelled ->
                Array.map (fun _ -> Error Shutdown) arr
            | exception Repro_engine.Pool.Stalled dt ->
                Array.map
                  (fun _ ->
                    Error
                      (Failed
                         (Printf.sprintf
                            "solve stalled for %.1fs; worker replaced" dt)))
                  arr
            | exception exn ->
                Array.map (fun _ -> Error (Failed (Printexc.to_string exn))) arr)
      in
      locked t (fun () ->
          Array.iteri (fun i e -> complete t e results.(i)) arr;
          t.executed <- t.executed + Array.length arr;
          t.batches <- t.batches + 1;
          t.max_batch <- Int.max t.max_batch (Array.length arr);
          Condition.broadcast t.finished)
    end
  done

(* [Condition.wait] has no timeout, so deadlines need an external pulse:
   while any timed waiter exists this thread broadcasts [finished] every
   tick, letting waiters re-check their deadline. Idle (no timed
   waiters) it only takes the mutex 50 times a second. *)
let run_ticker t =
  let rec loop () =
    Thread.delay 0.02;
    let continue_ =
      locked t (fun () ->
          if t.stopping then false
          else begin
            if t.timed_waiters > 0 then Condition.broadcast t.finished;
            true
          end)
    in
    if continue_ then loop ()
  in
  loop ()

let create ?(queue_limit = 256) ?(batch_max = 16) ?pool ?cache ~cost_bytes () =
  if queue_limit <= 0 then invalid_arg "Scheduler.create: queue_limit <= 0";
  if batch_max <= 0 then invalid_arg "Scheduler.create: batch_max <= 0";
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      in_flight = Hashtbl.create 64;
      queue_limit;
      batch_max;
      pool;
      cache;
      cost_bytes;
      stopping = false;
      dispatchers = [];
      ticker = None;
      timed_waiters = 0;
      submitted = 0;
      cache_hits = 0;
      dedup_hits = 0;
      executed = 0;
      batches = 0;
      max_batch = 0;
      rejected = 0;
      timed_out = 0;
    }
  in
  let dispatchers =
    match pool with Some p -> Repro_engine.Pool.size p | None -> 1
  in
  t.dispatchers <-
    List.init dispatchers (fun _ -> Thread.create run_dispatcher t);
  t.ticker <- Some (Thread.create run_ticker t);
  t

let await_cell ?deadline t cell =
  (* mutex held on entry and exit. [deadline] is [(budget_s, abs_time)]:
     once [abs_time] passes, this waiter gives up with [Timed_out] — the
     solve itself keeps running and still lands in the cache. *)
  let rec wait () =
    match cell.result with
    | Some r -> r
    | None -> (
        match deadline with
        | Some (budget, at) when Unix.gettimeofday () >= at ->
            t.timed_out <- t.timed_out + 1;
            Error (Timed_out budget)
        | _ ->
            Condition.wait t.finished t.mutex;
            wait ())
  in
  match deadline with
  | None -> wait ()
  | Some _ ->
      t.timed_waiters <- t.timed_waiters + 1;
      Fun.protect
        ~finally:(fun () -> t.timed_waiters <- t.timed_waiters - 1)
        wait

let submit t ~key ?(group = "default") ?deadline_s job =
  let deadline =
    Option.map
      (fun s ->
        if s <= 0. then invalid_arg "Scheduler.submit: deadline_s <= 0";
        (s, Unix.gettimeofday () +. s))
      deadline_s
  in
  locked t (fun () ->
      t.submitted <- t.submitted + 1;
      if t.stopping then Error Shutdown
      else
        match Option.bind t.cache (fun c -> Solve_cache.find c key) with
        | Some v ->
            t.cache_hits <- t.cache_hits + 1;
            Ok (v, `Cached)
        | None -> (
            match Hashtbl.find_opt t.in_flight key with
            | Some cell ->
                (* coalesce onto the identical in-flight solve *)
                t.dedup_hits <- t.dedup_hits + 1;
                Result.map (fun v -> (v, `Coalesced)) (await_cell ?deadline t cell)
            | None ->
                if Queue.length t.queue >= t.queue_limit then begin
                  t.rejected <- t.rejected + 1;
                  Error
                    (Overloaded
                       { queued = Queue.length t.queue; limit = t.queue_limit })
                end
                else begin
                  let cell = { result = None } in
                  Hashtbl.replace t.in_flight key cell;
                  Queue.push { key; group; job; cell } t.queue;
                  Condition.signal t.work;
                  Result.map (fun v -> (v, `Computed)) (await_cell ?deadline t cell)
                end))

let stats t =
  locked t (fun () ->
      {
        submitted = t.submitted;
        cache_hits = t.cache_hits;
        dedup_hits = t.dedup_hits;
        executed = t.executed;
        batches = t.batches;
        max_batch = t.max_batch;
        rejected = t.rejected;
        timed_out = t.timed_out;
        queued_now = Queue.length t.queue;
        in_flight_now = Hashtbl.length t.in_flight;
      })

let shutdown t =
  let threads =
    locked t (fun () ->
        if t.stopping then []
        else begin
          t.stopping <- true;
          Condition.broadcast t.work;
          Condition.broadcast t.finished;
          let ts = Option.to_list t.ticker @ t.dispatchers in
          t.dispatchers <- [];
          t.ticker <- None;
          ts
        end)
  in
  List.iter Thread.join threads
