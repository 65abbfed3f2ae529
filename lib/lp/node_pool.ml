(* Concurrent best-bound node pool for branch-and-bound.

   Per-worker max-heaps under one lock: a worker pushes children onto
   its own heap, and [take] hands out the globally best-bound top across
   every heap (own heap wins ties), stealing when the best open node
   lives elsewhere. Workers therefore always launch their next dive from
   the most promising frontier node, while the heap-per-worker layout
   keeps sibling nodes with the worker that produced them — ties resolve
   to local (warm-start-cheap) work.

   Termination is exact: [take] returns [None] only once every heap is
   empty AND no worker is still expanding a node (an in-flight node may
   still push children), or after [stop]. The [active] counter plus a
   condition variable implement that protocol; a sleeping worker is
   always woken by the push of a child, by the last active worker
   finishing, or by [stop]. *)

type 'a t = {
  mu : Mutex.t;
  wake : Condition.t;
  heaps : 'a Heap.t array;
  current : float array; (* priority of each worker's in-flight node; nan = idle *)
  mutable active : int;
  mutable stopped : bool;
  mutable steals : int;
  mutable idle_s : float;
  (* a worker died mid-expansion: its in-flight subtree is unproven
     forever, so its bound is folded into [best_open] permanently *)
  mutable lost : int;
  mutable lost_prio : float; (* nan = nothing lost *)
}

let create ~workers =
  if workers < 1 then invalid_arg "Node_pool.create";
  {
    mu = Mutex.create ();
    wake = Condition.create ();
    heaps = Array.init workers (fun _ -> Heap.create ());
    current = Array.make workers Float.nan;
    active = 0;
    stopped = false;
    steals = 0;
    idle_s = 0.;
    lost = 0;
    lost_prio = Float.nan;
  }

let workers t = Array.length t.heaps

let push t ~worker ~prio x =
  Mutex.lock t.mu;
  Heap.push t.heaps.(worker) prio x;
  Condition.broadcast t.wake;
  Mutex.unlock t.mu

let take t ~worker =
  Mutex.lock t.mu;
  let result = ref None in
  (try
     while true do
       if t.stopped then raise Exit;
       (* global best-bound take: dives launch from the most promising
          open node anywhere, not just this worker's leftovers. The own
          heap wins ties so a worker keeps local (warm-start-cheap) work
          when it is as good as anything stealable. *)
       let victim =
         let best = ref (-1) and best_p = ref neg_infinity in
         let consider i =
           let h = t.heaps.(i) in
           if not (Heap.is_empty h) then begin
             let p = Heap.max_priority h in
             if !best < 0 || p > !best_p then begin
               best_p := p;
               best := i
             end
           end
         in
         consider worker;
         Array.iteri (fun i _ -> if i <> worker then consider i) t.heaps;
         if !best >= 0 then Some !best else None
       in
       match victim with
       | Some v ->
           let prio, x = Heap.pop t.heaps.(v) in
           if v <> worker then t.steals <- t.steals + 1;
           t.active <- t.active + 1;
           t.current.(worker) <- prio;
           result := Some (prio, x, v <> worker);
           raise Exit
       | None ->
           if t.active = 0 then begin
             (* globally exhausted: wake the other sleepers so they exit *)
             Condition.broadcast t.wake;
             raise Exit
           end;
           let t0 = Unix.gettimeofday () in
           Condition.wait t.wake t.mu;
           t.idle_s <- t.idle_s +. (Unix.gettimeofday () -. t0)
     done
   with Exit -> ());
  Mutex.unlock t.mu;
  !result

let continue_with t ~worker ~prio =
  Mutex.lock t.mu;
  t.current.(worker) <- prio;
  Mutex.unlock t.mu

let finish t ~worker =
  Mutex.lock t.mu;
  t.active <- t.active - 1;
  t.current.(worker) <- Float.nan;
  if t.active = 0 then Condition.broadcast t.wake;
  Mutex.unlock t.mu

let stop t =
  Mutex.lock t.mu;
  t.stopped <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mu

(* mutex held *)
let release_in_flight t ~worker =
  let p = t.current.(worker) in
  if not (Float.is_nan p) then begin
    if Float.is_nan t.lost_prio || p > t.lost_prio then t.lost_prio <- p;
    t.current.(worker) <- Float.nan;
    t.active <- t.active - 1;
    if t.active = 0 then Condition.broadcast t.wake
  end

let abandon t ~worker =
  Mutex.lock t.mu;
  release_in_flight t ~worker;
  Mutex.unlock t.mu

let reclaim t ~worker =
  Mutex.lock t.mu;
  t.lost <- t.lost + 1;
  release_in_flight t ~worker;
  Mutex.unlock t.mu

let lost t =
  Mutex.lock t.mu;
  let l = t.lost in
  Mutex.unlock t.mu;
  l

let best_open t =
  Mutex.lock t.mu;
  let best = ref neg_infinity and found = ref false in
  Array.iter
    (fun h ->
      if not (Heap.is_empty h) then begin
        let p = Heap.max_priority h in
        if (not !found) || p > !best then best := p;
        found := true
      end)
    t.heaps;
  Array.iter
    (fun p ->
      if not (Float.is_nan p) then begin
        if (not !found) || p > !best then best := p;
        found := true
      end)
    t.current;
  if not (Float.is_nan t.lost_prio) then begin
    if (not !found) || t.lost_prio > !best then best := t.lost_prio;
    found := true
  end;
  Mutex.unlock t.mu;
  if !found then Some !best else None

let stats t =
  Mutex.lock t.mu;
  let s = (t.steals, t.idle_s) in
  Mutex.unlock t.mu;
  s
