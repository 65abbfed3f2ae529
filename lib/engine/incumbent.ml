type 'a t = { mutex : Mutex.t; mutable best : ('a * float) option }

let create () = { mutex = Mutex.create (); best = None }

let propose t value score =
  Mutex.lock t.mutex;
  let improved =
    match t.best with None -> true | Some (_, b) -> score > b
  in
  if improved then t.best <- Some (value, score);
  Mutex.unlock t.mutex;
  improved

let best t =
  Mutex.lock t.mutex;
  let b = t.best in
  Mutex.unlock t.mutex;
  b

let best_score t =
  match best t with Some (_, s) -> s | None -> neg_infinity
