(* What every workload gets from the command line. *)

type t = {
  seed : int;
  seconds : float;
      (** how long the untraced reps run; in a traced run the untraced
          and the traced reps run this long each *)
  tiny : bool;  (** the ~1/20-size smoke profile: every gate, no timing *)
  trace : Measure.Trace.t option;  (** [Some] for the traced run *)
  cli : string;  (** path of the built metaopt CLI (daemon-mixed) *)
  tmp : string;  (** a private directory under the working directory *)
}

(* [pick values seed]: the seed's entry, cycling; seed 1 takes the first. *)
let pick values seed =
  let n = Array.length values in
  values.((((seed - 1) mod n) + n) mod n)

(* Run [setup] 21 times (once when tiny) and record the median wall as
   [setup_s]; the last result is the one the workload uses. *)
let setup ctx r setup =
  let walls = ref [] and last = ref None in
  for _ = 1 to if ctx.tiny then 1 else 21 do
    Gc.full_major ();
    let t0 = Measure.now () in
    let v = setup () in
    walls := (Measure.now () -. t0) :: !walls;
    last := Some v
  done;
  Report.e2e r [ ("setup_s", Measure.median !walls) ];
  Option.get !last
