(* Statistics, host probes and the span recorder the workloads share.
   Nothing here calls repository code: the calibration kernel in
   particular must not move when the code under test changes. *)

module Json = Repro_serve.Json

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) computes them, so spreads printed by
   [compare] are the ones an outside checker gets from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

(* Run [op] back to back until [seconds] have passed and at least
   [min_reps] ran. A full major collection precedes every rep, outside
   the timed region, so one rep's garbage is not billed to the next.
   Returns each rep's wall in seconds with its result, in run order,
   and the calling domain's GC work per rep inside the timed region:
   [("gc.major_per_op", _); ("gc.minor_mb_per_op", _)]. *)
let timed_reps ~seconds ~min_reps op =
  let started = now () in
  let reps = ref [] and n = ref 0 in
  let majors = ref 0 and minor_words = ref 0. in
  while !n < min_reps || now () -. started < seconds do
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let v = op !n in
    let wall = now () -. t0 in
    let g1 = Gc.quick_stat () in
    majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections;
    minor_words := !minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
    reps := (wall, v) :: !reps;
    incr n
  done;
  let per_op x = x /. float_of_int !n in
  ( List.rev !reps,
    [
      ("gc.major_per_op", per_op (float_of_int !majors));
      ( "gc.minor_mb_per_op",
        per_op (!minor_words *. float_of_int (Sys.word_size / 8) /. 1048576.) );
    ] )

(* ---- host probes ---------------------------------------------------- *)

(* Peak resident set (VmHWM) of a process, in MiB; [pid] is a number or
   "self". 0 when /proc is unavailable. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f"
              (fun kb -> kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* A fixed arithmetic kernel, timed around every workload: when it
   slows down too, the host drifted, not the code. Median of 5. *)
let calib_ms () =
  let a = Array.init 4096 float_of_int in
  let once () =
    let t0 = now () in
    let acc = ref 0. in
    for r = 1 to 1000 do
      let fr = float_of_int r in
      for i = 0 to 4095 do
        acc := !acc +. Float.sqrt (a.(i) +. fr)
      done
    done;
    ignore (Sys.opaque_identity !acc);
    1000. *. (now () -. t0)
  in
  median (List.init 5 (fun _ -> once ()))

(* ---- spans ---------------------------------------------------------- *)

(* An in-memory span recorder written out as Chrome trace-event JSON
   (opens in Perfetto or chrome://tracing). Spans nest by time
   containment on one [tid]; [tid] separates client threads. *)
module Trace = struct
  type span = { name : string; tid : int; t0 : float; t1 : float }

  type t = { origin : float; lock : Mutex.t; mutable spans : span list }

  let create () = { origin = now (); lock = Mutex.create (); spans = [] }

  let add t ?(tid = 0) name t0 t1 =
    Mutex.protect t.lock (fun () -> t.spans <- { name; tid; t0; t1 } :: t.spans)

  let us t x = Json.Num (Float.round ((x -. t.origin) *. 1e6))

  let to_json t =
    let event s =
      Json.Obj
        [
          ("name", Json.Str s.name);
          ("cat", Json.Str (List.hd (String.split_on_char '.' s.name)));
          ("ph", Json.Str "X");
          ("ts", us t s.t0);
          ("dur", Json.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
          ("pid", Json.Num 1.);
          ("tid", Json.Num (float_of_int s.tid));
        ]
    in
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev_map event t.spans));
        ("displayTimeUnit", Json.Str "ms");
      ]

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Json.to_string (to_json t)))
end

(* [span tr name f]: [f ()], recorded as a span when tracing. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let t0 = now () in
      Fun.protect ~finally:(fun () -> Trace.add t name t0 (now ())) f

(* Median wall of three calls of [f], in ms, each recorded as a span:
   the layers timed as separate calls. *)
let med3_ms tr name f =
  median
    (List.init 3 (fun _ ->
         let t0 = now () in
         span tr name (fun () -> ignore (Sys.opaque_identity (f ())));
         1000. *. (now () -. t0)))
