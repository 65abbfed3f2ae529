let max_frame = 16 * 1024 * 1024

(* ---- framing ------------------------------------------------------- *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n = Unix.write fd bytes off len in
    write_all fd bytes (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_uint8 b 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (len land 0xff);
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b 0 (4 + len)

(* Read exactly [len] bytes; [`Eof n] reports how many arrived first. *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off = len then `Ok (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
  in
  go 0

let read_frame fd =
  match read_exact fd 4 with
  | `Eof 0 -> Ok None (* clean close between frames *)
  | `Eof _ -> Error "torn frame header"
  | `Ok hdr ->
      let len =
        (Char.code hdr.[0] lsl 24)
        lor (Char.code hdr.[1] lsl 16)
        lor (Char.code hdr.[2] lsl 8)
        lor Char.code hdr.[3]
      in
      if len > max_frame then
        Error (Printf.sprintf "frame of %d bytes exceeds limit %d" len max_frame)
      else if len = 0 then Ok (Some "")
      else (
        match read_exact fd len with
        | `Ok payload -> Ok (Some payload)
        | `Eof _ -> Error "torn frame payload")

(* ---- request types ------------------------------------------------- *)

type demand_spec =
  | Gen of { gen : [ `Uniform | `Gravity | `Bimodal ]; seed : int }
  | Csv of string
  | Entries of (int * int * float) list

type heuristic_spec =
  | Dp of { threshold_frac : float }
  | Pop of { parts : int; instances : int; seed : int }

type instance = {
  topology : string;
  paths : int;
  heuristic : heuristic_spec;
}

type search_method = Whitebox | Hillclimb | Annealing

type request =
  | Evaluate of {
      instance : instance;
      demand : demand_spec;
      deadline : float option;
    }
  | Find_gap of {
      instance : instance;
      method_ : search_method;
      time : float;
      seed : int;
      deadline : float option;
      degrade : bool;
    }
  | Stats
  | Ping
  | Shutdown

(* ---- parsing ------------------------------------------------------- *)

let ( let* ) = Result.bind

let required name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let heuristic_of_json j =
  match Json.obj_str "kind" j with
  | Some "dp" ->
      let tf = Option.value ~default:0.05 (Json.obj_num "threshold_frac" j) in
      Ok (Dp { threshold_frac = tf })
  | Some "pop" ->
      let parts = Option.value ~default:2 (Json.obj_int "parts" j) in
      let instances = Option.value ~default:5 (Json.obj_int "instances" j) in
      let seed = Option.value ~default:1 (Json.obj_int "seed" j) in
      if parts < 1 || instances < 1 then Error "pop: parts/instances < 1"
      else Ok (Pop { parts; instances; seed })
  | Some k -> Error (Printf.sprintf "unknown heuristic kind %S" k)
  | None -> Error "heuristic.kind missing"

let demand_of_json j =
  match (Json.obj_str "gen" j, Json.obj_str "csv" j, Json.member "entries" j) with
  | Some g, _, _ ->
      let seed = Option.value ~default:1 (Json.obj_int "seed" j) in
      let* gen =
        match g with
        | "uniform" -> Ok `Uniform
        | "gravity" -> Ok `Gravity
        | "bimodal" -> Ok `Bimodal
        | g -> Error (Printf.sprintf "unknown demand generator %S" g)
      in
      Ok (Gen { gen; seed })
  | None, Some csv, _ -> Ok (Csv csv)
  | None, None, Some entries ->
      let* l = required "demands.entries" (Json.list entries) in
      let* triples =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match Json.list e with
            | Some [ s; d; v ] -> (
                match (Json.int s, Json.int d, Json.num v) with
                | Some s, Some d, Some v -> Ok ((s, d, v) :: acc)
                | _ -> Error "demands.entries: expected [src,dst,volume]")
            | _ -> Error "demands.entries: expected [src,dst,volume]")
          (Ok []) l
      in
      Ok (Entries (List.rev triples))
  | None, None, None -> Error "demands: need gen, csv or entries"

let instance_of_json j =
  let* topology = required "topology" (Json.obj_str "topology" j) in
  let paths = Option.value ~default:2 (Json.obj_int "paths" j) in
  let* heuristic =
    let* h = required "heuristic" (Json.member "heuristic" j) in
    heuristic_of_json h
  in
  if paths < 1 then Error "paths < 1" else Ok { topology; paths; heuristic }

let method_of_string = function
  | "whitebox" -> Ok Whitebox
  | "hillclimb" -> Ok Hillclimb
  | "annealing" -> Ok Annealing
  | m -> Error (Printf.sprintf "unknown method %S" m)

let method_to_string = function
  | Whitebox -> "whitebox"
  | Hillclimb -> "hillclimb"
  | Annealing -> "annealing"

let deadline_of_json j =
  match Json.obj_num "deadline" j with
  | None -> Ok None
  | Some d when d > 0. -> Ok (Some d)
  | Some _ -> Error "deadline <= 0"

let request_of_json j =
  match Json.obj_str "op" j with
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some "evaluate" ->
      let* instance = instance_of_json j in
      let* demand =
        let* d = required "demands" (Json.member "demands" j) in
        demand_of_json d
      in
      let* deadline = deadline_of_json j in
      Ok (Evaluate { instance; demand; deadline })
  | Some "find-gap" ->
      let* instance = instance_of_json j in
      let* method_ =
        let* m = required "method" (Json.obj_str "method" j) in
        method_of_string m
      in
      let time = Option.value ~default:10. (Json.obj_num "time" j) in
      let seed = Option.value ~default:1 (Json.obj_int "seed" j) in
      let* deadline = deadline_of_json j in
      let degrade = Option.value ~default:false (Json.obj_bool "degrade" j) in
      if time <= 0. then Error "time <= 0"
      else if degrade && deadline = None then
        Error "degrade requires a deadline"
      else Ok (Find_gap { instance; method_; time; seed; deadline; degrade })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "request must be an object with an \"op\" member"

(* ---- printing ------------------------------------------------------ *)

let heuristic_to_json = function
  | Dp { threshold_frac } ->
      Json.Obj
        [ ("kind", Json.Str "dp"); ("threshold_frac", Json.Num threshold_frac) ]
  | Pop { parts; instances; seed } ->
      Json.Obj
        [
          ("kind", Json.Str "pop");
          ("parts", Json.Num (float_of_int parts));
          ("instances", Json.Num (float_of_int instances));
          ("seed", Json.Num (float_of_int seed));
        ]

let demand_to_json = function
  | Gen { gen; seed } ->
      Json.Obj
        [
          ( "gen",
            Json.Str
              (match gen with
              | `Uniform -> "uniform"
              | `Gravity -> "gravity"
              | `Bimodal -> "bimodal") );
          ("seed", Json.Num (float_of_int seed));
        ]
  | Csv csv -> Json.Obj [ ("csv", Json.Str csv) ]
  | Entries l ->
      Json.Obj
        [
          ( "entries",
            Json.List
              (List.map
                 (fun (s, d, v) ->
                   Json.List
                     [
                       Json.Num (float_of_int s);
                       Json.Num (float_of_int d);
                       Json.Num v;
                     ])
                 l) );
        ]

let instance_fields { topology; paths; heuristic } =
  [
    ("topology", Json.Str topology);
    ("paths", Json.Num (float_of_int paths));
    ("heuristic", heuristic_to_json heuristic);
  ]

let deadline_fields = function
  | None -> []
  | Some d -> [ ("deadline", Json.Num d) ]

let request_to_json = function
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]
  | Evaluate { instance; demand; deadline } ->
      Json.Obj
        ((("op", Json.Str "evaluate") :: instance_fields instance)
        @ [ ("demands", demand_to_json demand) ]
        @ deadline_fields deadline)
  | Find_gap { instance; method_; time; seed; deadline; degrade } ->
      Json.Obj
        ((("op", Json.Str "find-gap") :: instance_fields instance)
        @ [
            ("method", Json.Str (method_to_string method_));
            ("time", Json.Num time);
            ("seed", Json.Num (float_of_int seed));
          ]
        @ deadline_fields deadline
        @ (if degrade then [ ("degrade", Json.Bool true) ] else []))

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error ~code message =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ] );
    ]
