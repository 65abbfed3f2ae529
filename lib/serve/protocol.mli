(** Wire protocol of the gap-query daemon.

    Transport: length-prefixed JSON — each message is a 4-byte
    big-endian payload length followed by that many bytes of UTF-8
    JSON. One request, one response, in order, per connection; a
    connection handles any number of requests.

    Requests are objects dispatched on ["op"]:

    - [{"op":"ping"}]
    - [{"op":"stats"}]
    - [{"op":"shutdown"}]
    - [{"op":"evaluate", "topology":NAME, "paths":K, "heuristic":H,
        "demands":D, "deadline":SECONDS?}]
    - [{"op":"find-gap", "topology":NAME, "paths":K, "heuristic":H,
        "method":M, "time":SECONDS, "seed":N, "deadline":SECONDS?,
        "degrade":BOOL?}]

    where [H] is [{"kind":"dp", "threshold_frac":F}] or
    [{"kind":"pop", "parts":N, "instances":R, "seed":S}], [D] is
    [{"gen":"uniform"|"gravity"|"bimodal", "seed":S}], [{"csv":TEXT}]
    (the CLI's src,dst,volume format) or
    [{"entries":[[src,dst,volume],...]}], and [M] is one of
    ["whitebox"], ["hillclimb"], ["annealing"].

    ["deadline"] (optional, seconds > 0) bounds how long the daemon may
    spend answering this request; past it the reply is the typed error
    ["deadline-exceeded"] (the solve keeps warming the cache). On
    find-gap, ["degrade":true] (requires a deadline) asks for a
    best-so-far answer instead of an error: the solver runs under a
    budget sized to the deadline and the response carries
    ["degraded":true] plus a ["reason"] when the budget tripped.

    Responses are [{"ok":true, ...}] or
    [{"ok":false, "error":{"code":C, "message":S}}] with codes
    ["bad-request"], ["overloaded"], ["solve-failed"],
    ["deadline-exceeded"], ["degraded"] (circuit breaker shedding),
    ["internal"]. *)

(** {1 Framing} *)

val max_frame : int
(** Refuse frames larger than this (16 MiB) instead of allocating. *)

val read_frame : Unix.file_descr -> (string option, string) result
(** [Ok None] on clean EOF at a frame boundary; [Error] on a torn frame
    or an oversized length. *)

val write_frame : Unix.file_descr -> string -> unit
(** @raise Unix.Unix_error on a closed peer. *)

(** {1 Requests} *)

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

val method_to_string : search_method -> string
(** The wire name: ["whitebox"], ["hillclimb"] or ["annealing"]. *)

type request =
  | Evaluate of {
      instance : instance;
      demand : demand_spec;
      deadline : float option;  (** seconds the caller will wait *)
    }
  | Find_gap of {
      instance : instance;
      method_ : search_method;
      time : float;
      seed : int;
      deadline : float option;  (** seconds the caller will wait *)
      degrade : bool;
          (** prefer a budget-bounded best-so-far answer over a
              deadline-exceeded error; requires [deadline] *)
    }
  | Stats
  | Ping
  | Shutdown

val request_of_json : Json.t -> (request, string) result
val request_to_json : request -> Json.t
(** Inverse of {!request_of_json} — what the client sends. *)

(** {1 Response helpers} *)

val ok : (string * Json.t) list -> Json.t
(** [{"ok":true, ...fields}]. *)

val error : code:string -> string -> Json.t
(** [{"ok":false,"error":{"code":..,"message":..}}]. *)
