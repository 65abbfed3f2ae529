type t = { fd : Unix.file_descr }

(* ---- typed errors --------------------------------------------------- *)

type error =
  | Connect_refused of string
  | Io of string
  | Malformed_reply of string
  | App_error of { code : string; message : string }

let error_to_string = function
  | Connect_refused m -> m
  | Io m -> m
  | Malformed_reply m -> "malformed reply: " ^ m
  | App_error { code; message } -> Printf.sprintf "%s: %s" code message

(* Stable process exit codes for scripts wrapping the CLI client. *)
let exit_code = function
  | Io _ -> 1
  | App_error { code = "deadline-exceeded"; _ } -> 4
  | App_error _ -> 2
  | Connect_refused _ -> 3
  | Malformed_reply _ -> 5

let connect_typed path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let msg =
        Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e)
      in
      (* ECONNRESET here is the freshly-restarting daemon slamming the
         half-open queue shut — as transient as ECONNREFUSED *)
      Error
        (match e with
        | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET ->
            Connect_refused msg
        | _ -> Io msg)

let connect_retry ?policy ?seed path =
  Repro_resilience.Retry.run ?policy ?seed
    ~retryable:(function Connect_refused _ -> true | _ -> false)
    (fun ~attempt:_ -> connect_typed path)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let set_timeouts t seconds =
  try
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds;
    Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO seconds
  with Unix.Unix_error _ -> ()

let request_typed t json =
  match Protocol.write_frame t.fd (Json.to_string json) with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Io ("send failed: " ^ Unix.error_message e))
  | () -> (
      match Protocol.read_frame t.fd with
      | Error e -> Error (Io ("receive failed: " ^ e))
      | Ok None -> Error (Io "daemon closed the connection")
      | Ok (Some payload) -> (
          match Json.of_string payload with
          | Error e -> Error (Malformed_reply e)
          | Ok j -> Ok j)
      | exception Unix.Unix_error (e, _, _) ->
          Error (Io ("receive failed: " ^ Unix.error_message e)))

(* Split a parsed reply on its "ok" member: an application-level error
   becomes typed, a reply without a boolean "ok" is malformed. *)
let call_typed t req =
  match request_typed t (Protocol.request_to_json req) with
  | Error _ as e -> e
  | Ok j -> (
      match Json.obj_bool "ok" j with
      | Some true -> Ok j
      | Some false ->
          let code, message =
            match Json.member "error" j with
            | Some err ->
                ( Option.value ~default:"internal" (Json.obj_str "code" err),
                  Option.value ~default:"" (Json.obj_str "message" err) )
            | None -> ("internal", "error reply without error object")
          in
          Error (App_error { code; message })
      | None -> Error (Malformed_reply "reply has no boolean \"ok\" member"))

(* ---- legacy string-error API ---------------------------------------- *)

(* [connect] retries transient refusals by default (a daemon restarting
   mid-connect used to surface as a hard error). *)
let connect path = Result.map_error error_to_string (connect_retry path)

let request t json = Result.map_error error_to_string (request_typed t json)

let call t req = request t (Protocol.request_to_json req)

let with_connection path f =
  match connect path with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> Ok (f t))
