(** Client side of the gap-query daemon's socket protocol.

    Two API layers: the typed one ([connect_typed] / [call_typed])
    distinguishes failure classes so callers (and the CLI's exit
    codes) can react differently to "daemon not up" versus "deadline
    exceeded" versus "garbled reply"; the legacy string-error API is
    kept for existing callers. *)

type t

(** Failure classes, most specific first. *)
type error =
  | Connect_refused of string
      (** nothing listening at the socket path ([ECONNREFUSED] /
          [ENOENT]) — the retryable "daemon not up (yet)" case *)
  | Io of string  (** transport failure mid-conversation *)
  | Malformed_reply of string
      (** the daemon answered bytes that don't parse, or JSON without
          an ["ok"] member *)
  | App_error of { code : string; message : string }
      (** a well-formed [{"ok":false}] reply; [code] as in {!Protocol}
          (e.g. ["deadline-exceeded"], ["overloaded"], ["degraded"]) *)

val error_to_string : error -> string

val exit_code : error -> int
(** Stable mapping for the CLI: 1 transport I/O, 2 application error,
    3 connection refused, 4 deadline exceeded, 5 malformed reply. *)

val connect_typed : string -> (t, error) result
(** Dial the daemon's Unix socket. Transient refusals —
    [ECONNREFUSED], [ENOENT], [ECONNRESET] — classify as
    [Connect_refused] so retry policies treat a restarting daemon
    uniformly. *)

val connect_retry :
  ?policy:Repro_resilience.Retry.policy ->
  ?seed:int ->
  string ->
  (t, error) result
(** {!connect_typed} under {!Repro_resilience.Retry.run}: retries
    [Connect_refused] (a daemon still starting, or restarting) with
    jittered exponential backoff; other errors return immediately. *)

val set_timeouts : t -> float -> unit
(** Socket send/receive timeouts in seconds ([SO_RCVTIMEO] /
    [SO_SNDTIMEO]), so a hung daemon surfaces as [Io] instead of
    blocking forever. Best-effort. *)

val request_typed : t -> Json.t -> (Json.t, error) result
(** One round trip; [Ok] is any parsed reply, including
    [{"ok":false}]. *)

val call_typed : t -> Protocol.request -> (Json.t, error) result
(** {!request_typed} on the encoded request, then splits the reply on
    ["ok"]: [Ok json] is a success reply, [{"ok":false}] becomes
    [App_error], a reply without a boolean ["ok"] is
    [Malformed_reply]. *)

(** {1 Legacy string-error API} *)

val connect : string -> (t, string) result
(** Connect to the daemon's Unix socket at this path. Retries transient
    refusals with the default jittered backoff before giving up (a
    daemon restarting mid-connect is not a hard error). *)

val close : t -> unit

val request : t -> Json.t -> (Json.t, string) result
(** One request/response round trip. [Error] on transport failures
    (connection refused mid-stream, torn frames, unparsable response);
    application errors come back as [Ok {"ok":false, ...}]. *)

val call : t -> Protocol.request -> (Json.t, string) result
(** {!request} composed with {!Protocol.request_to_json}. *)

val with_connection : string -> (t -> 'a) -> ('a, string) result
(** Connect, run, always close. *)
