(** Append-only on-disk journal for the solve cache.

    Format (version 2): a fixed ASCII header line, then records of

    {v 8-byte big-endian key | 4-byte big-endian length | value bytes
       | 4-byte big-endian CRC-32 v}

    where the CRC (IEEE/zlib polynomial) covers the key, length and
    value bytes. Appends are the only mutation, so a crash can at worst
    leave one truncated record at the tail; {!replay} tolerates exactly
    that (the partial record is dropped, everything before it is
    recovered). A well-framed record whose CRC does not match — a bit
    flipped at rest — is skipped with a warning and replay continues
    with the next record. A header with a different version string
    (including the CRC-less v1) invalidates the whole file —
    {!open_append} then truncates and rewrites it, so format changes
    never mix versions in one file.

    An open journal is mutex-protected: cache shards on different
    domains may append concurrently. *)

type t

val header : string
(** The exact version-2 header line ("REPRO-SERVE-JOURNAL v2\n"). *)

val replay :
  string -> f:(key:int64 -> value:string -> unit) -> (int, string) result
(** [replay path ~f] — call [f] on every complete, CRC-valid record in
    file order and return how many were replayed. A missing file replays
    0 records; a truncated tail is silently tolerated; a record failing
    its CRC is skipped (with a [Logs] warning on the
    ["repro.serve.journal"] source) without aborting the scan; a bad or
    foreign header is an [Error]. *)

val open_append : string -> (t, string) result
(** Open for appending, creating the file (and writing the header) if
    missing or empty. A file with a foreign header is truncated to a
    fresh version-2 journal; a torn tail record is truncated away so
    records appended now stay reachable by the next {!replay}. The tail
    scan is structural only — CRC-corrupt records in the body are left
    for {!replay} to skip. *)

val append : t -> key:int64 -> value:string -> unit
(** Durable enough for a cache: buffered write flushed per record.
    Fault point ["journal_torn_write"] ({!Repro_resilience.Faults})
    simulates a crash mid-append by writing half a record. *)

val close : t -> unit
(** Idempotent. *)
