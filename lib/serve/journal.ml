let header = "REPRO-SERVE-JOURNAL v2\n"

let src = Logs.Src.create "repro.serve.journal" ~doc:"solve-cache journal"

module Log = (val Logs.src_log src : Logs.LOG)

type t = { oc : out_channel; mutex : Mutex.t; mutable closed : bool }

(* ---- CRC-32 (IEEE 802.3 polynomial, the zlib one) ------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32_update crc s =
  let table = Lazy.force crc_table in
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.to_string b

let be32_of_int32 (v : int32) = be32 (Int32.to_int (Int32.logand v 0xFFFFFFFFl) land 0xFFFFFFFF)

let be64 (v : int64) =
  String.init 8 (fun i ->
      Char.chr
        (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))

let read_be64 s off =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* CRC of one record's integrity-protected region: key, length, value. *)
let record_crc ~key ~value =
  let crc = crc32_update 0l (be64 key) in
  let crc = crc32_update crc (be32 (String.length value)) in
  crc32_update crc value

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Record layout: 8-byte key | 4-byte length | value | 4-byte CRC32.
   [overhead] bytes of framing per record. *)
let overhead = 16

(* Apply [f] to the complete records of [contents] from [pos] on and
   return [(applied, skipped)]. Stops before a structurally torn tail;
   CRC-corrupt but well-framed records are consumed and counted as
   skipped. *)
let scan_records contents ~pos ~f =
  let n = String.length contents in
  let pos = ref pos in
  let applied = ref 0 in
  let skipped = ref 0 in
  let torn = ref false in
  while (not !torn) && !pos + overhead <= n do
    let key = read_be64 contents !pos in
    let len = read_be32 contents (!pos + 8) in
    if len < 0 || !pos + overhead + len > n then torn := true
    else begin
      let value = String.sub contents (!pos + 12) len in
      let stored = Int32.of_int (read_be32 contents (!pos + 12 + len)) in
      let computed =
        Int32.of_int
          (Int32.to_int (Int32.logand (record_crc ~key ~value) 0xFFFFFFFFl)
          land 0xFFFFFFFF)
      in
      if Int32.logand stored 0xFFFFFFFFl = Int32.logand computed 0xFFFFFFFFl
      then begin
        f ~key ~value;
        incr applied
      end
      else begin
        (* a flipped bit inside an otherwise well-framed record: skip
           just this record and keep scanning — dropping one cached
           solve is cheap, dropping the rest of the journal is not *)
        incr skipped;
        Log.warn (fun m ->
            m "scan: CRC mismatch at offset %d (key %Ld), record skipped"
              !pos key)
      end;
      pos := !pos + overhead + len
    end
  done;
  (!applied, !skipped)

let replay path ~f =
  if not (Sys.file_exists path) then Ok 0
  else
    match read_file path with
    | exception Sys_error e -> Error e
    | contents ->
        let hl = String.length header in
        if String.length contents < hl then
          if contents = String.sub header 0 (String.length contents) then
            Ok 0 (* header itself truncated: an empty journal *)
          else Error (path ^ ": not a serve journal")
        else if String.sub contents 0 hl <> header then
          Error (path ^ ": unknown journal header/version")
        else begin
          let count, skipped = scan_records contents ~pos:hl ~f in
          if skipped > 0 then
            Log.warn (fun m ->
                m "%s: %d corrupt record(s) skipped, %d replayed" path skipped
                  count);
          Ok count
        end

let open_append path =
  let fresh () =
    match open_out_bin path with
    | oc ->
        output_string oc header;
        flush oc;
        Ok { oc; mutex = Mutex.create (); closed = false }
    | exception Sys_error e -> Error e
  in
  if not (Sys.file_exists path) then fresh ()
  else
    match read_file path with
    | exception Sys_error e -> Error e
    | contents ->
        let hl = String.length header in
        if
          String.length contents >= hl && String.sub contents 0 hl = header
        then begin
          (* drop a torn tail record before appending, or everything
             written after it would be unreachable on the next replay.
             The scan is structural only: a CRC-corrupt record is still
             well-framed, and is replay's business to skip. *)
          let n = String.length contents in
          let valid = ref hl in
          let stop = ref false in
          while (not !stop) && !valid + overhead <= n do
            let len = read_be32 contents (!valid + 8) in
            if len < 0 || !valid + overhead + len > n then stop := true
            else valid := !valid + overhead + len
          done;
          if !valid < n then Unix.truncate path !valid;
          match
            open_out_gen [ Open_append; Open_binary ] 0o644 path
          with
          | oc -> Ok { oc; mutex = Mutex.create (); closed = false }
          | exception Sys_error e -> Error e
        end
        else
          (* empty file, truncated header, or a foreign version (including
             the CRC-less v1): start a fresh journal *)
          fresh ()

let append t ~key ~value =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        if Repro_resilience.Faults.fires "journal_torn_write" then begin
          (* simulated crash mid-append: half a record hits the disk.
             Replay treats it as a torn tail; open_append truncates it. *)
          output_string t.oc (be64 key);
          output_string t.oc (be32 (String.length value));
          output_string t.oc
            (String.sub value 0 (String.length value / 2));
          flush t.oc
        end
        else begin
          output_string t.oc (be64 key);
          output_string t.oc (be32 (String.length value));
          output_string t.oc value;
          output_string t.oc (be32_of_int32 (record_crc ~key ~value));
          flush t.oc
        end
      end)

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        close_out_noerr t.oc
      end)
