module Simplex = Repro_lp.Simplex

type t = {
  cache : Simplex.basis_snapshot Solve_cache.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  store_count : int Atomic.t;
}

type role = [ `Opt | `Heur ]

type stats = {
  warm_hits : int;
  warm_misses : int;
  stores : int;
  entries : int;
}

let create ?(max_bytes = 8 * 1024 * 1024) () =
  {
    cache = Solve_cache.create ~max_bytes ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    store_count = Atomic.make 0;
  }

let key ?instance ~graph ~paths ~(role : role) () =
  let acc = Fingerprint.empty in
  let acc = Fingerprint.feed_string acc "basis-snapshot" in
  let acc = Fingerprint.feed_graph acc graph in
  let acc = Fingerprint.feed_int acc paths in
  let acc =
    Fingerprint.feed_string acc (match role with `Opt -> "opt" | `Heur -> "heur")
  in
  let acc =
    match instance with
    | None -> acc
    | Some fp -> Fingerprint.feed_int64 (Fingerprint.feed_char acc 'i') fp
  in
  Fingerprint.finish acc

(* Journal value layout: two big-endian int32 lengths, then each array
   as big-endian int32 elements. Basis indices and encoded statuses are
   small non-negative ints, so int32 is lossless. *)
let encode (snap : Simplex.basis_snapshot) =
  let nb = Array.length snap.Simplex.snap_basis in
  let ns = Array.length snap.Simplex.snap_stat in
  let buf = Bytes.create (8 + (4 * (nb + ns))) in
  Bytes.set_int32_be buf 0 (Int32.of_int nb);
  Bytes.set_int32_be buf 4 (Int32.of_int ns);
  Array.iteri
    (fun i v -> Bytes.set_int32_be buf (8 + (4 * i)) (Int32.of_int v))
    snap.Simplex.snap_basis;
  Array.iteri
    (fun i v ->
      Bytes.set_int32_be buf (8 + (4 * (nb + i))) (Int32.of_int v))
    snap.Simplex.snap_stat;
  Bytes.unsafe_to_string buf

let decode s =
  let len = String.length s in
  if len < 8 then None
  else begin
    let nb = Int32.to_int (String.get_int32_be s 0) in
    let ns = Int32.to_int (String.get_int32_be s 4) in
    if nb < 0 || ns < 0 || len <> 8 + (4 * (nb + ns)) then None
    else
      Some
        {
          Simplex.snap_basis =
            Array.init nb (fun i ->
                Int32.to_int (String.get_int32_be s (8 + (4 * i))));
          snap_stat =
            Array.init ns (fun i ->
                Int32.to_int (String.get_int32_be s (8 + (4 * (nb + i)))));
        }
  end

let cost_bytes (snap : Simplex.basis_snapshot) =
  8
  * (Array.length snap.Simplex.snap_basis
    + Array.length snap.Simplex.snap_stat)

let find t k =
  match Solve_cache.find t.cache k with
  | Some _ as r ->
      Atomic.incr t.hits;
      r
  | None ->
      Atomic.incr t.misses;
      None

let store t k snap =
  Atomic.incr t.store_count;
  Solve_cache.insert t.cache k ~cost_bytes:(cost_bytes snap) snap

let with_journal t ~path = Solve_cache.with_journal t.cache ~path ~encode ~decode

let stats t =
  {
    warm_hits = Atomic.get t.hits;
    warm_misses = Atomic.get t.misses;
    stores = Atomic.get t.store_count;
    entries = (Solve_cache.stats t.cache).Solve_cache.entries;
  }

let close t = Solve_cache.close t.cache
