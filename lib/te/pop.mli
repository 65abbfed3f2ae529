(** POP — Partitioned Optimization Problems [29] (paper eq. 6).

    Node pairs are split uniformly at random into [parts] partitions and
    each partition solves OptMaxFlow independently with every edge
    capacity divided by [parts]; the final allocation is the vector union
    of the per-partition allocations.

    The appendix's {e client splitting} extension is also implemented:
    demands at or above a threshold are repeatedly halved into virtual
    clients (up to a per-client split budget), spreading a large demand
    across partitions.

    Every solver entry point takes an optional [?pool]: the per-partition
    LPs are independent, so with a {!Repro_engine.Pool.t} they run
    concurrently. Totals and allocations are folded in part order either
    way, so pooled results are bit-identical to serial ones. *)

type partition = int array
(** [partition.(k)] — the part id of pair [k], in [0, parts). *)

val random_partition : rng:Rng.t -> num_pairs:int -> parts:int -> partition
(** Balanced uniform partition (shuffled round-robin). *)

type result = {
  total : float;
  per_part : float array;
  allocation : Allocation.t;
}

val solve :
  ?pool:Repro_engine.Pool.t ->
  Pathset.t ->
  parts:int ->
  partition ->
  Demand.t ->
  result

(** {1 Client splitting (Appendix A)} *)

type split_demands = {
  origin : int array;  (** virtual client -> original pair *)
  volumes : float array;
}

val client_split :
  Demand.t -> threshold:float -> max_splits:int -> split_demands
(** Halve any demand at or above [threshold] until it drops below the
    threshold or its split count reaches [max_splits] — each original pair
    becomes [2^s] equal virtual clients. *)

val solve_with_client_split :
  ?pool:Repro_engine.Pool.t ->
  Pathset.t ->
  parts:int ->
  rng:Rng.t ->
  threshold:float ->
  max_splits:int ->
  Demand.t ->
  result
(** Client-split the demands, partition the virtual clients uniformly at
    random, then run POP; virtual flows are folded back onto their
    original pairs in the reported allocation. *)
