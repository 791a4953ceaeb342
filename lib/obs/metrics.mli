(** The per-run metrics hub: one per-domain-sharded counter per {!Event.t}
    plus enqueue/dequeue latency histograms.  All recording paths are
    wait-free and allocation-free; snapshots are taken by the harness once
    workers are quiescent. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] is forwarded to {!Histogram.create} (counters shard per
    domain id and need no sizing hint). *)

val emit : t -> Event.t -> unit
val add : t -> Event.t -> int -> unit
val count : t -> Event.t -> int
val record_enq_ns : t -> int -> unit
val record_deq_ns : t -> int -> unit

val record_enq_batch_ns : t -> items:int -> int -> unit
(** [record_enq_batch_ns t ~items ns]: one batch enqueue call moved
    [items] items in [ns] nanoseconds total; records [items] histogram
    samples of [ns / items] each, so totals keep counting items.  No-op
    when [items <= 0]. *)

val record_deq_batch_ns : t -> items:int -> int -> unit
(** Dequeue-side counterpart of {!record_enq_batch_ns}. *)

val reset : t -> unit
(** Zero the counters (histograms are left as-is; create a fresh [t] for a
    fresh run). *)

val probe : t -> (module Nbq_primitives.Hook.S)
(** A first-class hook whose [hit] bumps this hub's counter for the point
    ({!Event.of_point}) — plug it into [Evequoz_cas.Make_probed],
    [Segmented.Make_probed_cas] etc.

    The two events that fire once per queue operation by construction
    ([Ll_reserve] and [Tag_reregister]) are sampled 1-in-64 with weight
    64, so their counts are statistical (±64 per domain); all other
    events are recorded exactly. *)

(** {2 Snapshots} *)

type snapshot = {
  counts : int array;  (** indexed by {!Event.index} *)
  enq : Histogram.snapshot;
  deq : Histogram.snapshot;
}

val snapshot : t -> snapshot
val empty_snapshot : snapshot
val merge : snapshot -> snapshot -> snapshot
val get : snapshot -> Event.t -> int
