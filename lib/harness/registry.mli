(** Every queue implementation in the repository as a first-class value.

    The experiments iterate over algorithms; this registry erases the
    per-implementation type ['a t] by fixing the payload to a freshly
    allocated record per enqueue — mirroring the paper's workload, where "a
    node allocation immediately precedes each enqueue operation". *)

type payload = { tag : int }
(** One queued item; always heap-allocated fresh by the workload. *)

type instance = {
  enqueue : payload -> bool;
  dequeue : unit -> payload option;
  enqueue_batch : payload array -> int;
      (** Items in array order, stopping at the first full; returns the
          accepted-prefix length. *)
  dequeue_batch : int -> payload list;
      (** Up to [k] items, stopping at the first empty. *)
  length : unit -> int;
      (** Number of queued items.  On a sharded instance this is a
          {e non-linearizable} sum-of-shards snapshot: each shard is read
          at a different instant, so with [d] operations in flight the
          result can differ from any linearized length by up to [d]
          (exact when quiescent).  Single-ring instances report their
          implementation's own (linearizable-ish) length. *)
  enqueue_until : deadline:float -> payload -> bool;
      (** Blocking (parked, via [Nbq_wait]) enqueue with an absolute
          [Unix.gettimeofday] deadline; [false] means timeout.  Always
          makes at least one attempt; never parks once the deadline has
          passed; resolution ~1ms.  Sharded instances park on their home
          shard's eventcount and wake with the home-first sweep
          ({!Nbq_scale.Sharded.waitable}); all others use a generic
          eventcount pair.  Wakes flow between [*_until] callers only —
          the plain closures above stay on the unwrapped hot path, so
          mixing plain and [*_until] callers falls back on the wait
          layer's bounded-park backstop (tens of ms, never a hang). *)
  dequeue_until : deadline:float -> payload option;
      (** Blocking dequeue with an absolute deadline; [None] means
          timeout. *)
}
(** A live queue, usable from any domain. *)

type family =
  | Array_based  (** circular-array queues *)
  | Link_based   (** Michael–Scott family *)
  | Lock_based
  | Sequential   (** no synchronization; single-domain only *)

type impl = {
  name : string;
  family : family;
  bounded : bool;
  relaxed_fifo : bool;
      (** The implementation keeps items conserved and each shard FIFO but
          relaxes {e global} FIFO order and single-queue linearizability
          (the sharded front-ends).  The battery runs its relaxed suite
          instead of the exact FIFO/linearizability cases; see
          DESIGN.md §8. *)
  create : capacity:int -> instance;
  create_probed : metrics:Nbq_obs.Metrics.t -> capacity:int -> instance;
      (** Like [create] but with the queue feeding the metrics hub: the
          queue is rebuilt with the hub's hook ([Nbq_obs.Metrics.probe])
          threaded through its functor seams (for families that have
          them) and its wait layer, and wrapped in the shallow
          retry/latency layer ([Nbq_obs.Instrumented.Make]); {!custom}
          impls fall back to [create]. *)
  create_traced :
    metrics:Nbq_obs.Metrics.t option ->
    tracer:Nbq_trace.Recorder.t ->
    capacity:int ->
    instance;
      (** Like [create_probed] but additionally feeding the flight
          recorder ([Nbq_trace]): sampled operation spans around every
          public operation and, in full mode, the recorder's hook composed
          with the metrics hook inside the algorithm
          ([Nbq_trace.Instrument.hook]).  Omitting [metrics] trades the
          counter hub away for a pure trace. *)
}

(** One descriptor per algorithm family; {!register_family} derives every
    registry row it publishes.  Adding an algorithm is one {!Family.v}
    entry in the internal family list — the derived rows (base, shards,
    blocking) come for free. *)
module Family : sig
  type builder =
    (module Nbq_primitives.Hook.S) -> (module Nbq_core.Queue_intf.CONC)
  (** Build the queue with a hook threaded through its functor seams.
      Families without seams ignore the hook. *)

  type t = {
    name : string;
    classification : family;
    build : builder;
    conc : (module Nbq_core.Queue_intf.CONC);
        (** [build Hook.Noop], built once: what [create] instantiates. *)
    shards : int list;
        (** Derived ["<name>-shard<N>"] rows, one per element. *)
    shard_build : builder option;
        (** The queue behind each shard of those rows, when it differs
            from [build] (the evequoz-cas ring with its batch runs). *)
    blocking : bool;
        (** Derive a ["<name>-blocking"] row: plain ops are
            [Queue_intf.Blocking_hooked]'s budget-0 (wake-issuing)
            attempts, [*_until] ops its park-based paths. *)
  }

  val v :
    ?classification:family ->
    ?shards:int list ->
    ?shard_build:builder ->
    ?blocking:bool ->
    string ->
    builder ->
    t
  (** [v name build] with [classification] defaulting to [Array_based]
      and no derived rows. *)
end

val register_family : Family.t -> impl list
(** The rows a family publishes: base, then one per [shards] entry, then
    the blocking row if requested.  Every row's three creation paths come
    from one builder: [create] instantiates [conc], [create_probed] and
    [create_traced] call [build] with the observation's hook and wrap the
    result in the metrics and span layers.  Row names follow the registry's
    conventions (["<name>"], ["<name>-shard<N>"], ["<name>-blocking"]). *)

val families : Family.t list
(** Every registered family, in registration order. *)

val all : impl list
(** Every registered implementation (concurrent ones first). *)

val concurrent : impl list
(** [all] minus the sequential ring. *)

val find : string -> impl
(** Lookup by [name]; raises [Invalid_argument] with a message listing the
    valid names. *)

val names : unit -> string list

val of_conc :
  name:string -> family:family -> (module Nbq_core.Queue_intf.CONC) -> impl
(** Wrap any {!Nbq_core.Queue_intf.CONC} implementation as a plain
    (strict FIFO) row. *)

val custom :
  name:string -> family:family -> (capacity:int -> instance) -> impl
(** Build an unbounded, strict-FIFO impl from a bare instance constructor
    (ad-hoc experiment queues, e.g. the ablation presets).
    [create_probed] and [create_traced] degrade to the uninstrumented
    [create]. *)

val basic_instance :
  ?probe:(module Nbq_primitives.Hook.S) ->
  enqueue:(payload -> bool) ->
  dequeue:(unit -> payload option) ->
  length:(unit -> int) ->
  unit ->
  instance
(** Build an {!instance} from single-item operations; the batch fields
    loop over them, the [*_until] fields park on a fresh eventcount pair.
    [probe] is those eventcounts' hook ([Wait_park] / [Wait_wake] /
    [Wait_cancel] and the wait windows), e.g. [Nbq_obs.Metrics.probe]. *)

val sharded_evequoz_cas : shards:int -> impl
(** The native sharded composition over the paper's CAS ring with its
    amortized batch runs — the same construction as the registered
    ["evequoz-cas-shard4"/"evequoz-cas-shard8"] rows, at any shard count.
    One closure layer cheaper than {!sharded} applied to the
    ["evequoz-cas"] row, so sweeps should prefer it. *)

val sharded : shards:int -> impl -> impl
(** [sharded ~shards impl] is [impl] behind an [Nbq_scale.Sharded]
    facade: [shards] independent instances of [impl] (each sized
    [capacity / shards], rounded up) with per-domain affinity and
    work-stealing.  The result is named ["<name>-shard<N>"] and marked
    [relaxed_fifo].  Probed (traced) creation shards probed (traced) inner
    instances, so inner-queue events and spans still reach the hub and
    the recorder, and wires the same hook into the sharding layer (steals)
    and its eventcounts. *)
