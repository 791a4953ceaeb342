(** A sharded multi-ring front-end: N independent FIFO rings behind one
    queue facade, with per-domain shard affinity and work-stealing
    fallback.

    Scaling rationale (ROADMAP "production-scale" direction): every
    operation on a single Evéquoz ring contends on one [Head]/[Tail]
    counter pair, so throughput flattens past a few domains.  Sharding
    gives each domain a {e home} ring — its domain id modulo the shard
    count — so with [shards >= domains] the common case touches state no
    other domain writes.  Only when the home shard reports full (enqueue)
    or empty (dequeue) does the operation sweep the other shards in
    cyclic order, completing on the first that accepts; each such
    foreign-shard completion counts as one {e steal}
    (the [Shard_stolen] hook point, {!Nbq_obs.Event.Shard_steal}).

    {b What is kept and what is relaxed.}  Each shard is FIFO (it is an
    unmodified inner queue), items are conserved, and every operation is
    non-blocking as long as the inner queue is.  {e Global} FIFO order is
    relaxed: two items enqueued to different shards can dequeue in either
    order, and a sweep can report "empty" while another domain's home
    shard momentarily holds items ([false empty]); the facade is
    therefore {e not} linearizable to a single FIFO — see DESIGN.md §8.
    Progress does not depend on steals completing: a thread stalled
    mid-sweep (the [Shard_steal] hook window) holds no
    reservation on any ring.

    Batched operations ([try_enqueue_batch] / [try_dequeue_batch]) move k
    items per call, landing whole batches on the home shard and spilling
    only remainders to foreign shards — amortizing affinity lookups,
    counter traffic and steal sweeps across the batch. *)

(** One shard's operations as closures — the value-level core, usable over
    CONC modules, [Registry] instances, or fault-injected rings alike. *)
type 'a shard_ops = {
  enq : 'a -> bool;
  deq : unit -> 'a option;
  len : unit -> int;
  enq_batch : 'a array -> int;
  deq_batch : int -> 'a list;
}

type 'a t

val ops :
  enq:('a -> bool) ->
  deq:(unit -> 'a option) ->
  len:(unit -> int) ->
  enq_batch:('a array -> int) ->
  deq_batch:(int -> 'a list) ->
  'a shard_ops

val ops_of_singles :
  enq:('a -> bool) ->
  deq:(unit -> 'a option) ->
  len:(unit -> int) ->
  'a shard_ops
(** Build the record from single-item operations; the batch fields loop. *)

val create :
  ?hook:(module Nbq_primitives.Hook.S) ->
  ?home:(unit -> int) ->
  shards:int ->
  (int -> 'a shard_ops) ->
  'a t
(** [create ~shards mk] builds a facade over [mk 0 .. mk (shards-1)].
    Each record is cache-line padded ({!Nbq_obs.Padding}).  [hook]
    receives [Shard_stolen] once per foreign-shard completion (after the
    internal steal counter bump) and [Shard_steal] after a home-shard
    failure, {e before} the first foreign shard is probed — the steal
    window.

    [home] overrides the affinity function (default: calling domain's id
    modulo [shards]; results are clamped into range).  Under the default,
    a paired enqueue-then-dequeue workload never steals — each caller's
    own item sits in its home shard — so tests and adversarial torture
    schedules use [home] (e.g. a round-robin counter) to force traffic
    across shard boundaries and open the steal window on demand.  Raises
    [Invalid_argument] when [shards < 1]. *)

val shard_count : 'a t -> int

val steal_count : 'a t -> int
(** Foreign-shard completions so far (exact when quiescent; sharded
    per-domain counter). *)

val try_enqueue : 'a t -> 'a -> bool
(** Home shard first, then sweep.  [false] means {e every} shard reported
    full at some instant during the sweep (not necessarily the same
    instant). *)

val try_dequeue : 'a t -> 'a option
(** Home shard first, then sweep.  [None] is a {e false-empty}-prone
    verdict: each shard was empty at its own probe instant. *)

val try_dequeue_with_source : 'a t -> (int * 'a) option
(** [try_dequeue] plus the index of the shard that served the item, so
    tests can assert per-shard FIFO order. *)

val try_enqueue_batch : 'a t -> 'a array -> int
(** Items in array order: home shard takes the longest prefix it can, each
    foreign shard the next remainder.  Returns the number accepted.  The
    accepted prefix lands contiguously per shard, so per-producer order is
    preserved {e within} every shard. *)

val try_dequeue_batch : 'a t -> int -> 'a list
(** Up to [k] items: home shard first, remainders swept from foreign
    shards.  The result concatenates per-shard FIFO runs; cross-shard
    order is unspecified. *)

val length : 'a t -> int
(** Sum of per-shard lengths, each read at a different instant — a
    {e non-linearizable} snapshot.  With [d] operations in flight the
    result is within [d] of any linearized length; exact when
    quiescent. *)

val shard_length : 'a t -> int -> int
(** One shard's own (inner-queue) length. *)

(** {2 Functor veneer over any CONC implementation} *)

module type SHARDS = sig
  val shards : int
end

(** Sharded facade as a {!Nbq_core.Queue_intf.CONC} module, with the hook
    wired to the sharding layer (the inner queue keeps its own hook, if
    any).  [name] is [Q.name ^ "-shard" ^ N]; [create ~capacity]
    splits the capacity evenly across shards (rounded up, then to each
    ring's power of two), so aggregate capacity is at least [capacity]. *)
module Make_probed
    (N : SHARDS)
    (H : Nbq_primitives.Hook.S)
    (Q : Nbq_core.Queue_intf.CONC) :
  Nbq_core.Queue_intf.CONC with type 'a t = 'a t

module Make (N : SHARDS) (Q : Nbq_core.Queue_intf.CONC) :
  Nbq_core.Queue_intf.CONC with type 'a t = 'a t
(** The plain composition: the no-op hook.  The result's ['a t] is
    the value-level {!t}, so {!steal_count}, {!try_dequeue_with_source}
    and {!shard_length} work on functor-made queues too. *)

module Evequoz_cas (N : SHARDS) :
  Nbq_core.Queue_intf.CONC with type 'a t = 'a t
(** [Make (N)] over the paper's CAS queue — the default composition. *)

(** {2 Parked blocking over the facade}

    The facade's analogue of [Nbq_core.Queue_intf.Blocking]: eventcounts
    shard like the rings do.  A consumer parks on its {e home} shard's
    "became non-empty" eventcount; a producer's wake {e sweeps} the
    eventcount array in the same cyclic home-first order as the steal
    sweep, stopping at the first delivered wake.  In the
    affinity-respecting common case a wake touches only the home
    eventcount (one atomic load when nobody waits); cross-shard traffic
    finds parked waiters exactly where stealing finds their items.  A
    parked waiter's re-checked condition is the {e full} facade operation
    (home probe plus steal sweep), so a wake on any shard can satisfy an
    item landed on any other; the wait layer's bounded-park backstop
    covers the remaining races, as everywhere else (DESIGN.md §10). *)

type 'a waitable

val waitable :
  ?hook:(module Nbq_primitives.Hook.S) ->
  'a t ->
  'a waitable
(** Attach per-shard eventcount pairs to a facade.  The optional hook is
    passed to every [Nbq_wait.Eventcount.create] (see that module).  Operations issued directly
    on the underlying {!t} bypass the wakes — parked peers then rely on
    the backstop, waking within tens of milliseconds rather than
    promptly. *)

val enqueue_until : 'a waitable -> deadline:float -> 'a -> bool
(** Spin briefly, then park on the home shard's not-full eventcount until
    some shard accepts; wakes one not-empty waiter (sweeping) on success.
    The deadline is an absolute [Unix.gettimeofday] time (resolution:
    the wait layer's ~1ms tick; [infinity] for none); [false] on timeout.
    Always makes at least one attempt; never parks once the deadline has
    passed.  A call that does not park allocates nothing beyond what the
    shard operations do. *)

val dequeue_until : 'a waitable -> deadline:float -> 'a option
(** Spin briefly, then park on the home shard's not-empty eventcount until
    some shard yields an item; wakes one not-full waiter on success.  The
    deadline is as {!enqueue_until}'s; [None] on timeout.
    The [Some] is the one the facade's [try_dequeue] built. *)
