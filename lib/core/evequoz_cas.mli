(** Algorithm 2: the pointer-wide-CAS non-blocking circular-array FIFO
    (paper, Fig. 5).

    Array slots are {!Nbq_primitives.Llsc_cas} cells — single atomic words
    holding either an item, the empty marker, or a reserving thread's tag —
    while [Head] and [Tail] are plain monotonic atomic counters advanced with
    CAS.  Each operation (paper): read the counter, simulated-LL the slot it
    designates, revalidate the counter, then either store-conditional the new
    content and advance the counter, or roll the reservation back and help
    the lagging counter.

    The queue is population-oblivious; space consumption is
    O(capacity + maximum number of threads that ever accessed the queue
    simultaneously) — the tag-variable registry grows to the high-water mark
    of concurrency and is recycled, never freed.

    Two ways to use it:
    - {b implicit handles} — the plain {!Queue_intf.BOUNDED} interface;
      each domain's tag handle is created on first use and cached
      domain-locally.  A domain that stops using the queue without
      {!deregister_domain} keeps its tag variable owned (the paper accepts
      the same leak when a thread dies before [Deregister]).
    - {b explicit handles} — {!register} / {!enqueue} / {!dequeue} /
      {!deregister}, mirroring the paper's signatures; useful when a domain
      multiplexes many logical threads.

    Both entry points perform the paper-mandated [ReRegister] at the start of
    every operation. *)

(** What the algorithm core provides: the explicit-handle API.  The
    domain-local convenience layer ({!With_implicit_handles}) builds the
    {!Queue_intf.BOUNDED} view on top of any core. *)
module type CORE = sig
  type 'a t
  type 'a handle

  val create : capacity:int -> 'a t
  val capacity : 'a t -> int
  val register : 'a t -> 'a handle
  val deregister : 'a handle -> unit
  val enqueue_with : 'a t -> 'a handle -> 'a -> bool
  val dequeue_with : 'a t -> 'a handle -> 'a option
  val peek_with : 'a t -> 'a handle -> 'a option

  val enqueue_batch_with : 'a t -> 'a handle -> 'a array -> int
  (** Batch run (extension, not in the paper): insert a prefix of the array
      as {e one} operation — one [ReRegister], then consecutive slots filled
      with the usual ll/sc reservation protocol and published with a single
      [Tail] CAS per clean run.  Any interference (a competing enqueuer's
      item landing inside the run, a lost store-conditional) publishes the
      clean prefix and falls back to the paper's per-item loop, so under
      contention this degrades to exactly a loop of singles.  Returns the
      number of items accepted (stops at the first "full"). *)

  val dequeue_batch_with : 'a t -> 'a handle -> int -> 'a list
  (** Batch run: remove up to [k] items as one operation — consecutive
      slots drained through ll/sc and a single [Head] CAS per clean run,
      with the same paper-path fallback.  Result preserves queue order. *)

  val length : 'a t -> int
  val registry_size : 'a t -> int

  val owned_count : 'a t -> int
  (** Tag variables whose reference count is currently non-zero — the
      live-reservation footprint.  Racy O(registry) scan, for tests. *)

  val audit : 'a t -> Nbq_primitives.Llsc_cas.audit
  (** One racy snapshot of the tag registry: ever-allocated, currently
      owned (including variables abandoned by crashed threads) and
      recyclable counts.  The torture harness's no-unbounded-growth
      oracle. *)

  val head_index : 'a t -> int
  val tail_index : 'a t -> int
end

(** The algorithm core, parameterized over the atomics (for the model
    checker) and a hook.  Points: [Counter_bump] between a slot update (or
    the decision to help) and the Head/Tail CAS it mandates (paper
    E11-E13 / D11-D13: a thread frozen there forces everyone else into the
    helping path), [Sc_fail] on failed update-path store-conditionals,
    [Tail_help]/[Head_help] when helping a lagging counter, plus the
    [Ll_reserve] / [Slot_swap] / [Ll_reserved] / [Sc_attempt] / tag
    registry points hit inside {!Nbq_primitives.Llsc_cas.Make_probed}. *)
module Make_probed
    (A : Nbq_primitives.Atomic_intf.ATOMIC)
    (H : Nbq_primitives.Hook.S) : CORE

(** [Make_probed] with {!Nbq_primitives.Hook.Noop}: the uninstrumented
    core. *)
module Make (A : Nbq_primitives.Atomic_intf.ATOMIC) : CORE

(** The domain-local implicit-handle layer over any core: caches one handle
    per domain in DLS and exposes the plain bounded-queue interface. *)
module With_implicit_handles (Core : CORE) : sig
  include Queue_intf.BOUNDED_BATCH

  type 'a handle = 'a Core.handle

  val register : 'a t -> 'a handle
  val deregister : 'a handle -> unit
  val enqueue_with : 'a t -> 'a handle -> 'a -> bool
  val dequeue_with : 'a t -> 'a handle -> 'a option
  val try_peek : 'a t -> 'a option
  val peek_with : 'a t -> 'a handle -> 'a option
  val deregister_domain : 'a t -> unit
  val registry_size : 'a t -> int
  val owned_count : 'a t -> int
  val audit : 'a t -> Nbq_primitives.Llsc_cas.audit
  val head_index : 'a t -> int
  val tail_index : 'a t -> int

  val try_enqueue_batch_runs : 'a t -> 'a array -> int
  val try_dequeue_batch_runs : 'a t -> int -> 'a list
  (** {!CORE.enqueue_batch_with} / {!CORE.dequeue_batch_with} through the
      calling domain's cached handle.  Same conservation and per-queue FIFO
      guarantees as the default loop-of-singles batches, but full/empty
      reports may be conservative for the whole run while a counter lags —
      which is why the default [try_enqueue_batch]/[try_dequeue_batch]
      remain literal loops of singles and only opt-in compositions (the
      sharded front-end, where a spurious "full" just spills to the next
      shard) use these. *)
end

include Queue_intf.BOUNDED_BATCH
(** The batch entry points resolve the calling domain's cached handle once
    per batch instead of once per item; each item still performs the
    paper-mandated [ReRegister], so semantics and the registry space bound
    are those of a loop of singles. *)

type 'a handle
(** A registered tag variable for one logical thread (paper's [LLSCvar *]). *)

val register : 'a t -> 'a handle
(** Acquire a handle: recycle a free tag variable or extend the registry. *)

val deregister : 'a handle -> unit
(** Return the handle's tag variable to the registry.  The handle must not
    be used afterwards. *)

val enqueue_with : 'a t -> 'a handle -> 'a -> bool
(** [try_enqueue] through an explicit handle. *)

val dequeue_with : 'a t -> 'a handle -> 'a option
(** [try_dequeue] through an explicit handle. *)

val try_peek : 'a t -> 'a option
(** Observe the front item without removing it ([None] when empty).
    Linearizable; an extension beyond the paper's API. *)

val peek_with : 'a t -> 'a handle -> 'a option
(** [try_peek] through an explicit handle. *)

val deregister_domain : 'a t -> unit
(** Release the calling domain's implicit handle, if any was created. *)

val registry_size : 'a t -> int
(** Number of tag variables ever allocated for this queue — the space
    adaptivity metric of the paper (tracks the high-water mark of concurrent
    threads, not operation count). *)

val owned_count : 'a t -> int
(** Number of tag variables with a non-zero reference count right now; a
    rolled-back reservation (e.g. {!try_peek}) must leave this at the number
    of registered handles.  Racy O(registry) scan, for tests. *)

val audit : 'a t -> Nbq_primitives.Llsc_cas.audit
(** {!registry_size} and {!owned_count} in one scan, plus the recyclable
    remainder.  For registry-leak assertions in tests and torture runs. *)

val head_index : 'a t -> int
val tail_index : 'a t -> int
(** Raw monotonic counters, for tests and scenario replays. *)

val try_enqueue_batch_runs : 'a t -> 'a array -> int
val try_dequeue_batch_runs : 'a t -> int -> 'a list
(** The amortized batch runs on the default queue (see
    {!With_implicit_handles.try_enqueue_batch_runs}). *)

(** The default queue with the run-based batches as its
    [try_enqueue_batch] / [try_dequeue_batch].  Shares ['a t] with the
    top-level entry points, so singles and batch runs mix freely on one
    queue.  This is what the sharded front-end composes. *)
module Batched : sig
  include Queue_intf.BOUNDED_BATCH with type 'a t = 'a t
end
