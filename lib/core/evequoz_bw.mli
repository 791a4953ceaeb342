(** The unified ring (Algorithm 1/Fig. 5 structure) over the Blelloch-Wei
    constant-time LL/SC backend ({!Nbq_primitives.Llsc_bw},
    arXiv:1911.09671).

    Same API surface as {!Evequoz_cas} — explicit-handle core, implicit
    domain-local handles, opt-in batched runs — but the per-operation
    [ReRegister] of the paper's tag-variable protocol is a literal no-op:
    a registered thread's announcement slot protects whatever buffer it is
    reading, and reclamation is an amortized scan.  On the hot path the
    [Tag_reregister] point never fires; registry traffic is zero.

    Space: O(capacity + threads·retire_threshold) buffers; the
    {!Core.space} snapshot exposes the pools for the bounded-space
    tests. *)

(** The algorithm core with its hook points: [Ll_reserve] on LL entry,
    [Slot_swap] between announcement publication and cell revalidation,
    [Ll_reserved] once revalidated, [Sc_attempt] before install CASes,
    [Tag_register]/[Tag_deregister] around (amortized-only) registration,
    [Counter_bump] at the slot-update/counter-bump windows, and the ring's
    [Sc_fail]/[Tail_help]/[Head_help].  [Tag_reregister] never fires. *)
module Make_probed
    (A : Nbq_primitives.Atomic_intf.ATOMIC)
    (H : Nbq_primitives.Hook.S) : sig
  include Evequoz_cas.CORE

  val space : 'a t -> Nbq_primitives.Llsc_bw.space
end

module Make (A : Nbq_primitives.Atomic_intf.ATOMIC) : sig
  include Evequoz_cas.CORE

  val space : 'a t -> Nbq_primitives.Llsc_bw.space
end

(** The real-atomics core, for explicit-handle use and the space tests. *)
module Core : sig
  include Evequoz_cas.CORE

  val space : 'a t -> Nbq_primitives.Llsc_bw.space
end

include Queue_intf.BOUNDED_BATCH

type 'a handle

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

(** The default queue with the run-based batches as its batch entry
    points (what the sharded front-end composes). *)
module Batched : sig
  include Queue_intf.BOUNDED_BATCH with type 'a t = 'a t
end
