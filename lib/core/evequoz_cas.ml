module Atomic_intf = Nbq_primitives.Atomic_intf
module Hook = Nbq_primitives.Hook

(* The algorithm core (paper Fig. 5, right column): the unified ring
   functor over the tag-variable CAS backend, over any atomics and any
   hook (Noop by default; the observability, trace and torture layers
   supply counting, recording and stalling ones). *)
module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  module Backend = Nbq_primitives.Llsc_cas.Backend (A) (H)
  include Evequoz_ring.Make_probed (Backend) (H)
end

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

(* --- The domain-local implicit-handle layer, over any core --- *)

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
  val dequeue_batch_with : 'a t -> 'a handle -> int -> 'a list
  val length : 'a t -> int
  val registry_size : 'a t -> int
  val owned_count : 'a t -> int
  val audit : 'a t -> Nbq_primitives.Llsc_cas.audit
  val head_index : 'a t -> int
  val tail_index : 'a t -> int
end

module With_implicit_handles (Core : CORE) = struct
  let name = "evequoz-cas"

  type 'a handle = 'a Core.handle

  type 'a t = {
    core : 'a Core.t;
    (* Implicit per-domain handle cache.  [option ref] so that
       [deregister_domain] can drop it. *)
    implicit : 'a handle option ref Domain.DLS.key;
  }

  let create ~capacity =
    {
      core = Core.create ~capacity;
      implicit = Domain.DLS.new_key (fun () -> ref None);
    }

  let capacity t = Core.capacity t.core
  let register t = Core.register t.core
  let deregister = Core.deregister
  let enqueue_with t h x = Core.enqueue_with t.core h x
  let dequeue_with t h = Core.dequeue_with t.core h
  let registry_size t = Core.registry_size t.core
  let owned_count t = Core.owned_count t.core
  let audit t = Core.audit t.core
  let head_index t = Core.head_index t.core
  let tail_index t = Core.tail_index t.core
  let length t = Core.length t.core

  let implicit_handle t =
    let cache = Domain.DLS.get t.implicit in
    match !cache with
    | Some h -> h
    | None ->
        let h = register t in
        cache := Some h;
        h

  let deregister_domain t =
    let cache = Domain.DLS.get t.implicit in
    match !cache with
    | Some h ->
        deregister h;
        cache := None
    | None -> ()

  let peek_with t h = Core.peek_with t.core h

  let try_enqueue t x = enqueue_with t (implicit_handle t) x

  let try_dequeue t = dequeue_with t (implicit_handle t)

  let try_peek t = peek_with t (implicit_handle t)

  (* Native batches: resolve the DLS handle cache once for the whole batch
     instead of once per item.  Each item still goes through [enqueue_with]
     / [dequeue_with] (including the per-operation ReRegister the paper
     mandates), so linearization and the registry space bound are exactly
     those of a loop of singles. *)
  let try_enqueue_batch t items =
    if Array.length items = 0 then 0
    else
      Queue_intf.enqueue_batch_of_singles enqueue_with t (implicit_handle t)
        items

  let try_dequeue_batch t k =
    if k <= 0 then []
    else
      Queue_intf.dequeue_batch_of_singles dequeue_with t (implicit_handle t) k

  (* The run-based batches (one ReRegister and one counter CAS per run,
     paper path on interference).  Kept off [try_enqueue_batch] /
     [try_dequeue_batch] so the default rows stay a literal loop of
     singles; the sharded front-end opts in via [Batched]. *)
  let try_enqueue_batch_runs t items =
    if Array.length items = 0 then 0
    else Core.enqueue_batch_with t.core (implicit_handle t) items

  let try_dequeue_batch_runs t k =
    if k <= 0 then [] else Core.dequeue_batch_with t.core (implicit_handle t) k
end

(* --- Default instantiation with real atomics and the no-op hook --- *)

module Core = Make (Atomic_intf.Real)

module Impl = With_implicit_handles (Core)
include Impl

(* The same queue with the amortized run-based batches swapped in.  Shares
   ['a t] with the plain entry points, so singles and batch runs can be
   mixed on one queue. *)
module Batched = struct
  include Impl

  let try_enqueue_batch = try_enqueue_batch_runs
  let try_dequeue_batch = try_dequeue_batch_runs
end
