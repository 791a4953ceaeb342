(* Unbounded MPMC queue as a lock-free singly linked list of bounded
   Evequoz ring segments (ROADMAP item 1; the construction follows
   Aksenov et al., "Memory-Optimal Non-Blocking Queues", arXiv:2104.15003,
   with the paper's ring as the segment).

   Each segment is an [Evequoz_ring] run in single-lap mode: every slot
   carries at most one item per incarnation (Empty -> Item -> Consumed),
   so a segment that has accepted [capacity] items is *stickily* full — no
   Empty slot ever reappears — and a stale enqueuer can never slip an item
   into a drained segment.  Enqueuers finding the tail segment full
   CAS-append a fresh segment (one allocation amortized over the segment
   capacity; losers return theirs to a free pool); dequeuers that exhaust
   a segment swing the shared tail pointer first (head never passes tail),
   then the head pointer, and the winner hands the old segment to hazard-
   pointer reclamation so a stalled reader never observes a recycled ring.
   Freed segments are recycled (lap base advanced, slots wiped, [next]
   severed) and pooled for reuse, giving the memory bound: live segments
   <= ceil(items / capacity) + 1 plus what stalled readers pin plus the
   bounded pool.

   FIFO across segments: an item enters segment j only after segment j-1
   took its full complement (append happens only after the sticky-full
   observation), so every enqueue into j-1 precedes every enqueue into j;
   within a segment the ring's own counters give FIFO.  Dequeue's [None]
   is linearizable: a non-exhausted head segment with head = tail has no
   successor holding items (appending requires the predecessor full), and
   an exhausted head segment with [next = Nil] was the whole queue.

   The whole structure is a functor over the atomic seam and the PR-8
   [Llsc_backend.S] cell seam, so it instantiates against the
   tag-protocol CAS backend, the Blelloch-Wei backend, and the model
   checker's [Sim.Atomic] with ideal cells. *)

module Atomic_intf = Nbq_primitives.Atomic_intf
module Hook = Nbq_primitives.Hook
module Queue_intf = Nbq_core.Queue_intf

type stats = {
  segs_allocated : int;  (** segments ever created (including the first) *)
  segs_recycled : int;  (** reclamation hand-offs completed (pool refills) *)
  chain_length : int;  (** racy snapshot of live segments head..tail *)
  pool_size : int;  (** recycled segments awaiting reuse *)
  retired_pending : int;  (** retired segments still pinned by a reader *)
}

module Make_backend
    (A : Atomic_intf.ATOMIC)
    (B : Nbq_primitives.Llsc_backend.S)
    (H : Hook.S) =
struct
  module Ring = Nbq_core.Evequoz_ring.Make_probed (B) (H)
  module Hz = Nbq_reclaim.Hazard_cells.Make (A)

  type 'a seg = {
    ring : 'a Ring.t;
    id : int;
    (* Bumped on every recycle, under exclusive ownership; observable by
       tests pinning a segment to prove it was not reused under them. *)
    mutable incarnation : int;
    next : 'a link A.t;
  }

  and 'a link = Nil | Next of 'a seg

  (* Treiber free-list of recycled segments.  Cons cells are fresh
     allocations per push, so the pop CAS has no ABA to fear. *)
  type 'a pstack = Pnil | Pcons of 'a seg * 'a pstack

  type 'a t = {
    seg_capacity : int;
    head_seg : 'a seg A.t;
    tail_seg : 'a seg A.t;
    hz : 'a seg Hz.t;
    pool : 'a pstack A.t;
    free_seg : 'a seg -> unit;
    (* Seeded bug (evequoz-seg-noretire): the head-advance winner frees
       the drained segment immediately, bypassing the hazard scan — a
       stalled reader can then observe the segment's next lap. *)
    direct_free : bool;
    next_id : int A.t;
    segs_allocated : int A.t;
    segs_recycled : int A.t;
  }

  let rec pool_put pool seg =
    let cur = A.get pool in
    if not (A.compare_and_set pool cur (Pcons (seg, cur))) then
      pool_put pool seg

  let rec pool_take pool =
    match A.get pool with
    | Pnil -> None
    | Pcons (seg, rest) as cur ->
        if A.compare_and_set pool cur rest then Some seg else pool_take pool

  let pool_size pool =
    let rec go n = function Pnil -> n | Pcons (_, rest) -> go (n + 1) rest in
    go 0 (A.get pool)

  let create ?(direct_free = false) ?(retire_threshold = 2) ~capacity () =
    let seg_capacity = Queue_intf.round_capacity capacity in
    let pool = A.make Pnil in
    let segs_recycled = A.make 0 in
    (* Runs only under exclusive ownership (the hazard scan has proven no
       reader holds the segment, or — seeded bug — that proof was
       skipped).  Severing [next] before pooling matters: a reused
       segment must not drag its old chain suffix back in when it is
       re-appended. *)
    let free_seg seg =
      Ring.recycle seg.ring;
      seg.incarnation <- seg.incarnation + 1;
      A.set seg.next Nil;
      pool_put pool seg;
      ignore (A.fetch_and_add segs_recycled 1)
    in
    let hz = Hz.create ~threshold:retire_threshold ~free:free_seg () in
    let seg0 =
      {
        ring = Ring.create ~capacity:seg_capacity;
        id = 0;
        incarnation = 0;
        next = A.make Nil;
      }
    in
    {
      seg_capacity;
      head_seg = A.make seg0;
      tail_seg = A.make seg0;
      hz;
      pool;
      free_seg;
      direct_free;
      next_id = A.make 1;
      segs_allocated = A.make 1;
      segs_recycled;
    }

  let capacity t = t.seg_capacity

  let alloc_seg t =
    match pool_take t.pool with
    | Some seg -> seg
    | None ->
        ignore (A.fetch_and_add t.segs_allocated 1);
        {
          ring = Ring.create ~capacity:t.seg_capacity;
          id = A.fetch_and_add t.next_id 1;
          incarnation = 0;
          next = A.make Nil;
        }

  (* --- Handles ----------------------------------------------------------

     A handle is one hazard record plus a cached per-segment ring handle
     per side.  The ring registries are per-segment, so without the cache
     every operation would pay a full Register/Deregister on the tag
     backend; with it the steady state inside one segment is exactly the
     single ring's cost (one ReRegister per op).  A cached handle to a
     recycled ring stays valid — recycling never touches the registry —
     so the cache is keyed on segment identity alone. *)

  type 'a cached = {
    mutable cseg : 'a seg option;
    mutable ch : 'a Ring.handle option;
  }

  type 'a handle = {
    hrec : 'a seg Hz.record;
    (* Owner-local shadow of what [hrec]'s slot holds.  Only the owning
       thread writes the slot, so this plain field is always exact and
       the continuous-protection fast path needs no atomic read. *)
    mutable hseg : 'a seg option;
    enq : 'a cached;
    deq : 'a cached;
  }

  let register t =
    {
      hrec = Hz.acquire t.hz;
      hseg = None;
      enq = { cseg = None; ch = None };
      deq = { cseg = None; ch = None };
    }

  let drop_cache c =
    (match c.ch with Some rh -> Ring.deregister rh | None -> ());
    c.cseg <- None;
    c.ch <- None

  let deregister t h =
    drop_cache h.enq;
    drop_cache h.deq;
    h.hseg <- None;
    Hz.release t.hz h.hrec

  let ring_handle c seg =
    match (c.cseg, c.ch) with
    | Some s, Some rh when s == seg -> rh
    | _ ->
        (match c.ch with Some rh -> Ring.deregister rh | None -> ());
        let rh = Ring.register seg.ring in
        c.cseg <- Some seg;
        c.ch <- Some rh;
        rh

  (* --- Operations -------------------------------------------------------

     Both sides open with the standard hazard handshake: read the shared
     pointer, publish it in the hazard slot, re-read and retry if it
     moved.  A segment that re-validates cannot be freed under us; an
     ABA on the validate (freed, recycled, re-appended, and current
     again) is benign because the segment then legitimately *is* the
     current one, in its new incarnation.

     The handshake has a continuous-protection fast path: successful
     operations leave the hazard published, so when the next operation
     reads the same segment out of the shared pointer — the steady state
     while the chain sits in one segment — protection never lapsed and
     the publish store (a full fence) plus the revalidating re-read are
     both skipped.  [h.hseg] is the owner's plain shadow of the slot
     (only the owner writes it), so the fast path costs one physical
     comparison and no atomic access.  The slot then pins at most one
     live segment per idle handle, which reclamation already tolerates
     (that is what hazards are), and [deregister]/[release] clears
     it. *)

  let covered h ptr seg =
    (match h.hseg with Some s -> s == seg | None -> false)
    ||
    (Hz.protect h.hrec seg;
     h.hseg <- Some seg;
     A.get ptr == seg)

  let rec enqueue_with t h x =
    let seg = A.get t.tail_seg in
    if not (covered h t.tail_seg seg) then enqueue_with t h x
    else if Ring.fill_with seg.ring (ring_handle h.enq seg) x then true
    else begin
      (* Sticky full: this segment will never take another item.  Link a
         successor if none exists, swing the tail, retry there.  The
         hazard still covers [seg], so its [next] cannot be severed by a
         recycle while we touch it; and [next = Nil] implies the shared
         tail has not passed [seg] (it moves only along existing links),
         so a successful link CAS is never on a retired segment. *)
      H.hit Hook.Seg_append;
      (match A.get seg.next with
      | Nil ->
          let ns = alloc_seg t in
          if not (A.compare_and_set seg.next Nil (Next ns)) then
            (* Lost the append race; the fresh segment is untouched. *)
            pool_put t.pool ns
      | Next _ -> ());
      (match A.get seg.next with
      | Next ns -> ignore (A.compare_and_set t.tail_seg seg ns)
      | Nil -> ());
      enqueue_with t h x
    end

  let rec dequeue_with t h =
    let seg = A.get t.head_seg in
    if not (covered h t.head_seg seg) then dequeue_with t h
    else
      match Ring.take_with seg.ring (ring_handle h.deq seg) with
      | Some _ as r -> r
      | None ->
          if Ring.lap_exhausted seg.ring then (
            match A.get seg.next with
            | Nil ->
                (* Exhausted and last: at the instant [next] read [Nil]
                   every enqueued item had been consumed — empty. *)
                None
            | Next ns ->
                H.hit Hook.Seg_retire;
                (* Tail first: head must never pass tail, or enqueuers
                   could be steered onto a retired segment. *)
                ignore (A.compare_and_set t.tail_seg seg ns);
                if A.compare_and_set t.head_seg seg ns then begin
                  (* We unlinked [seg]; hand it to reclamation.  Our own
                     hazard is cleared first so it cannot pin it. *)
                  Hz.clear h.hrec;
                  h.hseg <- None;
                  if t.direct_free then t.free_seg seg
                  else Hz.retire t.hz h.hrec seg
                end;
                dequeue_with t h)
          else
            (* Not exhausted: the ring's own head = tail read was the
               empty witness (no successor can hold items while this
               segment is unfilled). *)
            None

  (* Racy chain walk; exact when quiescent.  Termination: a freed
     segment's [next] is [Nil], and a momentary cycle cannot exist (a
     segment is severed before it can be re-appended). *)
  let length t =
    let rec go acc seg =
      let acc = acc + Ring.length seg.ring in
      match A.get seg.next with Nil -> acc | Next ns -> go acc ns
    in
    go 0 (A.get t.head_seg)

  let chain_length t =
    let rec go n seg =
      match A.get seg.next with Nil -> n | Next ns -> go (n + 1) ns
    in
    go 1 (A.get t.head_seg)

  let stats t =
    {
      segs_allocated = A.get t.segs_allocated;
      segs_recycled = A.get t.segs_recycled;
      chain_length = chain_length t;
      pool_size = pool_size t.pool;
      retired_pending = Hz.pending t.hz;
    }

  (* --- Test hooks ------------------------------------------------------- *)

  (* Pin the current head segment through the handle's hazard slot (the
     same protect/validate handshake the operations use) so a test can
     prove reclamation never recycles it while held. *)
  let rec pin_head t h =
    let seg = A.get t.head_seg in
    Hz.protect h.hrec seg;
    h.hseg <- Some seg;
    if A.get t.head_seg != seg then pin_head t h else seg

  let unpin h =
    Hz.clear h.hrec;
    h.hseg <- None
  let seg_incarnation seg = seg.incarnation
  let seg_id seg = seg.id
  let seg_protected t seg = Hz.protected t.hz seg
end

(* --- Backend conveniences ------------------------------------------------ *)

(* The paper's Fig. 5 tag-variable CAS protocol as the cell seam. *)
module Make_probed_cas (A : Atomic_intf.ATOMIC) (H : Hook.S) =
  Make_backend (A) (Nbq_primitives.Llsc_cas.Backend (A) (H)) (H)

(* Blelloch-Wei constant-time LL/SC as the cell seam. *)
module Make_probed_bw (A : Atomic_intf.ATOMIC) (H : Hook.S) =
  Make_backend (A) (Nbq_primitives.Llsc_bw.Make_probed (A) (H)) (H)

(* --- The domain-local implicit-handle layer, over any core --------------- *)

module type CORE = sig
  type 'a t
  type 'a handle

  val create :
    ?direct_free:bool -> ?retire_threshold:int -> capacity:int -> unit -> 'a t

  val register : 'a t -> 'a handle
  val deregister : 'a t -> 'a handle -> unit
  val enqueue_with : 'a t -> 'a handle -> 'a -> bool
  val dequeue_with : 'a t -> 'a handle -> 'a option
  val length : 'a t -> int
end

(* Mirrors [Evequoz_cas.With_implicit_handles], which cannot be reused
   directly: its CORE contract demands the single ring's audit and
   head/tail indices, none of which a segment chain has.  The result
   satisfies [Queue_intf.CONC] structurally (unbounded: [try_enqueue]
   never returns [false]). *)
module Conc (N : sig
  val name : string
end)
(Core : CORE) =
struct
  let name = N.name
  (* Native batches: they amortize the DLS handle lookup over the run. *)
  let caps = Queue_intf.Caps.(with_batch unbounded)
  let bounded = false

  type 'a t = {
    core : 'a Core.t;
    implicit : 'a Core.handle option ref Domain.DLS.key;
  }

  let make ?direct_free ?retire_threshold ~capacity () =
    {
      core = Core.create ?direct_free ?retire_threshold ~capacity ();
      implicit = Domain.DLS.new_key (fun () -> ref None);
    }

  let create ~capacity = make ~capacity ()
  let core t = t.core

  let implicit_handle t =
    let cache = Domain.DLS.get t.implicit in
    match !cache with
    | Some h -> h
    | None ->
        let h = Core.register t.core in
        cache := Some h;
        h

  let deregister_domain t =
    let cache = Domain.DLS.get t.implicit in
    match !cache with
    | Some h ->
        Core.deregister t.core h;
        cache := None
    | None -> ()

  let try_enqueue t x = Core.enqueue_with t.core (implicit_handle t) x
  let try_dequeue t = Core.dequeue_with t.core (implicit_handle t)

  (* Batches resolve the DLS handle cache once; each item still runs the
     full single-item protocol, so linearization is that of a loop of
     singles. *)
  let try_enqueue_batch t items =
    let n = Array.length items in
    if n = 0 then 0
    else begin
      let h = implicit_handle t in
      let i = ref 0 in
      while
        !i < n && Core.enqueue_with t.core h (Array.unsafe_get items !i)
      do
        incr i
      done;
      !i
    end

  let try_dequeue_batch t k =
    if k <= 0 then []
    else begin
      let h = implicit_handle t in
      let rec go acc left =
        if left <= 0 then List.rev acc
        else
          match Core.dequeue_with t.core h with
          | Some x -> go (x :: acc) (left - 1)
          | None -> List.rev acc
      in
      go [] k
    end

  let length t = Core.length t.core
end

(* --- Default instantiations: real atomics, no-op hook --------------------- *)

module Cas_core = Make_probed_cas (Atomic_intf.Real) (Hook.Noop)

module Cas =
  Conc
    (struct
      let name = "evequoz-seg"
    end)
    (Cas_core)

module Bw_core = Make_probed_bw (Atomic_intf.Real) (Hook.Noop)

module Bw =
  Conc
    (struct
      let name = "evequoz-seg-bw"
    end)
    (Bw_core)
