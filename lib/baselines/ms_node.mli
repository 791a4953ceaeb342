(** Reusable Michael–Scott queue nodes, shared by the MS variants that
    recycle memory through {!Nbq_reclaim.Free_pool} (MS-HP, MS-EBR).

    Nodes carry a unique integer [id] (hazard-pointer scans need a stable,
    sortable identity; OCaml has no stable addresses) and mutable fields so
    that a popped node can be reinitialized before republication.  The value
    field is cleared on retirement to avoid dragging payloads around in the
    pool. *)

type 'a t = {
  id : int;
  mutable value : 'a option;
  next : 'a t option Atomic.t;
}

type 'a allocator
(** A free pool plus the id counter. *)

val allocator : unit -> 'a allocator

val alloc : 'a allocator -> 'a -> 'a t
(** Pop a recycled node (resetting [value] and [next]) or make a fresh one. *)

val dummy : 'a allocator -> 'a t
(** A fresh node with no payload — the initial sentinel of an MS queue. *)

val recycle : 'a allocator -> 'a t -> unit
(** Clear the payload and return the node to the pool.  The caller is
    responsible for having proven the node unreachable (a hazard-pointer
    scan). *)

val id : 'a t -> int

val pool_size : 'a allocator -> int
val allocated : 'a allocator -> int
(** Fresh allocations so far (pool misses). *)
