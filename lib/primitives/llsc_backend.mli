(** The unified LL/SC cell seam.

    Algorithm 1 and Algorithm 2 of the paper are the same ring algorithm
    over different cell primitives; historically the repo kept two
    near-copies of the queue, one per cell contract.  {!S} is the single
    handle-aware contract the merged queue functor
    ([Nbq_core.Evequoz_ring]) is written against; every backend supplies:

    - {b cells} — [ll] reserves and reads, [sc] conditionally stores,
      [release] rolls an unused reservation back, [read] is a linearizable
      unreserved read (the peek path);
    - {b observe/commit} — the one-CAS batch-run extension (PR 3): a
      reservation-free snapshot that [commit] validates by block identity;
    - {b counters} — monotonic Head/Tail with a helping [counter_advance]
      (paper E11-E13/D11-D13) and a batch [counter_publish];
    - {b handles} — per-thread state with the paper's
      register/reregister/deregister lifecycle.  Backends without
      per-operation registry traffic (ideal cells, Blelloch-Wei) make
      [reregister] a literal no-op.

    Implementations: {!Of_cell} (ideal or weak {!CELL}s, trivial unit
    handles), [Nbq_primitives.Llsc_cas.Backend] (the paper's
    Fig. 5 tag-variable protocol), and
    [Nbq_primitives.Llsc_bw.Make_probed] (Blelloch-Wei constant-time
    LL/SC, arXiv:1911.09671). *)

type audit = { registered : int; owned : int; free : int }
(** One racy registry snapshot: handles ever allocated, currently owned
    (including ones abandoned by crashed threads), and recyclable. *)

(** What Algorithm 1 requires of a handle-free LL/SC cell: exactly the
    interface of {!Nbq_primitives.Llsc}, minus [vl] (unused). *)
module type CELL = sig
  type 'a t
  type 'a link

  val make : 'a -> 'a t
  val ll : 'a t -> 'a link
  val value : 'a link -> 'a
  val sc : 'a t -> 'a link -> 'a -> bool
  val get : 'a t -> 'a
end

module type S = sig
  type 'a t
  type 'a registry
  type 'a handle
  type 'a res
  (** A live reservation, from {!ll}; consumed by {!sc} or {!release}. *)

  type 'a observation
  (** A reservation-free snapshot, from {!observe}; consumed by {!commit}. *)

  type counter

  val create_registry : unit -> 'a registry
  val make : 'a -> 'a t
  val register : 'a registry -> 'a handle
  val reregister : 'a handle -> unit
  (** Per-operation prologue (paper RR1-RR5).  No-op on backends without
      per-operation registry traffic. *)

  val deregister : 'a handle -> unit

  val ll : 'a t -> 'a handle -> 'a res
  val res_value : 'a res -> 'a
  val sc : 'a t -> 'a handle -> 'a res -> 'a -> bool
  val release : 'a t -> 'a handle -> 'a res -> unit
  (** Roll back a reservation that will not be [sc]'d (help/retry paths). *)

  val read : 'a t -> 'a handle -> 'a
  (** Linearizable read without leaving a reservation behind. *)

  val reset : 'a t -> 'a -> unit
  (** Exclusive-owner store, no handle needed: the caller guarantees no
      thread holds (or will take) a reservation or observation on the
      cell for the duration — the segment-recycle case, where hazard
      reclamation has proven the ring unreachable.  Implementations must
      keep the backend's identity discipline (a fresh block per mutation
      where observe/commit relies on it) so a stale [commit] from a
      protocol violation still fails rather than corrupting the cell. *)

  val observe : 'a t -> 'a handle -> 'a observation
  val observed_holds : 'a observation -> 'a -> bool
  val observed_get : 'a observation -> 'a
  (** @raise Not_found when the observation caught a competing
      reservation rather than a value. *)

  val commit : 'a t -> 'a handle -> 'a observation -> 'a -> bool

  val make_counter : int -> counter
  val counter_get : counter -> int

  val counter_advance : counter -> int -> unit
  (** Help the counter from [expected] to [expected + 1]; must be a no-op
      if the counter is already past [expected]. *)

  val counter_publish : counter -> from:int -> target:int -> unit
  (** Advance to [target] tolerating helpers: one-shot CAS, then a +1
      walk.  Callers only request targets whose slots they have already
      filled/emptied. *)

  val registered_count : 'a registry -> int
  val owned_count : 'a registry -> int
  val audit : 'a registry -> audit
end

(** Plain-atomic monotonic counters (single-CAS advance), shared by the
    CAS-family backends. *)
module Cas_counter (A : Atomic_intf.ATOMIC) : sig
  type counter = int A.t

  val make_counter : int -> counter
  val counter_get : counter -> int
  val counter_advance : counter -> int -> unit
  val counter_publish : counter -> from:int -> target:int -> unit
end

(** The trivial backend over a handle-free cell: unit handles, empty
    registry, counters as [int Cell.t] ll/sc variables (the advance
    retries until the counter is observed past the expected value, so
    spuriously failing weak cells cannot drop a bump). *)
module Of_cell (Cell : CELL) :
  S
    with type 'a t = 'a Cell.t
     and type 'a handle = unit
     and type 'a registry = unit
     and type counter = int Cell.t
