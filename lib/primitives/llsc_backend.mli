(** The unified LL/SC cell seam.

    Algorithm 1 and Algorithm 2 of the paper are the same ring algorithm
    over different cell primitives; historically the repo kept two
    near-copies of the queue, one per cell contract.  {!S} is the single
    handle-aware contract the merged queue functor
    ([Nbq_core.Evequoz_ring]) is written against; every backend supplies:

    - {b cells} — [ll] reserves and reads, [sc] conditionally stores,
      [release] rolls an unused reservation back, [read] is a linearizable
      unreserved read (the peek path);
    - {b observe/commit} — the one-CAS batch-run extension: a
      reservation-free snapshot that [commit] validates by block identity;
    - {b markers} — a backend whose cells hold reservation markers stores
      them in the caller's own value type: the caller supplies the
      constructor that wraps a marker and the test that finds one
      ({!marking}), as the paper's [var ^ 1] tags a pointer's low bit;
    - {b counters} — monotonic Head/Tail ({!COUNTER}), plain CAS'd ints
      ({!Cas_counter}) on every backend except weak cells, which retry
      past spurious failures;
    - {b handles} — per-thread state with the paper's
      register/reregister/deregister lifecycle.  A backend without
      per-operation registry traffic (ideal cells) makes [reregister] a
      literal no-op.

    Implementations: {!Of_cell} (ideal, fresh-store or weak {!CELL}s,
    trivial unit handles) and [Nbq_primitives.Llsc_cas.Backend] (the
    paper's Fig. 5 tag-variable protocol). *)

type audit = { registered : int; owned : int; free : int }
(** One racy registry snapshot: handles ever allocated, currently owned
    (including ones abandoned by crashed threads), and recyclable. *)

(** How the values a cell stores carry a backend's reservation markers
    ['m]: the caller's side of the paper's pointer tag.  [mark] wraps a
    marker as a storable value (the paper's [var ^ 1]); [mark_of v none]
    is the marker [v] carries, or [none] when [v] is a value (the low-bit
    test), and must not allocate; [blank] is any value, used only to
    initialise a fresh tag variable's placeholder, which nobody reads
    before its owner's first [ll] writes it. *)
type ('v, 'm) marking = { mark : 'm -> 'v; mark_of : 'v -> 'm -> 'm; blank : 'v }

(** Monotonic Head/Tail counters: a helping [counter_advance] (paper
    E11-E13/D11-D13) and a batch [counter_publish]. *)
module type COUNTER = sig
  type counter

  val make_counter : int -> counter
  val counter_get : counter -> int

  val counter_advance : counter -> int -> unit
  (** Help the counter from [expected] to [expected + 1]; must be a no-op
      if the counter is already past [expected]. *)

  val counter_publish : counter -> from:int -> target:int -> unit
  (** Advance to [target] tolerating helpers: one-shot CAS, then a +1
      walk.  Callers only request targets whose slots they have already
      filled/emptied. *)
end

(** What Algorithm 1 requires of a handle-free LL/SC cell: the interface
    of {!Nbq_primitives.Llsc} minus [vl] (unused), plus its Head/Tail
    counters.  [set] is the exclusive-owner store behind {!S.reset}. *)
module type CELL = sig
  type 'a t
  type 'a link

  val make : 'a -> 'a t
  val ll : 'a t -> 'a link
  val value : 'a link -> 'a
  val sc : 'a t -> 'a link -> 'a -> bool
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val fresh_stores : bool

  include COUNTER
end

module type S = sig
  type 'a t
  type 'a registry
  type 'a handle
  type 'a res
  (** A live reservation, from {!ll}; consumed by {!sc} or {!release}. *)

  type 'a observation
  (** A reservation-free snapshot, from {!observe}; consumed by {!commit}. *)

  type 'a mark
  (** A reservation marker the backend stores in a cell, wrapped by the
      caller's {!marking}.  Empty on a backend whose cells never show a
      reservation ({!Of_cell}). *)

  val fresh_stores : bool
  (** [true] when the backend stores the value itself and its CASes
      expect the very values stored: every value a caller stores
      ([sc], [commit]) must then be a block allocated for that
      store and never stored before, so that no value a reservation or
      observation holds can return to the cell
      ({!Nbq_primitives.Llsc.Make_fresh_probed}; on the tag protocol a
      rollback re-stores the block its reservation read, see
      [Nbq_primitives.Llsc_cas]).  [false] when the backend boxes each
      store itself, so any value, immediates included, may be stored. *)

  val create_registry : ('a, 'a mark) marking -> 'a registry
  (** A registry whose cells wrap this backend's markers with the given
      {!marking}; backends without markers ignore it. *)

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
  (** Exclusive-owner store of any value, no handle needed: the caller
      guarantees that no thread holds (or will take) a reservation or
      observation on the cell for the duration — the segment-recycle
      case, where hazard reclamation has proven the ring unreachable.
      No CAS can then expect a value read before the store, so the value
      need not be fresh, even on a fresh-store backend. *)

  val observe : 'a t -> 'a handle -> 'a observation
  val observed_get : 'a observation -> 'a
  (** The value read, without allocating.  On a backend with markers
      this may be a competing reservation, wrapped by the {!marking}. *)

  val commit : 'a t -> 'a handle -> 'a observation -> 'a -> bool

  include COUNTER

  val registered_count : 'a registry -> int
  val owned_count : 'a registry -> int
  val audit : 'a registry -> audit
end

(** Plain-atomic monotonic counters (single-CAS advance), shared by every
    backend, the ideal cells included: a counter that only grows never
    repeats a value, so a CAS on the int is an ideal LL/SC with no ABA and
    no box. *)
module Cas_counter (A : Atomic_intf.ATOMIC) :
  COUNTER with type counter = int A.t

(** The trivial backend over a handle-free cell: unit handles, empty
    registry, and the cell's own counters. *)
module Of_cell (Cell : CELL) :
  S
    with type 'a t = 'a Cell.t
     and type 'a handle = unit
     and type 'a registry = unit
     and type counter = Cell.counter
