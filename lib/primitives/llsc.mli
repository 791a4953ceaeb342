(** Ideal load-linked / store-conditional cells (paper, Fig. 2).

    A cell supports [ll] (load-linked: read the value and acquire a
    reservation), [sc] (store-conditional: write a new value iff no successful
    [sc] and no {!S.set} intervened since the reservation was taken) and [vl]
    (validate: check the reservation still holds).  These are the {e
    theoretical} semantics assumed by the paper's first algorithm: any number
    of threads may hold simultaneous reservations on the same cell, a
    successful [sc] invalidates all of them, and [sc] never fails spuriously.

    {b Implementation.}  The cell is an atomic word holding a pointer to an
    immutable one-field box; every store installs a freshly allocated box, and
    [sc] is a compare-and-set on the {e box identity}.  Because box identities
    are never reused (the GC guarantees a live box's address is unique), "the
    box I read is still installed" is exactly "no write happened since my
    read" — reservation semantics with no ABA, which is what hardware LL/SC
    provides.  This substitutes for [lwarx/stwcx]-style instructions that
    OCaml cannot emit directly (DESIGN.md §2).  {!Make_fresh_probed}
    drops the box for callers that allocate every stored value
    themselves.

    The implementation is a functor over {!Atomic_intf.ATOMIC} so the model
    checker can drive it on instrumented atomics; the toplevel interface is
    the instantiation on real atomics.  The {!Weak} submodule injects
    spurious [sc] failures to model the real-architecture limitations listed
    in §5 of the paper. *)

module type S = sig
  type 'a t
  (** A shared LL/SC variable holding values of type ['a]. *)

  type 'a link
  (** A reservation witness returned by {!ll}: remembers both the value read
      and the reservation it came from. *)

  val make : 'a -> 'a t
  (** [make v] allocates a cell initially holding [v]. *)

  val ll : 'a t -> 'a link
  (** Load-linked: read the current value and take a reservation. *)

  val value : 'a link -> 'a
  (** The value observed by the {!ll} that produced this link. *)

  val sc : 'a t -> 'a link -> 'a -> bool
  (** [sc cell link v] stores [v] iff the cell has not been successfully
      written since [link] was obtained.  Returns whether the store
      happened. *)

  val vl : 'a t -> 'a link -> bool
  (** [vl cell link] is [true] iff an [sc cell link _] would currently
      succeed. *)

  val get : 'a t -> 'a
  (** Plain read without taking a reservation. *)

  val set : 'a t -> 'a -> unit
  (** Unconditional store.  Invalidates all outstanding reservations. *)

  val fresh_stores : bool
  (** [true] when [sc] and [set] install the value itself rather than a
      box around it, so the LL/SC guarantee holds only if every value
      stored is a block allocated for that store ({!Make_fresh_probed});
      [false] when any value may be stored. *)

  include Llsc_backend.COUNTER
  (** Head/Tail counters for Algorithm 1.  They only grow, so a value
      never repeats and a compare-and-set on a plain atomic int is
      exactly an ideal LL/SC on them, with no ABA and no box
      ({!Llsc_backend.Cas_counter}). *)
end

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) : S
(** The cell with its hook points: [Ll_reserve] on entry to [ll], then
    [Ll_reserved] (the reservation is the read itself), and [Sc_attempt]
    just before [sc]'s compare-and-set.  [sc] failures are not counted
    here — callers, which can tell update-path failures from benign
    helping races, hit [Sc_fail].  The counters are plain [A] ints and
    hit no point. *)

module Make (A : Atomic_intf.ATOMIC) : S
(** [Make_probed] with {!Hook.Noop}: the uninstrumented default. *)

(** {1 Fresh-store cells}

    The same cell without the box: the atomic word holds the value itself
    and [sc] is one compare-and-set against the value [ll] returned, as
    the paper's Algorithm 1 writes in place.  Block identity then does
    the box's job, under a precondition on the caller
    ([fresh_stores = true]): {b every value passed to [sc] is a block
    allocated for that store and never stored before} (the initial value
    of [make], and a [set] made while no reservation is outstanding, are
    exempt: no CAS expects a value across them).  A value a reservation
    holds can then never come back, so a CAS that finds it proves the
    cell unwritten since the [ll].  Storing an immediate, or a block
    twice, re-opens the ABA window the box closes.  Algorithm 1's ring
    meets the precondition by building one [Item] per enqueue and one
    [Vacant] per dequeue, so a store allocates the item's own block and
    nothing else.  Hook points as in {!Make_probed}. *)

module Make_fresh_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) : S

module Fresh : S
(** {!Make_fresh_probed} on real atomics with {!Hook.Noop}: the cells of
    Algorithm 1's default instantiation ([Nbq_core.Evequoz_llsc]). *)

include S

(** LL/SC with injected spurious failures.

    Real architectures allow [sc] to fail even when the cell is untouched
    (cache-line replacement, preemption, nearby writes — §5 of the paper).
    [Weak] wraps the ideal cell and makes [sc] fail with a configurable
    probability, drawing from the calling domain's {!Prng.domain_local}
    stream.  Algorithms that are correct under ideal LL/SC remain correct
    under weak LL/SC iff they treat [sc] failure as "retry", which the
    paper's Algorithm 1 does; the ablation benchmark measures the throughput
    cost. *)
module Weak : sig
  type 'a cell

  val make : failure_rate:float -> 'a -> 'a cell
  (** [make ~failure_rate v] creates a cell whose [sc] spuriously fails with
      probability [failure_rate] (clamped to [\[0, 1\]]) even when it would
      succeed. *)

  val ll : 'a cell -> 'a link
  val value : 'a link -> 'a
  val sc : 'a cell -> 'a link -> 'a -> bool
  val vl : 'a cell -> 'a link -> bool
  val get : 'a cell -> 'a
  val set : 'a cell -> 'a -> unit
  val fresh_stores : bool

  val counter_advance : int cell -> int -> unit
  val counter_publish : int cell -> from:int -> target:int -> unit
  (** {!Llsc_backend.COUNTER} over weak cells: ll/sc loops that retry
      past spurious failures, so no bump is dropped. *)
end
