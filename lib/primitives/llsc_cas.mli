(** CAS-simulated LL/SC with thread-owned tag variables (paper, Fig. 5).

    This is the paper's second core mechanism, factored out of the queue so
    that it can also drive the MS-Doherty baseline (DESIGN.md §2, S2).  A
    cell is a single pointer-wide atomic word that contains either an
    application value or a {e reservation marker} identifying the tag
    variable ([LLSCvar] in the paper) of the thread that currently holds a
    simulated load-linked reservation:

    - [ll cell handle] reads the cell's logical value into the handle's tag
      variable and atomically swaps the cell's content for the handle's
      marker.  If the cell already holds another thread's marker, the logical
      value is fetched through that thread's tag variable under a
      fetch-and-add reference-count protocol that closes the marker-reuse ABA
      window described in §5 of the paper.
    - [sc cell handle v] is a plain CAS expecting the handle's own marker;
      it succeeds iff the reservation was not stolen in the meantime.
      Restoring the previously read value ("rollback", the paper's
      [CAS(&Q[i], var^1, slot)]) is just [sc] with the old value.

    Tag variables are recycled through a population-oblivious registry (the
    paper's [Register] / [ReRegister] / [Deregister], a simplification of
    Herlihy–Luchangco–Moir's collect protocol): registration scans a lock-free
    list for a variable whose reference count CASes 0→1, else appends a fresh
    one; re-registration between two structure operations keeps the variable
    only when no other thread is reading through it.

    {b Pointer-tagging substitution.}  The paper distinguishes data from
    markers by the low bit of an aligned pointer ([var^1]).  OCaml cannot tag
    native pointers, so the word holds a one-constructor-deep variant
    ([Value v] / a marker block) and CAS compares the identity of the block
    read.  A handle's marker block is allocated {e once per registration} and
    reused across operations — exactly like the paper's tagged address — so
    the ABA hazard the reference counts guard against is preserved, not
    defined away.

    Functorized over {!Atomic_intf.ATOMIC} for the model checker; the
    toplevel interface is the real-atomics instantiation. *)

type audit = Llsc_backend.audit = { registered : int; owned : int; free : int }
(** One racy snapshot of a registry: variables ever allocated, variables
    with a non-zero reference count (owned by a handle or pinned by a
    reader — including variables abandoned by a crashed thread), and the
    recyclable remainder.  For tests and the torture harness's
    no-unbounded-growth assertions. *)

module type S = sig
  type 'a t
  (** A simulated LL/SC cell holding logical values of type ['a]. *)

  type 'a registry
  (** The shared list of tag variables for one family of cells (one registry
      per concurrent object instance). *)

  type 'a handle
  (** A thread's registered tag variable plus its reusable marker block.  A
      handle must not be used by two domains at once. *)

  val create_registry : unit -> 'a registry
  (** A fresh, empty registry. *)

  val make : 'a -> 'a t
  (** [make v] allocates a cell with logical value [v]. *)

  val register : 'a registry -> 'a handle
  (** Acquire a tag variable: recycle an unowned one from the registry or
      append a fresh one (paper's [Register]).  Lock-free; time and space are
      O(maximum number of simultaneously registered threads). *)

  val reregister : 'a handle -> unit
  (** Must be called between two consecutive operations on cells (paper's
      [ReRegister]).  Keeps the current tag variable if no other thread holds
      a reference to it, otherwise releases it and acquires another. *)

  val deregister : 'a handle -> unit
  (** Release the handle's tag variable for recycling (paper's [Deregister]).
      The variable itself is never freed — later registrations may reuse it.
      Using the handle after [deregister] is a programming error. *)

  val ll : 'a t -> 'a handle -> 'a
  (** Simulated load-linked: returns the cell's logical value and installs
      the handle's marker.  Always succeeds (lock-free; retries on marker
      races). *)

  val sc : 'a t -> 'a handle -> 'a -> bool
  (** Simulated store-conditional: CAS the handle's own marker to [Value v].
      Fails iff another thread's [ll] stole the reservation since ours. *)

  val vl : 'a t -> 'a handle -> bool
  (** Validate (not in the paper's Fig. 5): true iff the handle's marker is
      still in the cell, i.e. the cell is unchanged since our [ll].  Only
      meaningful while the handle holds a reservation on this cell. *)

  type 'a observation
  (** The exact block read from a cell by {!observe}: the capability to
      {!commit} against it once. *)

  val observe : 'a t -> 'a observation
  (** One plain atomic read of the cell, remembering the physical block. *)

  val observed_value : 'a observation -> 'a option
  (** The logical value behind an observation, or [None] when the cell held
      a thread's reservation marker at read time (callers should fall back
      to the ll/sc protocol). *)

  val observed_holds : 'a observation -> 'a -> bool
  (** [observed_holds obs v] is true iff the observation saw exactly the
      logical value [v] (physical equality).  Allocation-free counterpart
      of {!observed_value} for hot loops testing against an immediate
      sentinel such as a queue's [Empty]. *)

  val observed_get : 'a observation -> 'a
  (** The logical value behind an observation; raises [Not_found] when the
      cell held a reservation marker at read time.  Allocation-free
      counterpart of {!observed_value} for hot loops (the raise only fires
      on the rare marker observation). *)

  val commit : 'a t -> 'a observation -> 'a -> bool
  (** [commit cell obs v] installs [v] iff the cell still holds the exact
      block {!observe} returned — a single physical-equality CAS playing
      the role of an ll/sc pair (extension, not in the paper).  Sound
      without tags because every cell mutation ([sc], [commit],
      [unsafe_set]) installs a freshly allocated block and no old value
      block is ever re-installed, so physical equality proves the cell was
      untouched since the observation; the allocation itself is the tag.
      This is a property of this boxed OCaml representation, not of the
      paper's raw-word cells.  Used by the batch-run extension to spend one
      CAS per slot instead of two. *)

  val peek : 'a t -> 'a
  (** Read the logical value without reserving: reads through a foreign
      marker via its tag variable's placeholder.  Safe for heuristic checks
      (e.g. the queue's [t == Tail] revalidations); not a reservation. *)

  val unsafe_set : 'a t -> 'a -> unit
  (** Unconditional store, destroying any outstanding reservation.  Only for
      (re)initialization of a cell that the caller owns exclusively, e.g. a
      recycled queue node before publication. *)

  val registered_count : 'a registry -> int
  (** Number of tag variables ever allocated into the registry — the paper's
      space-adaptivity metric (grows with the maximum number of concurrent
      threads, not with traffic).  O(n) scan; for tests and experiments. *)

  val owned_count : 'a registry -> int
  (** Number of tag variables whose reference count is non-zero right now.
      O(n) scan; racy by nature, for tests and experiments. *)

  val audit : 'a registry -> audit
  (** {!registered_count} and {!owned_count} in one scan. *)
end

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) : S
(** Like {!Make}, with the protocol's hook points: [Ll_reserve] on entry
    to [ll] (and on each retry), [Slot_swap] just {e after} the handle's
    marker was swapped into the cell (the §5 abandonment window), followed
    by the [Ll_reserved] count, [Sc_attempt] before [sc]'s CAS, and
    [Tag_register] / [Tag_reregister] / [Tag_deregister] inside the
    registry protocol ([Tag_register] fires after the variable is owned,
    so a crash there abandons it), plus [Tag_recycle] when a registration
    reuses a free variable.  [sc] failures are {e not} hit here —
    rollbacks use [sc] too and their failures are benign; callers hit
    [Sc_fail] on the update path. *)

module Make (A : Atomic_intf.ATOMIC) : S
(** [Make_probed] with {!Hook.Noop}: the uninstrumented default. *)

module Backend (A : Atomic_intf.ATOMIC) (H : Hook.S) : Llsc_backend.S
(** The protocol behind the unified {!Llsc_backend.S} seam: reservation
    tokens are the values read (rollback = [sc] restoring the old value),
    Head/Tail counters are plain atomics with a single helping CAS
    (paper Fig. 5, right column), observe/commit as in {!S.commit}.
    [reregister] stays the paper-mandated per-operation protocol — this is
    the backend the Blelloch-Wei port is ablated against. *)

include S
