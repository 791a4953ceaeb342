(** Algorithm 1: the LL/SC-based non-blocking circular-array FIFO
    (paper, Fig. 3).

    Array slots are LL/SC variables.  The [Head]/[Tail] counters increase
    monotonically over the whole 63-bit word and are mapped to slots with a
    power-of-two mask, which makes the index-ABA problem (paper Fig. 1)
    practically impossible.  Because a counter never repeats a value, an
    ideal LL/SC on it is exactly a compare-and-set on a plain atomic int:
    the counters are CAS'd monotonic ints, with no box and no ABA
    ({!Nbq_primitives.Llsc_backend.Cas_counter}).  The LL/SC reservation
    discipline on the slots eliminates the data-ABA and null-ABA problems
    outright.  The queue is population-oblivious and its space consumption
    depends only on the capacity.

    The implementation is a functor over the cell type so that the same code
    runs on fresh-store ideal cells ({!Nbq_primitives.Llsc.Fresh}, the
    default), on boxed ideal cells ({!module:Nbq_primitives.Llsc}) and on
    failure-injecting weak cells (ablation E8).  [Evequoz_llsc] itself — the
    default instantiation — satisfies {!Queue_intf.BOUNDED}. *)

(** What Algorithm 1 requires of an LL/SC cell and its counters. *)
module type CELL = Nbq_primitives.Llsc_backend.CELL

(** What the functors produce: the bounded queue plus introspection. *)
module type QUEUE = sig
  include Queue_intf.BOUNDED

  val try_peek : 'a t -> 'a option
  (** Observe the front item without removing it ([None] when empty).
      Linearizable; an extension beyond the paper's API. *)

  val head_index : 'a t -> int
  val tail_index : 'a t -> int
  (** Raw monotonic counters, for tests and scenario replays. *)
end

(** The algorithm over any cell type and hook.  Points: [Counter_bump]
    on entry to the counter-advance helper — between a slot update and the
    Head/Tail bump it mandates, the window where a frozen thread forces
    everyone else into the helping path (paper E11-E13 / D11-D13) —
    [Sc_fail] on failed update-path store-conditionals and
    [Tail_help]/[Head_help] when the operation helps a lagging counter.
    The [Ll_reserve]/[Ll_reserved]/[Sc_attempt] points live in the cell
    and fire on slot accesses only (the counters are plain ints); hook
    them via {!Nbq_primitives.Llsc.Make_fresh_probed}. *)
module Make_probed (Cell : CELL) (H : Nbq_primitives.Hook.S) : QUEUE

(** [Make_probed] with {!Nbq_primitives.Hook.Noop}: uninstrumented. *)
module Make (Cell : CELL) : QUEUE

include module type of Make (Nbq_primitives.Llsc.Fresh)
(** The default instantiation, on fresh-store cells
    ({!Nbq_primitives.Llsc.Fresh}): a slot store is one compare-and-set
    of the ring's own [Item] or [Vacant] block, with no box around it. *)

(** The same algorithm running on spurious-failure-injecting cells; used by
    the E8 ablation to measure the §5 caveats.  Slots and counters are weak
    cells, so counter bumps fail spuriously too
    ({!Nbq_primitives.Llsc.Weak.counter_advance} retries them).  [create]
    draws the failure rate from {!failure_rate}, settable before queue
    creation. *)
module On_weak_cells : sig
  val failure_rate : float Atomic.t

  include Queue_intf.BOUNDED

  val head_index : 'a t -> int
  val tail_index : 'a t -> int
end
