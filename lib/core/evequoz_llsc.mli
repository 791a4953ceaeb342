(** Algorithm 1: the LL/SC-based non-blocking circular-array FIFO
    (paper, Fig. 3).

    Array slots and the [Head]/[Tail] counters are LL/SC variables.  The
    counters increase monotonically over the whole 63-bit word and are mapped
    to slots with a power-of-two mask, which makes the index-ABA problem
    (paper Fig. 1) practically impossible; the LL/SC reservation discipline
    eliminates the data-ABA and null-ABA problems outright.  The queue is
    population-oblivious and its space consumption depends only on the
    capacity.

    The implementation is a functor over the cell type so that the same code
    runs on the ideal cells ({!module:Nbq_primitives.Llsc}) and on
    failure-injecting weak cells (ablation E8).  [Evequoz_llsc] itself — the
    default instantiation — satisfies {!Queue_intf.BOUNDED}. *)

(** What Algorithm 1 requires of an LL/SC cell: exactly the interface of
    {!Nbq_primitives.Llsc}, minus [vl] (unused by the algorithm). *)
module type CELL = sig
  type 'a t
  type 'a link

  val make : 'a -> 'a t
  val ll : 'a t -> 'a link
  val value : 'a link -> 'a
  val sc : 'a t -> 'a link -> 'a -> bool
  val get : 'a t -> 'a
end

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
    The [Ll_reserve]/[Ll_reserved]/[Sc_attempt] points live in the cell;
    hook them via {!Nbq_primitives.Llsc.Make_probed}. *)
module Make_probed (Cell : CELL) (H : Nbq_primitives.Hook.S) : QUEUE

(** [Make_probed] with {!Nbq_primitives.Hook.Noop}: uninstrumented. *)
module Make (Cell : CELL) : QUEUE

include module type of Make (Nbq_primitives.Llsc)

(** The same algorithm running on spurious-failure-injecting cells; used by
    the E8 ablation to measure the §5 caveats.  [create] draws the failure
    rate from {!failure_rate}, settable before queue creation. *)
module On_weak_cells : sig
  val failure_rate : float Atomic.t

  include Queue_intf.BOUNDED

  val head_index : 'a t -> int
  val tail_index : 'a t -> int
end
