module type CELL = sig
  type 'a t
  type 'a link

  val make : 'a -> 'a t
  val ll : 'a t -> 'a link
  val value : 'a link -> 'a
  val sc : 'a t -> 'a link -> 'a -> bool
  val get : 'a t -> 'a
end

module type QUEUE = sig
  include Queue_intf.BOUNDED

  val try_peek : 'a t -> 'a option
  val head_index : 'a t -> int
  val tail_index : 'a t -> int
end

(* Algorithm 1 is the unified ring over the trivial cell backend: unit
   handles, empty registry, counters as ll/sc variables.  [Of_cell] keeps
   the handle plumbing monomorphic to [unit], so the handle-free QUEUE
   surface costs nothing. *)
module Make_probed (Cell : CELL) (H : Nbq_primitives.Hook.S) = struct
  module Ring =
    Evequoz_ring.Make_probed (Nbq_primitives.Llsc_backend.Of_cell (Cell)) (H)

  let name = "evequoz-llsc"

  type 'a t = 'a Ring.t

  let create = Ring.create
  let capacity = Ring.capacity
  let try_enqueue t x = Ring.enqueue_with t () x
  let try_dequeue t = Ring.dequeue_with t ()
  let try_peek t = Ring.peek_with t ()
  let length = Ring.length
  let head_index = Ring.head_index
  let tail_index = Ring.tail_index
end

module Make (Cell : CELL) = Make_probed (Cell) (Nbq_primitives.Hook.Noop)

include Make (Nbq_primitives.Llsc)

module On_weak_cells = struct
  let failure_rate = Atomic.make 0.05

  module Cell = struct
    type 'a t = 'a Nbq_primitives.Llsc.Weak.cell
    type 'a link = 'a Nbq_primitives.Llsc.link

    let make v =
      Nbq_primitives.Llsc.Weak.make ~failure_rate:(Atomic.get failure_rate) v

    let ll = Nbq_primitives.Llsc.Weak.ll
    let value = Nbq_primitives.Llsc.Weak.value
    let sc = Nbq_primitives.Llsc.Weak.sc
    let get = Nbq_primitives.Llsc.Weak.get
  end

  include Make (Cell)

  let name = "evequoz-llsc-weak"
end
