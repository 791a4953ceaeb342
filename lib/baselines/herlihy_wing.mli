(** The Herlihy–Wing queue ([3], with Wing & Gong's finite-memory variant
    [16]) — the classic linearizable array queue the paper's §2 opens with.

    Enqueue is wait-free: fetch-and-add a ticket on the tail counter and
    store the item in that slot ("the infinite array").  Dequeue scans the
    prefix [0, tail) swapping each slot with empty until it finds an item;
    its running time is proportional to the number of {e completed enqueue
    operations since the creation of the queue} — the §2 criticism this
    module exists to demonstrate (the E8-adjacent
    [space] bench preset measures the quadratic blow-up).

    The "infinite array" is simulated with lock-free chunked growth: a
    table of fixed-size chunks, allocated on demand and installed with CAS
    (losers drop their chunk).  Slots are written at most twice (item, then
    back to empty forever), so a plain atomic swap implements the dequeue
    scan faithfully.

    Unbounded; relies on the GC (the original predates reclamation
    concerns). *)

(** The algorithm over any atomics (for the model checker). *)
module Make (A : Nbq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a t

  val create : unit -> 'a t
  val enqueue : 'a t -> 'a -> unit
  val try_dequeue : 'a t -> 'a option
  val length : 'a t -> int
  val completed_enqueues : 'a t -> int
end

include Nbq_core.Queue_intf.UNBOUNDED

val completed_enqueues : 'a t -> int
(** The ticket counter — the quantity dequeue cost grows with. *)
