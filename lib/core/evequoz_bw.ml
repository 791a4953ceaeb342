module Atomic_intf = Nbq_primitives.Atomic_intf
module Hook = Nbq_primitives.Hook

(* The unified ring over the Blelloch-Wei constant-time LL/SC backend
   (arXiv:1911.09671): same Algorithm-1 structure as the paper rows, but
   the per-operation ReRegister is a literal no-op — the hot path touches
   no registry at all.  See Nbq_primitives.Llsc_bw. *)
module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  module Backend = Nbq_primitives.Llsc_bw.Make_probed (A) (H)
  include Evequoz_ring.Make_probed (Backend) (H)

  let space t = Backend.space t.registry
end

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

module Core = Make (Atomic_intf.Real)

module Impl = struct
  include Evequoz_cas.With_implicit_handles (Core)

  let name = "evequoz-bw"
end

include Impl

module Batched = struct
  include Impl

  let try_enqueue_batch = try_enqueue_batch_runs
  let try_dequeue_batch = try_dequeue_batch_runs
end
