(* The production instantiation of the eventcount protocol: real atomics,
   the futex-style per-domain Parker (with its 1 ms ticker backstop), the
   wall clock for deadlines, and a pre-park spin of 1.2 ms on the
   monotonic clock, polling the condition every 4 pauses (about 0.1 us;
   see [await] in Eventcount_core).  The protocol itself lives in
   Eventcount_core so the model checker can run the identical code under
   simulated atomics and a cooperative parker. *)

include Eventcount_core.Make (struct
  module Atomic = Nbq_primitives.Atomic_intf.Real
  module Parker = Parker

  let past d = Unix.gettimeofday () >= d
  let spin_ns = 1_200_000
  let now_ns = Nbq_primitives.Clock.now_ns
end)
