(* The production instantiation of the eventcount protocol: real atomics,
   the futex-style per-domain Parker (with its 1 ms ticker backstop), the
   real clock, and a pre-park spin of 1280 polls of the condition (about
   1.3 ms at 31 ns a pause; see [await] in Eventcount_core).  The protocol
   itself lives in Eventcount_core so the model checker can run the
   identical code under simulated atomics and a cooperative parker. *)

include Eventcount_core.Make (struct
  module Atomic = Nbq_primitives.Atomic_intf.Real
  module Parker = Parker

  let past d = Unix.gettimeofday () >= d
  let default_spin = 1280
end)
