(* The one monotonic clock (Nbq_primitives.Clock), re-exported so that
   observability code and its callers keep reading [Nbq_obs.Clock]. *)

include Nbq_primitives.Clock
