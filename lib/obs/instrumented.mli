(** Instrumentation wrappers around any {!Nbq_core.Queue_intf.CONC} queue.

    The shallow {!Make} wrapper emits [Full_retry] / [Empty_retry] on
    failed operations and samples operation latency 1-in-64 into the hub's
    histograms, so the uninstrumented hot path is untouched and the
    instrumented one stays within a few percent.  Counts from inside an
    algorithm (SC failures, helping, tag registry traffic) come from
    building it with the hub's hook ({!Metrics.probe}); the registry does
    that for every family. *)

module type METRICS = sig
  val metrics : Metrics.t
end

val sample_mask : int
(** Latency is recorded when [tick land sample_mask = 0] (1 in 64). *)

module Make (M : METRICS) (Q : Nbq_core.Queue_intf.CONC) :
  Nbq_core.Queue_intf.CONC with type 'a t = 'a Q.t
