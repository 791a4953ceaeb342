(** Attaching a {!Recorder} to queues: shallow operation spans over the
    unified [CONC] interface, and the hook that records from inside an
    algorithm. *)

module type TRACER = sig
  val tracer : Recorder.t
end

module Wrap (_ : TRACER) (Q : Nbq_core.Queue_intf.CONC) :
  Nbq_core.Queue_intf.CONC with type 'a t = 'a Q.t
(** Operation spans (sampled by the recorder) around every public
    operation; batch spans carry attempted size and items moved. *)

val hook :
  ?metrics:Nbq_obs.Metrics.t -> Recorder.t -> (module Nbq_primitives.Hook.S)
(** The hook to thread into an algorithm under tracing.  In full mode
    ([Recorder.full]) it is {!Recorder.hook}, composed to the right of
    [Metrics.probe m] when [metrics] is given; in sampled mode only the
    metrics hook (or [Hook.Noop]), since sampled tracing records spans
    only. *)
