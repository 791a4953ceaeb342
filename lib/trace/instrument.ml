(* Attaching the recorder to a queue.

   [Wrap] is the shallow layer: operation spans around the public queue
   interface (sampled inside the recorder).  [hook] is the deep layer:
   what an algorithm functor receives under tracing, so a single run can
   feed both the counter hub and the flight recorder from the same hook
   points. *)

module Queue_intf = Nbq_core.Queue_intf
module Metrics = Nbq_obs.Metrics
module Hook = Nbq_primitives.Hook

module type TRACER = sig
  val tracer : Recorder.t
end

module Wrap (T : TRACER) (Q : Queue_intf.CONC) :
  Queue_intf.CONC with type 'a t = 'a Q.t = struct
  type 'a t = 'a Q.t

  let name = Q.name
  let bounded = Q.bounded
  let create = Q.create
  let tr = T.tracer
  let mask = Recorder.sample_mask tr

  (* Sampling ticks are plain refs shared across domains, exactly like
     the metrics layer's: lost updates merely perturb the sampling rate.
     The tick is checked BEFORE the armed flag, so the common path — any
     non-sampled operation, armed or not — is one ref increment and a
     mask test; the atomic armed read, DLS lookup, clock reads and ring
     stores all hide behind the 1-in-[sample] branch. *)
  let enq_tick = ref 0
  let deq_tick = ref 0

  let try_enqueue t x =
    let n = !enq_tick + 1 in
    enq_tick := n;
    if n land mask <> 0 then Q.try_enqueue t x
    else
      match Recorder.span_open tr Record.Enq ~arg:0 with
      | None -> Q.try_enqueue t x
      | Some r ->
        let ok = Q.try_enqueue t x in
        Recorder.span_close tr r Record.Enq ~arg:(Bool.to_int ok);
        ok

  let try_dequeue t =
    let n = !deq_tick + 1 in
    deq_tick := n;
    if n land mask <> 0 then Q.try_dequeue t
    else
      match Recorder.span_open tr Record.Deq ~arg:0 with
      | None -> Q.try_dequeue t
      | Some r ->
        let x = Q.try_dequeue t in
        Recorder.span_close tr r Record.Deq ~arg:(Bool.to_int (x <> None));
        x

  (* Batch spans carry the attempted size in [arg] and items moved in the
     end record's result word. *)
  let try_enqueue_batch t items =
    let n = !enq_tick + 1 in
    enq_tick := n;
    if n land mask <> 0 then Q.try_enqueue_batch t items
    else
      match
        Recorder.span_open tr Record.Enq_batch ~arg:(Array.length items)
      with
      | None -> Q.try_enqueue_batch t items
      | Some r ->
        let accepted = Q.try_enqueue_batch t items in
        Recorder.span_close tr r Record.Enq_batch ~arg:accepted;
        accepted

  let try_dequeue_batch t k =
    let n = !deq_tick + 1 in
    deq_tick := n;
    if n land mask <> 0 then Q.try_dequeue_batch t k
    else
      match Recorder.span_open tr Record.Deq_batch ~arg:k with
      | None -> Q.try_dequeue_batch t k
      | Some r ->
        let got = Q.try_dequeue_batch t k in
        Recorder.span_close tr r Record.Deq_batch ~arg:(List.length got);
        got

  let length = Q.length
end

(* The hook an algorithm functor should receive under tracing.  Deep
   in-algorithm records are a full-mode feature: in sampled mode every
   hit would pay an armed-check + DLS access on the hottest paths of the
   algorithm (several points per operation), which alone blows the
   <=10% armed-overhead budget — so sampled tracing records operation
   spans only, and the hook reduces to the metrics hub's (or nothing).
   Full mode composes the recorder to the right of the metrics hook:
   counters tick and records land from the same points. *)
let hook ?metrics (tr : Recorder.t) : (module Hook.S) =
  match (Recorder.full tr, metrics) with
  | false, None -> (module Hook.Noop)
  | false, Some m -> Metrics.probe m
  | true, None -> Recorder.hook tr
  | true, Some m -> Hook.compose (Metrics.probe m) (Recorder.hook tr)
