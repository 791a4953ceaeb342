module Queue_intf = Nbq_core.Queue_intf

module type METRICS = sig
  val metrics : Metrics.t
end

(* Latency is sampled 1-in-64 so the two clock reads (the dominant cost)
   stay off most operations; the tick counters are plain refs shared
   across domains — lost updates merely perturb the sampling rate, never
   correctness. *)
let sample_mask = 63

module Make (M : METRICS) (Q : Queue_intf.CONC) :
  Queue_intf.CONC with type 'a t = 'a Q.t = struct
  type 'a t = 'a Q.t

  let name = Q.name
  let caps = Q.caps
  let bounded = Q.bounded
  let create = Q.create
  let m = M.metrics
  let enq_tick = ref 0
  let deq_tick = ref 0

  let try_enqueue t x =
    let n = !enq_tick + 1 in
    enq_tick := n;
    let ok =
      if n land sample_mask = 0 then begin
        let t0 = Clock.now_ns () in
        let ok = Q.try_enqueue t x in
        Metrics.record_enq_ns m (Clock.now_ns () - t0);
        ok
      end
      else Q.try_enqueue t x
    in
    if not ok then Metrics.emit m Event.Full_retry;
    ok

  let try_dequeue t =
    let n = !deq_tick + 1 in
    deq_tick := n;
    let r =
      if n land sample_mask = 0 then begin
        let t0 = Clock.now_ns () in
        let r = Q.try_dequeue t in
        Metrics.record_deq_ns m (Clock.now_ns () - t0);
        r
      end
      else Q.try_dequeue t
    in
    if r = None then Metrics.emit m Event.Empty_retry;
    r

  (* Batches are always timed (one timed call already amortizes the two
     clock reads over k items) and account k histogram samples per call,
     so item totals stay comparable with single-op runs.  A short batch
     means the underlying queue reported full/empty exactly once — count
     one retry, like the single-op wrappers do. *)
  let try_enqueue_batch t items =
    let t0 = Clock.now_ns () in
    let accepted = Q.try_enqueue_batch t items in
    Metrics.record_enq_batch_ns m ~items:accepted (Clock.now_ns () - t0);
    if accepted < Array.length items then Metrics.emit m Event.Full_retry;
    accepted

  let try_dequeue_batch t k =
    let t0 = Clock.now_ns () in
    let got = Q.try_dequeue_batch t k in
    let n = List.length got in
    Metrics.record_deq_batch_ns m ~items:n (Clock.now_ns () - t0);
    if n < k then Metrics.emit m Event.Empty_retry;
    got

  let length = Q.length
end
