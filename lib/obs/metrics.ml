type t = {
  counters : Sharded_counter.t array;  (* indexed by Event.index *)
  enq_latency : Histogram.t;
  deq_latency : Histogram.t;
}

let create ?shards () =
  {
    counters = Array.init Event.count (fun _ -> Sharded_counter.create ());
    enq_latency = Histogram.create ?shards ();
    deq_latency = Histogram.create ?shards ();
  }

let emit t ev = Sharded_counter.incr t.counters.(Event.index ev)
let add t ev n = Sharded_counter.add t.counters.(Event.index ev) n
let count t ev = Sharded_counter.read t.counters.(Event.index ev)
let record_enq_ns t ns = Histogram.record t.enq_latency ns
let record_deq_ns t ns = Histogram.record t.deq_latency ns

(* Batched operations attribute the per-item share of the call's elapsed
   time to each item, so histogram totals keep counting items (not calls)
   and throughput math stays uniform across batched and single-op runs. *)
let record_enq_batch_ns t ~items ns =
  if items > 0 then Histogram.record_n t.enq_latency (ns / items) items

let record_deq_batch_ns t ~items ns =
  if items > 0 then Histogram.record_n t.deq_latency (ns / items) items

let reset t =
  Array.iter Sharded_counter.reset t.counters

type snapshot = {
  counts : int array;  (* indexed by Event.index *)
  enq : Histogram.snapshot;
  deq : Histogram.snapshot;
}

let snapshot t =
  {
    counts = Array.map Sharded_counter.read t.counters;
    enq = Histogram.snapshot t.enq_latency;
    deq = Histogram.snapshot t.deq_latency;
  }

let empty_snapshot =
  { counts = Array.make Event.count 0; enq = Histogram.empty; deq = Histogram.empty }

let merge a b =
  {
    counts = Array.init Event.count (fun i -> a.counts.(i) + b.counts.(i));
    enq = Histogram.merge a.enq b.enq;
    deq = Histogram.merge a.deq b.deq;
  }

let get s ev = s.counts.(Event.index ev)

(* [ll_reserve] and [tag_reregister] fire once per queue operation by
   construction, so paying a domain-local counter lookup on each would
   dominate the cost of the operations being observed.  They are recorded
   1-in-64 with weight 64 instead; the rare events — the diagnostically
   interesting ones — stay exact.  The sampling ticks are plain refs
   shared across domains, as in {!Instrumented}: lost updates merely
   perturb the sampling rate, never correctness. *)
let sample_mask = 63

let probe (t : t) : (module Nbq_primitives.Hook.S) =
  (module struct
    (* One tick for both hot events: only [Ll_reserved] advances it (every
       operation reserves), while [Tag_reregister] samples whenever it
       runs inside an [Ll_reserved] sampling window — re-registrations are
       uniformly spread over operations, so the estimator stays fair
       without a second per-operation tick update.  Parks, wakes and
       cancels happen at most once per blocked wait, not per operation —
       exact counts, like the other rare events. *)
    let tick = ref 0

    let hit : Nbq_primitives.Hook.point -> unit = function
      | Ll_reserved ->
          let n = !tick + 1 in
          tick := n;
          if n land sample_mask = 0 then
            add t Event.Ll_reserve (sample_mask + 1)
      | Tag_reregister ->
          if !tick land sample_mask = 0 then
            add t Event.Tag_reregister (sample_mask + 1)
      | p -> (
          match Event.of_point p with Some ev -> emit t ev | None -> ())
  end)
