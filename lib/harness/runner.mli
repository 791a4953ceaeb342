(** Multi-domain benchmark execution, following the paper's §6 methodology:
    spawn N workers, synchronize them behind a barrier, run the workload,
    report the mean per-thread completion time; repeat for R runs and
    average. *)

type run_config = {
  threads : int;
  runs : int;                 (** paper: 50 *)
  workload : Workload.config;
  capacity : int option;      (** default: {!Workload.min_capacity} *)
}

type measurement = {
  impl_name : string;
  threads_used : int;
  per_run_seconds : float list;  (** each entry: mean over threads of one run *)
  summary : Stats.summary;
  full_retries : int;   (** summed over all runs and threads *)
  empty_retries : int;
  items : int;
      (** Items moved, summed over all runs and threads
          ({!Workload.thread_result.items}): a batch call moving k items
          contributes k.  Divide by total seconds for throughput. *)
  metrics : Nbq_obs.Metrics.snapshot option;
      (** Present iff [measure] was given a metrics hub; accumulated over
          all runs of this measurement. *)
}

val measure :
  ?metrics:Nbq_obs.Metrics.t ->
  ?tracer:Nbq_trace.Recorder.t ->
  ?batched:bool ->
  Registry.impl ->
  run_config ->
  measurement
(** Runs [runs] independent rounds: each round creates a fresh queue,
    spawns [threads] domains, releases them together, and records every
    thread's completion time.  The round's score is the mean thread time
    (the paper's metric).  One more round runs first, on a plain
    instance, and is discarded: it counts toward no time, item count,
    metrics hub or trace.

    With [?metrics] the queue is built via [create_probed] so events and
    sampled latencies land in the hub; [full_retries]/[empty_retries] are
    then read from the snapshot (the workload's spin counters observe the
    same failed operations, so the two agree).

    With [?tracer] the queue is built via [create_traced] instead (the
    hub, if also given, rides along through the composed hook); the
    caller arms/disarms the recorder and exports — the runner only wires
    the hooks.

    With [~batched:true] workers run {!Workload.run_thread_batched} —
    the same item ledger through the batch entry points. *)
