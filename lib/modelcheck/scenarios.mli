(** The model-checking spec catalog: ready-made scenarios for the
    repository's queues, as data.

    A scenario interleaves a few threads' worth of queue operations on a
    simulated-atomics instantiation of an algorithm.  Every completed
    schedule's history must be linearizable against the bounded FIFO
    specification and conserve items (checked by draining the queue);
    the paper's own queues add per-algorithm hygiene checks (tag-registry
    bounds, announcement hygiene, segment reclamation) and per-step index
    invariants.  Each spec also carries its algorithm's declared progress
    class for the liveness layer, a stable slug for NBQ-FAULT-REPRO
    lines, and the exploration mode that exhausts it.  Used by the test
    suite, by [bin/modelcheck_run.exe] and by [bin/torture.exe --replay]. *)

type op =
  | Enq of int
  | Deq
  | Peek
  | Enq_batch of int list  (** one batch-run enqueue call (Algorithm 2) *)
  | Deq_batch of int  (** one batch-run dequeue call (Algorithm 2) *)

val standard_matrix : (string * int * int list * op list list) list
(** The (name, capacity, prefill, threads) rows every catalog algorithm
    is checked against: concurrent enqueues, enqueue/dequeue races on
    empty and non-empty queues, competing dequeues, the full boundary,
    and a two-ops-each crossing.  For the segmented queue [capacity] is
    the {e segment} capacity and the FIFO spec is unbounded. *)

val slug : string -> string
(** The scenario slug of a row name: ["enq|deq empty"] is
    ["enq-deq-empty"]. *)

type spec = {
  algorithm : string;
  scenario : string;
      (** slug of the scenario name — stable across sessions; together
          with [algorithm] this is the NBQ-FAULT-REPRO replay key *)
  descr : string;
  progress : Props.progress;  (** the algorithm's declared guarantee *)
  expect :
    [ `Pass | `Violation of [ `Safety | `Liveness of [ `Stuck | `Livelock ] ] ];
      (** [`Violation k] marks the seeded-bug scenarios that exist to
          prove the checker convicts, with the kind of violation it must
          find — for liveness, the divergence class the replayed schedule
          must show ({!Props.Stuck} or {!Props.Livelock_witness}); the
          runner fails if they {e pass} *)
  bound : int option;
      (** [None]: explored by DPOR.  [Some b]: a tree DPOR cannot exhaust
          within budget, explored by plain DFS under preemption bound [b],
          each schedule to completion (complete for every schedule with at
          most [b] preemptions). *)
  build_instance : unit -> Dpor.instance;
}

val specs : unit -> spec list
(** The full catalog: {!standard_matrix} × every algorithm that runs on
    simulated atomics (both of the paper's algorithms, the segmented queue
    [evequoz-seg], Shann, Michael–Scott [ms-gc], Herlihy–Wing, Valois over
    software DCAS, and SCQ), plus extras: peek raced against mutators and
    a three-thread scenario (Algorithms 1 and 2; three threads on Shann
    too), the sharded facade's steal-sweep race, the batch-run commit and
    drain races on the tag-protocol cells, the segmented queue's
    grow-during-drain race, the production eventcount under simulation
    (park/wake with no lost wakeup), and the seeded-bug scenarios
    ([expect = `Violation _]): a deliberately blocking toy and a
    two-writer livelock toy, both claimed lock-free, the eventcount
    handshake with its Dekker re-check removed, the segmented queue's
    retire with the hazard hand-off skipped, and SCQ without its threshold
    budget. *)

val algorithms : string list
(** Every [algorithm] in {!specs}, in catalog order — the queue
    algorithms plus the catalog-only pseudo-algorithms ([sharded-llsc],
    [evequoz-seg-noretire], [scq-nothreshold],
    [sim-wait], [toy-blocking], [toy-livelock]). *)

val find : algorithm:string -> scenario:string -> spec option
(** Look a spec up by its NBQ-FAULT-REPRO key. *)

val explore :
  ?max_steps:int ->
  ?max_schedules:int ->
  ?dpor:bool ->
  ?preemption_bound:int ->
  spec ->
  Dpor.stats
(** {!Dpor.explore} the spec in its own mode: DPOR, or plain DFS under
    its [bound].  [~dpor:false] forces plain DFS (the reference mode
    reduction factors are measured against); [preemption_bound] then
    overrides the spec's bound.  [max_steps] defaults to 60, which keeps
    every catalog spec exhaustive, except for a spec that carries a
    [bound]: 10 000, so each of its schedules runs to completion instead
    of being cut and finished by the fair continuation.  Raises
    {!Sim.Violation}. *)

val dump_schedule : spec -> int list -> out_channel -> unit
(** Re-execute [schedule] on a fresh instance of [spec], printing every
    step's task and atomic-location access, a short fair continuation
    (so liveness counterexamples show the loop they are stuck in), and
    the merged timeline of counted hook points rendered by
    {!Nbq_trace.Export.timeline_of} — the interleaving dump printed next
    to a violation's NBQ-FAULT-REPRO line. *)
