(** Ready-made model-checking scenarios for the repository's queues.

    A scenario interleaves a few threads' worth of queue operations on a
    simulated-atomics instantiation of an algorithm and checks every
    completed schedule's history for linearizability against the bounded
    FIFO specification.  Used by the test suite and by
    [bin/modelcheck_run.exe].

    Two surfaces:
    - the legacy {!scenario} builder ({!build}), what {!Sim.explore}
      consumes — a task array plus one end-of-schedule check;
    - the {!spec} catalog ({!specs}), what the DPOR pass
      ({!Dpor.explore}) consumes — the same scenarios as data, each with
      a stable slug for NBQ-FAULT-REPRO lines, its algorithm's declared
      progress class for the liveness layer, and strengthened checks
      (conservation by drain, tag-registry hygiene, per-step index
      invariants) on top of linearizability. *)

type op =
  | Enq of int
  | Deq
  | Peek
  | Enq_batch of int list  (** one batch-run enqueue call (Algorithm 2) *)
  | Deq_batch of int  (** one batch-run dequeue call (Algorithm 2) *)

type scenario = unit -> (unit -> unit) array * (unit -> unit)
(** What {!Sim.explore} consumes. *)

val build :
  algorithm:string ->
  capacity:int ->
  prefill:int list ->
  op list list ->
  scenario
(** [build ~algorithm ~capacity ~prefill threads] — [algorithm] is one of
    {!algorithms}; [threads] is one op-list per simulated thread; the
    prefilled items are folded into the checked history as a prologue.
    Raises [Invalid_argument] on an unknown algorithm name. *)

val algorithms : string list
(** The functorized implementations that can run on simulated atomics:
    both of the paper's algorithms, the Blelloch–Wei constant-time backend
    ([evequoz-bw]), the segmented unbounded queue ([evequoz-seg], for
    which [capacity] means the {e segment} capacity and the FIFO spec is
    unbounded), plus Shann, Tsigas–Zhang, Michael–Scott, Herlihy–Wing and
    Ladan-Mozes–Shavit. *)

val standard_matrix : (string * int * int list * op list list) list
(** The (name, capacity, prefill, threads) tuples every algorithm is
    checked against: concurrent enqueues, enqueue/dequeue races on empty
    and non-empty queues, competing dequeues, the full boundary, and a
    two-ops-each crossing. *)

(** {1 The spec catalog (DPOR pass)} *)

type spec = {
  algorithm : string;
  scenario : string;
      (** slug of the scenario name — stable across sessions; together
          with [algorithm] this is the NBQ-FAULT-REPRO replay key *)
  descr : string;
  progress : Props.progress;  (** the algorithm's declared guarantee *)
  expect : [ `Pass | `Violation ];
      (** [`Violation] marks the seeded-bug scenarios that exist to prove
          the checker convicts — the runner fails if they {e pass} *)
  build_instance : unit -> Dpor.instance;
}

val specs : unit -> spec list
(** The full catalog: {!standard_matrix} × {!algorithms} with
    strengthened checks, plus the post-paper scenarios (PR 3's sharded
    facade steal-sweep race, the batch-run commit and drain races on both
    the tag-protocol and Blelloch–Wei cells, the segmented queue's
    grow-during-drain race), the wait-layer scenarios (the production
    eventcount under simulation: park/wake with no lost wakeup), and the
    seeded-bug scenarios ([expect = `Violation]): a deliberately blocking
    toy claimed lock-free, the eventcount handshake with its Dekker
    re-check removed, Blelloch–Wei reclamation with the announcement scan
    disabled (a recycled reserved buffer loses an item to pointer ABA),
    and the segmented queue's retire with the hazard hand-off skipped (a
    stalled dequeuer reads a recycled segment). *)

val spec_algorithms : string list
(** {!algorithms} plus the catalog-only pseudo-algorithms
    ([sharded-llsc], [evequoz-bw-noscan], [evequoz-seg-noretire],
    [sim-wait], [toy-blocking]). *)

val find : algorithm:string -> scenario:string -> spec option
(** Look a spec up by its NBQ-FAULT-REPRO key. *)

val scenario_of_spec : spec -> scenario
(** Downgrade a spec to the legacy {!Sim.explore} surface (tasks +
    end-of-schedule check; the per-step invariant is dropped). *)

val progress_of_algorithm : string -> Props.progress
(** [evequoz-cas] is {!Props.Obstruction_free} (a CAS-simulated LL/SC
    reservation can be stolen and retaken forever under mutual
    interference), [herlihy-wing] is {!Props.Blocking} (its dequeue waits
    for an enqueuer), everything else — including [evequoz-bw], whose SC
    fails only when a competing SC succeeded — claims
    {!Props.Lock_free}. *)

val dump_schedule : spec -> int list -> out_channel -> unit
(** Re-execute [schedule] on a fresh instance of [spec], printing every
    step's task and atomic-location access, a short fair continuation
    (so liveness counterexamples show the loop they are stuck in), and
    the merged timeline of counted hook points rendered by
    {!Nbq_trace.Export.timeline_of} — the interleaving dump printed next
    to a violation's NBQ-FAULT-REPRO line. *)
