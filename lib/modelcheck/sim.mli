(** Stateless model checking of lock-free algorithms (in the style of
    dscheck / CHESS).

    The algorithms in this repository are functors over
    {!Nbq_primitives.Atomic_intf.ATOMIC}.  {!Atomic} is an instrumented
    instantiation in which every atomic access is a {e scheduling point}:
    it performs an effect that suspends the simulated thread and returns
    control to the explorer.  {!explore} then enumerates — by depth-first
    search over the choice tree, re-executing the scenario once per
    schedule — {b every} interleaving of the scenario's threads, invoking a
    user check after each completed execution.

    Because the simulated threads run cooperatively inside one domain,
    plain [ref]s implement the atomics and the exploration is fully
    deterministic and reproducible.

    Retry loops of lock-free algorithms can produce {e unboundedly long}
    schedules under an adversarial scheduler (e.g. two threads endlessly
    stealing each other's LL reservations in the paper's Algorithm 2 — a
    livelock that is measure-zero in wall-clock time but real in the
    schedule tree).  Schedules longer than [max_steps] are cut off and
    counted as {e diverged} rather than explored further; the checker
    therefore verifies every {e terminating} schedule and reports how many
    divergent branches were pruned.  {!Dpor} refines both sides of this
    picture: partial-order reduction over the access footprints exposed by
    {!Exec}, and a fairness probe that classifies diverged branches.

    {!explore} here remains the plain unreduced DFS — the baseline the
    DPOR engine is measured against, and the engine behind the original
    matrix tests. *)

type access = { loc : int; kind : [ `Read | `Write ] }
(** The shared-memory footprint of one scheduling point: which atomic
    location the resuming task is about to touch, and whether it may write
    it.  CAS and fetch-and-add announce themselves as writes even when
    they end up failing — conservative for DPOR, never unsound. *)

module Atomic : Nbq_primitives.Atomic_intf.ATOMIC
(** Instrumented atomics.  Only meaningful inside a thread run by
    {!explore}; calling them elsewhere raises [Effect.Unhandled]. *)

val yield : unit -> unit
(** An explicit scheduling point, for modelling non-atomic interleaving
    inside scenario threads. *)

module Yield_at_windows : Nbq_primitives.Hook.S
(** A hook whose [hit] yields at every fault window (and ignores counted
    points): instantiate a [Make_probed] functor over {!Atomic} with it to
    make the windows scheduling points, so the explorer preempts simulated
    threads exactly where real ones could be stalled or killed. *)

val op_completed : unit -> unit
(** Scenario threads call this when a queue operation completes.  It is
    {e not} a scheduling point (the handler resumes immediately); it feeds
    the liveness checker's notion of progress: a diverged branch in which
    no thread ever reaches [op_completed] again is a livelock witness. *)

val current_task : unit -> int
(** Index of the simulated task performing the call ([-1] under
    {!run_sequential}).  Lets simulated per-thread state (e.g. the parker
    of the simulated wait layer) be keyed without domains. *)

val mark_parked : bool -> unit
(** Waiting-layer metadata: the calling task declares itself parked (or
    unparked).  Not a scheduling point.  Used by divergence classification
    to tell a lost wakeup (parked forever) from a plain spin. *)

val reset_locations : unit -> unit
(** Reset the global location-id counter.  Explorers call this before each
    scenario build so location ids are deterministic across the
    re-executions DPOR compares. *)

(** The stepping core: one controlled execution of a task array, exposing
    exactly what a scheduler needs — who is runnable, what each runnable
    task will touch next, and single-stepping.  {!explore} and {!Dpor}
    are built on it. *)
module Exec : sig
  type footprint =
    | Access of access
        (** paused immediately before this atomic access *)
    | Pure  (** paused at a plain {!yield}; the next step touches nothing *)
    | Unstarted
        (** never ran; its first step runs up to its first scheduling
            point, performing no shared access on the way *)

  type t

  type step_info = {
    performed : access option;
        (** the access the step performed on resumption, if any *)
    progressed : bool;  (** did the step pass an {!op_completed}? *)
  }

  val start : (unit -> unit) array -> t
  val ntasks : t -> int

  val enabled : t -> int list
  (** Unfinished task indices, ascending. *)

  val pending : t -> int -> footprint
  (** What the task will do when next scheduled.  The yield fires before
      the access, so this is known without running it. *)

  val parked : t -> int -> bool
  (** Whether the task last declared itself parked via {!mark_parked}. *)

  val step : t -> int -> step_info
  (** Run one task until its next scheduling point (or completion).
      Raises [Invalid_argument] on a finished task. *)
end

type stats = {
  schedules : int;      (** schedules executed (completed + diverged) *)
  completed : int;      (** schedules in which every thread finished *)
  diverged : int;       (** schedules cut off at [max_steps] *)
  exhaustive : bool;    (** whether the whole tree was explored within
                            [max_schedules] *)
}

exception Violation of { schedule : int list; message : string }
(** Raised by {!explore} when the user check fails after some schedule;
    [schedule] is the choice sequence that reproduces it. *)

val explore :
  ?max_steps:int ->
  ?max_schedules:int ->
  ?preemption_bound:int option ->
  (unit -> (unit -> unit) array * (unit -> unit)) ->
  stats
(** [explore scenario] enumerates interleavings.  [scenario ()] must build
    {e fresh} state and return [(threads, check)]: the simulated threads to
    interleave and a check run after every completed schedule (raise to
    signal a violation — it is re-raised as {!Violation} with the
    reproducing schedule).

    [preemption_bound] (default [Some 4]) caps context switches away from a
    still-runnable thread, CHESS-style: coverage is then complete for all
    schedules with at most that many preemptions, and — because a lock-free
    retry loop only re-runs when another thread interferes — every schedule
    terminates, so nothing diverges.  [None] explores the unbounded tree
    (then livelock branches are cut at [max_steps] and counted in
    [diverged]).

    [max_steps] (default 10_000) bounds one schedule's length;
    [max_schedules] (default 1_000_000) bounds the exploration. *)

val run_schedule :
  ?max_steps:int ->
  (unit -> (unit -> unit) array * (unit -> unit)) -> int list ->
  [ `Completed | `Diverged ]
(** Re-execute one specific schedule (e.g. a {!Violation.schedule}) for
    debugging; runs the check if the schedule completes.  Choices beyond
    the list fall back to the lowest enabled thread.  [max_steps] (default
    unbounded) cuts the run off as [`Diverged] — pass the schedule length
    to replay a liveness counterexample without running its infinite
    suffix. *)

val run_sequential : (unit -> 'a) -> 'a
(** Run code that uses {!Atomic} outside the explorer, ignoring the
    scheduling points (each Yield resumes immediately).  For building
    scenario pre-state, e.g. pre-filling a simulated queue. *)
