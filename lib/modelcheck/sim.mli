(** Stateless model checking of lock-free algorithms (in the style of
    dscheck / CHESS): the controlled scheduler.

    The algorithms in this repository are functors over
    {!Nbq_primitives.Atomic_intf.ATOMIC}.  {!Atomic} is an instrumented
    instantiation in which every atomic access is a {e scheduling point}:
    it performs an effect that suspends the simulated thread and returns
    control to the scheduler.  {!Exec} runs one controlled execution of a
    task array, one step at a time, exposing which tasks are runnable and
    which atomic location each will touch next.  {!Dpor.explore} is the
    explorer built on it: it enumerates the interleavings of a scenario by
    re-execution, with partial-order reduction or as plain
    (optionally preemption-bounded) DFS.

    Because the simulated threads run cooperatively inside one domain,
    plain [ref]s implement the atomics and every execution is fully
    deterministic and reproducible. *)

type access = { loc : int; kind : [ `Read | `Write ] }
(** The shared-memory footprint of one scheduling point: which atomic
    location the resuming task is about to touch, and whether it may write
    it.  CAS and fetch-and-add announce themselves as writes even when
    they end up failing — conservative for DPOR, never unsound. *)

module Atomic : Nbq_primitives.Atomic_intf.ATOMIC
(** Instrumented atomics.  Only meaningful inside a task run by {!Exec}
    or under {!run_sequential}; calling them elsewhere raises
    [Effect.Unhandled]. *)

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
    task will touch next, and single-stepping.  {!Dpor} is built on it. *)
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

exception Violation of { schedule : int list; message : string }
(** Raised by {!Dpor.explore} when a check fails after some schedule;
    [schedule] is the choice sequence that reproduces it
    ({!Dpor.replay}). *)

val run_sequential : (unit -> 'a) -> 'a
(** Run code that uses {!Atomic} outside the explorer, ignoring the
    scheduling points (each Yield resumes immediately).  For building
    scenario pre-state, e.g. pre-filling a simulated queue. *)
