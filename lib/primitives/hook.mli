(** The one hook seam threaded through the algorithms: named protocol
    points.

    Every algorithm functor takes an {!S} and calls [hit p] each time
    execution reaches point [p].  The same call serves every consumer: the
    metrics hub counts it ([Nbq_obs.Metrics.probe]), the flight recorder
    traces it ([Nbq_trace.Recorder.hook]), the fault injector stalls or
    crashes the thread inside it ([Nbq_fault.Injector.hook]), and the
    model checker turns it into a scheduling point
    ([Nbq_modelcheck.Sim.Yield_at_windows]).  {!compose} fans one call out
    to several consumers.  Uninstrumented builds use {!Noop}; the build has
    no flambda, so each point still costs one indirect call to an empty
    function.

    Points come in two kinds.

    {b Windows} ({!windows}) are the linearization-critical instants of
    the paper's progress and space claims: a thread may stall — or die —
    exactly there, and the remaining threads must still complete
    operations while the tag-variable registry stays bounded.  Their
    kebab-case names are what [torture --point] accepts.
    - [Ll_reserve] — on entry to a load-linked, before the cell is read.
      The victim holds nothing yet.
    - [Slot_swap] — in the CAS-simulated LL/SC, {e just after} the handle's
      tag marker was swapped into the cell (in Blelloch–Wei, after the
      announcement was published).  A victim frozen here has published its
      tag and never returns: the paper's §5 window, which other threads
      must resolve by reading through the tag variable.
    - [Sc_attempt] — before the store-conditional's CAS.  In the simulated
      LL/SC the victim still owns an installed marker that others must be
      able to steal.
    - [Tag_register] — after a tag variable was acquired (refcount 0→1) but
      before the handle is returned.  A crash here abandons one owned
      variable (the paper accepts this bounded leak).
    - [Tag_reregister] / [Tag_deregister] — on entry to the corresponding
      registry protocol calls.
    - [Counter_bump] — after a slot update succeeded but before the lagging
      [Head]/[Tail] counter is CASed forward; other threads must help
      (paper E11-E13 / D11-D13).
    - [Seg_append] — in the segmented unbounded queue, after the tail
      segment was observed full but before the fresh segment is linked.
      A victim frozen here may hold an allocated-but-unlinked segment;
      other enqueuers must be able to append their own.
    - [Seg_retire] — after a drained segment's successor was observed but
      before the head pointer swings and the old segment is handed to
      reclamation; other dequeuers must complete the hand-off themselves.
    - [Shard_steal] — in a sharded front-end, after the home shard
      reported full/empty but before any foreign shard is probed.  The
      victim holds no reservation on any ring.
    - [Op_gap] — between two queue operations, holding nothing.  Hit by
      harness-level wrappers only; meaningful for every registry queue.
    - [Park_window] — in the wait layer, after a waiter was published and
      the condition re-checked, immediately before the domain sleeps: the
      classic lost-wakeup window.
    - [Wake_lost] — in a wake path, after the eventcount's sequence
      counter was bumped but before any popped waiter is signalled.
      Parked domains must still be woken by the bounded-park backstop.
    - [Faa_cycle] — in SCQ, just after a fetch-and-add handed out a
      head/tail ticket but before the slot the ticket names is read.
    - [Threshold_reset] — after an SCQ enqueue installed its entry but
      before the threshold is restored to [3n-1].
    - [Catchup] — inside SCQ's dequeue-side [catchup] loop, before the CAS
      that drags [tail] up to [head + 1].

    {b Counted events} mark something that happened, at a program point
    apart from any window:
    - [Ll_reserved] — a load-linked reservation was taken (after the
      marker swap in the tag protocol, after revalidation in
      Blelloch–Wei; it sits apart from [Ll_reserve], which also fires on
      every retry);
    - [Sc_fail] — a store-conditional on the {e update} path failed;
    - [Tail_help] / [Head_help] — the operation helped advance a lagging
      [Tail]/[Head] on behalf of a delayed thread;
    - [Tag_recycle] — a registration reused a free tag variable;
    - [Shard_stolen] — a sharded front-end completed an operation on a
      foreign shard (after the [Shard_steal] window, once per success);
    - [Wait_park] — a blocked operation put its domain to sleep (one wait
      can park several times);
    - [Wait_wake] — a wake path delivered a signal to a parked waiter;
    - [Wait_cancel] — a published waiter withdrew without consuming a
      wake.

    Where a window and a count sat at the same program point they are one
    point: [Tag_register], [Tag_reregister] and [Tag_deregister] count
    themselves, [Seg_append] counts as a tail help, and [Seg_retire] and
    [Threshold_reset] count as head helps (the mapping is
    [Nbq_obs.Event.of_point]). *)

type point =
  | Ll_reserve
  | Slot_swap
  | Sc_attempt
  | Tag_register
  | Tag_reregister
  | Tag_deregister
  | Counter_bump
  | Seg_append
  | Seg_retire
  | Shard_steal
  | Op_gap
  | Park_window
  | Wake_lost
  | Faa_cycle
  | Threshold_reset
  | Catchup
  | Ll_reserved
  | Sc_fail
  | Tail_help
  | Head_help
  | Tag_recycle
  | Shard_stolen
  | Wait_park
  | Wait_wake
  | Wait_cancel

val windows : point list
(** The fault windows, in declaration order. *)

val all : point list
(** Every point: {!windows}, then the counted events. *)

val is_window : point -> bool

val to_string : point -> string
(** Stable kebab-case name, e.g. ["slot-swap"]. *)

val of_string : string -> point option
(** Inverse of {!to_string} on {!windows} (the names [torture --point]
    accepts); [None] for counted events. *)

(** The hook interface.  [hit p] may return (nothing to do), count or
    record, block (stall the calling thread inside the window), raise
    (crash the operation mid-window), or yield (a model-checker scheduling
    point).  Implementations on hot paths must be cheap, non-blocking and
    allocation-free unless they mean to stall. *)
module type S = sig
  val hit : point -> unit
end

(** Every [hit] does nothing: the uninstrumented instantiation. *)
module Noop : S

val compose : (module S) -> (module S) -> (module S)
(** [compose a b] calls [a.hit p] then [b.hit p].  Put the hooks that must
    observe the window {e before} the fault fires (metrics, the flight
    recorder) on the left and the one that stalls or crashes (the
    injector) on the right. *)
