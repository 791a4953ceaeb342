(** Runtime fault controller behind a {!Nbq_primitives.Hook.S} hook.

    An injector is armed for one {e fault window} and fires exactly once,
    on the [after]-th hit of that point (counted across all domains with a
    fetch-and-add, so the victim is unique even under races).  What firing
    does is the {!action}:

    - {!Stall} — the victim spins inside the injection point until
      {!release}, modelling a thread preempted (or paused by the OS) at the
      worst possible instant.  The paper's lock-freedom claim is exactly
      that everyone else keeps completing operations meanwhile.
    - {!Crash} — the victim raises {!Crashed}, unwinding out of the
      protocol mid-flight: reservations stay installed, tag variables stay
      owned, counters stay lagging.  This models a thread dying inside an
      operation (paper §5's abandoned-marker adversary).

    One injector may be shared by any number of domains; all operations are
    lock-free.  Re-{!arm} only while no thread can be inside a hooked
    operation (between torture rounds). *)

exception Crashed
(** Raised inside the armed injection point by a {!Crash} action.  The
    torture harness's workers treat it as thread death: they stop without
    any cleanup, abandoning whatever the protocol had acquired. *)

type action = Stall | Crash

val action_to_string : action -> string

type t
(** Shared controller state. *)

val create : unit -> t
(** A fresh, disarmed injector: every {!hit} is a no-op. *)

val arm : t -> point:Nbq_primitives.Hook.point -> action:action -> after:int -> unit
(** [arm t ~point ~action ~after] resets all counters and arms the [after]-th
    ([>= 1], across all domains) hit of [point] to perform [action].  Raises
    [Invalid_argument] if [after < 1]. *)

val disarm : t -> unit
(** Back to no-op.  Does not release an already-stalled victim. *)

val release : t -> unit
(** Let a {!Stall}ed victim resume.  Idempotent; harmless when nothing is
    stalled. *)

val hit : t -> Nbq_primitives.Hook.point -> unit
(** The hook body: count the hit and act if it is the armed one.  Exposed
    directly (besides {!hook}) so harness-level points like
    {!Nbq_primitives.Hook.Op_gap} can be fired from plain code. *)

val hook : t -> (module Nbq_primitives.Hook.S)
(** First-class hook for instantiating [Make_probed] functors:
    [let module H = (val Injector.hook t) in ...].  Points other than the
    armed one pass through untouched. *)

val hits : t -> int
(** Hits of the armed point since {!arm} (including the triggering one). *)

val triggered : t -> bool
(** Whether the armed hit has happened. *)

val victim : t -> int option
(** The domain id (as [int]) that triggered, once {!triggered}. *)
