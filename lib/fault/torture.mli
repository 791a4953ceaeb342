(** Stall/crash torture for the queue stack.

    One torture round freezes (or kills) exactly one domain inside a chosen
    injection point while the other domains keep hammering the queue, and
    then checks the paper's robustness claims concretely:

    - {b progress} — every non-victim worker completes at least
      [target_ops] operations while the victim is held in the window
      (lock-freedom: no thread's delay blocks the others);
    - {b conservation} — after release/join, successful enqueues equal
      successful dequeues plus a full drain (exactly for a stall; a crashed
      thread's single in-flight item may be present or lost, so ±1);
    - {b registry hygiene} — for the CAS queue, the tag-variable registry
      stays bounded even when a crash abandons a registered variable
      mid-protocol (the paper-§5 adversary);
    - {b recovery} — a post-fault enqueue/dequeue roundtrip succeeds.

    Deep targets (the Evéquoz, segmented and SCQ queues) are rebuilt
    through their [Make_probed] functors with the injector's hook, so
    faults fire {e inside} the algorithm; every
    other registry queue is a generic target supporting only the
    harness-level {!Nbq_primitives.Hook.Op_gap} point (stalling between
    operations — the strongest fault one can inject without instrumenting
    the implementation, and the only one lock-based queues survive). *)

type built = {
  enqueue : int -> bool;
  dequeue : unit -> int option;
  audit : unit -> Nbq_primitives.Llsc_cas.audit option;
      (** Tag-registry snapshot; [None] for queues without a registry. *)
}
(** A queue instance wired to an injector, reduced to what the torture
    loop needs.  For the CAS queue, [enqueue]/[dequeue] register and
    deregister a fresh handle around every call, so all tag-protocol
    windows fire each operation and a crash abandons the handle. *)

type target
(** A queue that can be tortured: a name, its injectable points, and a
    builder. *)

val name : target -> string

val points : target -> Nbq_primitives.Hook.point list
(** The target's deep points plus {!Nbq_primitives.Hook.Op_gap} (always
    last). *)

val evequoz_cas : target
(** All seven deep points: the LL/SC-simulation windows, the tag-registry
    protocol and the counter-bump helping window. *)

val evequoz_llsc : target
(** [Ll_reserve], [Sc_attempt] (fired by the injected ideal cells) and
    [Counter_bump]. *)

val evequoz_cas_sharded : target
(** ["evequoz-cas-shard4"]: four fault-injected CAS rings behind an
    [Nbq_scale.Sharded] facade with adversarial round-robin affinity (the
    default domain-affine placement never opens the steal window under
    the paired torture workload).  All of {!evequoz_cas}'s points fire on
    whichever ring an operation lands, plus
    {!Nbq_primitives.Hook.Shard_steal} — a victim frozen there holds no
    reservation on any ring.  [audit] sums the per-ring tag registries. *)

val evequoz_seg : target
(** ["evequoz-seg"]: the segmented unbounded queue over fault-injected
    CAS cells, small segments so the chain churns constantly.  All of
    {!evequoz_cas}'s points fire inside whichever segment an operation
    lands, plus {!Nbq_primitives.Hook.Seg_append} (tail observed full,
    successor not yet linked) and {!Nbq_primitives.Hook.Seg_retire}
    (successor observed, head not yet swung).  A crash abandons the
    per-op hazard record, so reclamation runs against a permanently
    published hazard. *)

val scq : target
(** ["scq"]: the SCQ ring behind its admission gate, over fault-injected
    atomics, capacity clamped to 2.  [Faa_cycle] (a ticket taken by FAA,
    slot untouched — the abandoned ticket must be recovered by the
    unsafe-bit/bump machinery, at worst stranding one credit),
    [Threshold_reset] (item installed, threshold not restored — other
    installs must keep re-arming dequeuers), and [Catchup] (inside the
    tail-repair loop).  A victim frozen anywhere stays in flight at the
    gate, so survivors' "full" verdicts spin out its bound.  No tag
    registry, so no [audit]. *)

val targets : unit -> target list
(** The deep targets plus a generic (Op_gap-only) target for every other
    queue in {!Nbq_harness.Registry.concurrent}. *)

val find : string -> target option

type outcome = {
  target : string;
  point : Nbq_primitives.Hook.point;
  action : Injector.action;
  triggered : bool;  (** the armed point actually fired *)
  survivors : int;  (** workers not selected as the victim *)
  min_survivor_ops : int;
      (** least operations any survivor completed while the victim was held
          in the window *)
  balance : int;  (** drained + dequeued - enqueued; 0 = exact *)
  conserved : bool;  (** balance within the action's tolerance *)
  audit : Nbq_primitives.Llsc_cas.audit option;
      (** registry snapshot after drain and recovery, when applicable *)
  recovered : bool;  (** post-fault roundtrip succeeded *)
}

val run :
  ?workers:int ->
  ?target_ops:int ->
  ?capacity:int ->
  ?trigger_after:int ->
  ?timeout:float ->
  ?tracer:Nbq_trace.Recorder.t ->
  target ->
  point:Nbq_primitives.Hook.point ->
  action:Injector.action ->
  outcome
(** [run t ~point ~action] executes one torture round: build a fresh
    instance of [t] wired to a fresh injector, arm the [trigger_after]-th
    (default 50) hit of [point] with [action], spawn [workers] (default 4,
    minimum 2) domains looping enqueue/dequeue pairs, wait for the trigger,
    require every survivor to advance [target_ops] (default 10_000)
    operations, then stop, release, join and evaluate the oracles above.
    [timeout] (default 30s) bounds the whole round; a round that times out
    reports [triggered = false] or a small [min_survivor_ops] rather than
    hanging.  Raises [Invalid_argument] if [point] is not one of
    [points t] or [workers < 2].

    With [?tracer] (use a full-mode recorder, [~sample:1]) the instance is
    built with the recorder's hooks composed into the same seams as the
    injector — fault-window records land {e before} the stall/crash fires —
    and the recorder is armed before workers spawn, so a failing round can
    be explained by [Nbq_trace.Export.dump] next to its repro line. *)
