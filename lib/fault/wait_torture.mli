(** Stall/crash torture for the parking layer ([Nbq_wait]).

    The wait layer's robustness claim (DESIGN.md §10) is sharper than
    lock-freedom: a domain parked on an eventcount must be woken —
    promptly by a signal, or within a bounded number of ~1ms ticks by the
    backstop — {e no matter what happens to the waker}.  Each torture
    round arms one of the two wait-layer injection points and checks that
    claim with real parked domains:

    - {!Nbq_primitives.Hook.Wake_lost} — the victim is a {e waker} that
      stalls or dies after bumping the eventcount's sequence counter but
      before delivering any signal.  The parked consumer must still
      obtain its item and return [`Ok] before a generous deadline: the
      seq-bump-first discipline plus bounded park slices convert the lost
      signal into a one-tick delay.
    - {!Nbq_primitives.Hook.Park_window} — the victim is a {e waiter}
      that stalls or dies between publishing its waiter node and going to
      sleep, leaving a claimable node on the stack.  A {e second}, live
      consumer must still obtain an item even when a wake is swallowed by
      the dead/stalled victim's node.

    Rounds are cheap (~1–2ms: one tick of backstop latency plus domain
    spawn/join), so the lost-wakeup acceptance gate runs 10k of them. *)

type outcome = {
  point : Nbq_primitives.Hook.point;
  action : Injector.action;
  iterations : int;  (** rounds executed *)
  triggered : int;  (** rounds in which the armed point actually fired *)
  completed : int;
      (** rounds in which the live waiter got its item before the
          deadline — the no-strand oracle; anything below [iterations]
          is a lost-wakeup hang caught by the round deadline *)
  max_wait : float;
      (** worst wall-clock seconds any live waiter spent blocked — how
          close the backstop came to the deadline *)
}

val run :
  ?iterations:int ->
  ?deadline_slack:float ->
  point:Nbq_primitives.Hook.point ->
  action:Injector.action ->
  unit ->
  outcome
(** [run ~point ~action ()] executes [iterations] (default 300)
    independent rounds against a fresh eventcount and injector each time.
    [deadline_slack] (default 2s) bounds one round: a live waiter still
    blocked past it counts as not-[completed] instead of hanging the
    suite.  Raises [Invalid_argument] unless [point] is [Park_window] or
    [Wake_lost]. *)

val points : Nbq_primitives.Hook.point list
(** [[Park_window; Wake_lost]] — what {!run} accepts. *)
