(** Temporal properties for the model checker.

    Safety is a predicate on states — the scenario's completion check and
    per-step invariant carry it.  Liveness is a predicate on {e branches}:
    a schedule cut at the explorer's step bound is continued under a fair
    round-robin scheduler and the outcome classified as a {!divergence};
    {!violation_of} then judges it against the progress guarantee the
    algorithm under test claims. *)

type progress =
  | Lock_free
      (** some thread completes within finitely many steps under any
          scheduler — a livelock or a stuck thread is a violation *)
  | Obstruction_free
      (** isolated threads complete; mutual interference may livelock
          forever (the paper's CAS-simulated LL/SC does) but no thread may
          get irrecoverably stuck *)
  | Blocking
      (** waiting on other threads is part of the contract; only safety is
          checked *)

type divergence =
  | Benign_retry
      (** operations kept completing under the fair continuation — the
          branch is unbounded but productive *)
  | Livelock_witness of { writers : int list }
      (** no operation ever completes although [writers] keep writing
          shared state: the CAS-retry livelock shape *)
  | Stuck of { spinning : int list; parked : int list }
      (** no completions and no writes — every surviving thread re-reads
          state no one will change; a [parked] member is a lost wakeup *)

val progress_to_string : progress -> string
val describe_divergence : divergence -> string

val violation_of : progress -> divergence -> string option
(** The liveness verdict: [Some message] iff this divergence contradicts
    the claimed progress guarantee.  Messages are prefixed ["liveness:"]
    (see {!is_liveness_message}). *)

val is_liveness_message : string -> bool
(** Distinguishes liveness counterexamples from safety ones in
    {!Sim.Violation} messages, for the repro line's [kind=] field. *)
