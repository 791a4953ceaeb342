(** The flight recorder: per-domain SPSC rings behind one armed flag.

    Always compiled, off by default.  Disarmed, every hook is a single
    atomic flag read; armed, operation spans are sampled 1-in-[sample] and
    the deep probe events record only inside a sampled span, keeping armed
    overhead under the bin/check.sh gate.  [~sample:1] ("full" mode)
    records every operation and every event — the torture/exploration
    setting, where the dump matters and throughput does not. *)

type t

val create : ?ring_bits:int -> ?sample:int -> unit -> t
(** [ring_bits] (default 12) sizes each per-domain ring at [2^ring_bits]
    records.  [sample] (default 64, rounded up to a power of two) is the
    span sampling period; [<= 1] selects full mode. *)

val arm : t -> unit
(** Start recording.  Resets span/sampling state on the existing rings —
    call between operations, not while domains are mid-operation. *)

val disarm : t -> unit
val armed : t -> bool

val full : t -> bool
(** [sample <= 1]: every operation spanned, every event recorded.  The
    instrument layer keys on this: deep in-algorithm probe events are
    attached only in full mode (torture/exploration), so the sampled
    armed mode — the one the overhead gate measures — pays per-hook cost
    nowhere and per-op cost once. *)

val epoch_ns : t -> int
(** Monotonic-ns origin; record timestamps are relative to this. *)

val rings : t -> Ring.t list
(** All rings born so far, sorted by domain id. *)

val my_ring : t -> Ring.t
(** The calling domain's ring (created on first use). *)

(** {2 Recording} — each is a no-op unless {!armed} *)

val event : t -> Nbq_obs.Event.t -> unit
(** Deep probe event; recorded only in full mode or inside the calling
    domain's active sampled span. *)

val fault : t -> Nbq_primitives.Hook.point -> unit
(** Fault-window hit; never sampled away. *)

val span_begin : t -> Record.op -> arg:int -> unit
(** Open this domain's operation span (subject to sampling); [arg] is the
    operand word (batch size, or 0). *)

val span_end : t -> Record.op -> arg:int -> unit
(** Close the open span, if any; [arg] carries the result (1 = success /
    items moved, 0 = full/empty). Runs even if disarmed mid-operation. *)

val sample_mask : t -> int
(** [sample - 1]; wrappers keep their own (racy, shared — lost updates
    only perturb the rate) tick and call {!span_open} when
    [tick land sample_mask = 0], so a non-sampled operation — armed or
    not — costs one plain increment and a mask test; even the armed
    read hides behind the sampled branch. *)

val span_open : t -> Record.op -> arg:int -> Ring.t option
(** Unconditionally open a span on the calling domain's ring ([None] iff
    disarmed) and hand the ring back so {!span_close} needs no second
    lookup.  Callers do the sampling (see {!sample_mask}). *)

val span_close : t -> Ring.t -> Record.op -> arg:int -> unit
(** Close the span opened by a [Some]-returning {!span_open} on the same
    domain. *)

(** {2 Hook adapter} *)

val hook : t -> (module Nbq_primitives.Hook.S)
(** Records every window hit with {!fault} and every counted point's
    event ({!Nbq_obs.Event.of_point}) with {!event}.  Compose it right of
    [Metrics.probe m] to keep counters and trace from one seam, and LEFT
    of an injector so the window entry is recorded before the stall or
    crash fires. *)
