(** Per-operation latency capture and percentile summaries.

    The paper reports completion times only; under preemptive
    multithreading the {e tail} of the per-operation latency distribution
    is where blocking and non-blocking queues differ most (a preempted
    lock holder stalls every blocked thread for a scheduling quantum,
    while lock-free threads keep finishing).  the `latency` bench preset measures
    exactly that; this module is the capture substrate.

    Each worker records into its own pre-sized buffer (no allocation or
    synchronization on the hot path beyond reading the clock); buffers are
    merged and summarized after the run. *)

type recorder
(** One worker's latency buffer.  Single-owner. *)

val recorder : capacity:int -> recorder
(** Pre-size for [capacity] samples; extra samples are dropped (counted). *)

val record : recorder -> float -> unit
(** Add one latency sample (seconds). *)

val time : recorder -> (unit -> 'a) -> 'a
(** Run a thunk, recording its wall-clock duration. *)

val dropped : recorder -> int

type summary = {
  samples : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
}

val summarize : recorder list -> summary
(** Merge and summarize (nearest-rank percentiles).  Raises
    [Invalid_argument] if no samples were recorded. *)

val percentile : float array -> float -> float
(** [percentile sorted q] — nearest-rank percentile [q ∈ \[0,1\]] of a
    sorted array; exposed for tests. *)

val pp_summary : Format.formatter -> summary -> unit
