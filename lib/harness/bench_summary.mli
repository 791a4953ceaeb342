(** The machine-readable bench trajectory ([results/bench_summary.json]):
    one row per bench x queue x variant x domain count, carrying
    throughput and sampled latency percentiles.  The bench driver's
    presets merge-append rows; [bin/bench_compare] diffs two files. *)

val schema : string
(** ["nbq-bench-summary"]. *)

val version : int
val default_path : string

type row = {
  bench : string;  (** emitting preset, by bench name: "fig6", "contend", ... *)
  queue : string;
  variant : string;  (** bench-specific sub-configuration; [""] when none *)
  domains : int;
  runs : int;
  items : int;  (** items moved, summed over runs and domains *)
  mitems_per_s : float;
  p50_ns : float;  (** sampled op latency (enq+deq merged); nan = not measured *)
  p99_ns : float;
  p999_ns : float;
}

val key : row -> string * string * string * int
(** The merge identity: (bench, queue, variant, domains). *)

val row_of_measurement :
  bench:string -> ?variant:string -> Runner.measurement -> row
(** Throughput from items over summed per-run seconds; percentiles from
    the measurement's metrics snapshot (enq and deq histograms merged),
    nan when the run was unmetered. *)

val to_json : row list -> Nbq_obs.Sink.json
val of_json : Nbq_obs.Sink.json -> (row list, string) result

val read : string -> (row list, string) result

val fresh_env : string
(** ["NBQ_BENCH_FRESH"].  When this environment variable names a file,
    {!write} additionally merge-mirrors the batch being written (not the
    pre-existing trajectory rows) into it.  CI points it at a scratch
    file wiped before the bench smoke, then hands it to
    [bench_compare --gate --fresh] so a family that produced zero fresh
    rows cannot hide behind the trajectory file's merge semantics. *)

val write : ?path:string -> row list -> int
(** Merge the rows into the file (existing rows with a matching {!key} are
    replaced, others kept), creating the parent directory if needed;
    returns the total row count written.  See {!fresh_env} for the
    fresh-rows mirror. *)
