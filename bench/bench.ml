(* The bench driver: `dune exec bench/bench.exe -- PRESET... [options]`.
   Runs each named preset (bench/presets.ml; listed by --help), merges the
   summary rows into results/bench_summary.json, and exits 1 if any
   preset's check or gate failed. *)

open Cmdliner
module Sweep = Nbq_bench.Sweep
module Presets = Nbq_bench.Presets

let run names o =
  let find name =
    match Presets.find name with
    | Some p -> p
    | None ->
        Printf.eprintf "bench: unknown preset %S\n%!" name;
        exit 2
  in
  let presets = List.map find names in
  if List.exists (fun (p : Sweep.t) -> p.big_heap) presets then
    Sweep.ensure_big_heap ();
  let results = List.map (Sweep.run o) presets in
  (match List.concat_map fst results with
  | [] -> ()
  | rows ->
      let n = Nbq_harness.Bench_summary.write rows in
      Printf.eprintf "bench summary: %s (%d rows)\n%!"
        Nbq_harness.Bench_summary.default_path n);
  if List.for_all snd results then 0 else 1

let opts =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let opt c names docv doc =
    Arg.(value & opt (some c) None & info names ~docv ~doc)
  in
  let list c names docv doc =
    Arg.(value & opt (list c) [] & info names ~docv ~doc)
  in
  let mk runs scale max_threads queues domains csv plot metrics trace =
    { Sweep.runs; scale; max_threads; queues; domains; csv; plot; metrics;
      trace }
  in
  Term.(
    const mk
    $ opt Arg.int [ "runs" ] "N" "Runs per cell (paper: 50); default: the \
                                  preset's."
    $ opt Arg.float [ "scale" ] "S"
        "Fraction of the paper's 100 000 iterations per domain (timed \
         cells last 100 x S seconds); default: the preset's."
    $ opt Arg.int [ "max-threads" ] "N"
        "Drop domain counts above N (a sweep left empty runs at N)."
    $ list Arg.string [ "queue"; "q" ] "NAMES"
        "Replace the preset's queues with these registry rows."
    $ list Arg.int [ "domains"; "d" ] "LIST"
        "Replace the preset's domain counts."
    $ flag "csv" "Print CSV instead of aligned tables."
    $ flag "plot" "Also draw multi-domain sweeps as terminal line charts."
    $ flag "metrics"
        "Run closed-loop cells with the metrics hub: event counts per \
         thousand items, latency percentiles in the summary rows, and \
         results/metrics-*.jsonl."
    $ flag "trace"
        "Re-run each queue with the flight recorder armed and write \
         results/trace-<bench>-<queue>.json for Perfetto; an invalid \
         export fails the run.")

let names =
  let all = List.map (fun (p : Sweep.t) -> p.name) Presets.all in
  let doc = "Presets to run: " ^ String.concat ", " all ^ "." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"PRESET" ~doc)

let () =
  let doc = "Run the paper's figures, the ablations and the bench gates" in
  let cmd = Cmd.v (Cmd.info "bench" ~doc) Term.(const run $ names $ opts) in
  exit (Cmd.eval' cmd)
