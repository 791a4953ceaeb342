(* Exhaustive small-scope verification from the command line: run the
   model-checking spec catalog (Scenarios.specs) through the explorer, each
   spec in its own mode (DPOR, or preemption-bounded DFS for the trees DPOR
   cannot exhaust), check safety on every completed schedule and the
   declared progress guarantee on every divergent one, and fail loudly —
   with an NBQ-FAULT-REPRO v2-mc line and the full interleaving dump — on
   any outcome other than the spec's expected one (a pass, or a seeded
   violation of the expected kind).

     dune exec bin/modelcheck_run.exe -- -a evequoz-llsc --min-reduction 5
     dune exec bin/modelcheck_run.exe -- --json

   --no-dpor switches the same engine to plain (optionally
   preemption-bounded) DFS — the baseline DPOR's reduction factor is
   measured against. *)

open Cmdliner
module MC = Nbq_modelcheck
module Sink = Nbq_obs.Sink

type row = {
  spec : MC.Scenarios.spec;
  stats : MC.Dpor.stats option;  (* None: violation ended exploration *)
  violation : (int list * string) option;
  baseline : (int * bool) option;  (* DFS schedules, DFS budget exhausted *)
  seconds : float;
}

let explore_spec ~dpor ?preemption_bound ?max_steps ~max_schedules spec =
  let t0 = Unix.gettimeofday () in
  let stats, violation =
    match
      MC.Scenarios.explore ~dpor ?preemption_bound ?max_steps ~max_schedules
        spec
    with
    | stats -> (Some stats, None)
    | exception MC.Sim.Violation { schedule; message } ->
        (None, Some (schedule, message))
  in
  (stats, violation, Unix.gettimeofday () -. t0)

(* The unreduced-DFS cost of a spec, for the reduction-factor column.  The
   budget is capped relative to the DPOR count: once DFS has spent
   [min_reduction] times DPOR's schedules the factor is established, so
   exploring further buys nothing.  A violation found by the baseline is
   fine (it explores a superset ordering); treat its schedule count at the
   point of discovery as a lower bound. *)
let baseline_of ?max_steps ~max_schedules ~min_reduction spec dpor_schedules =
  let budget = min max_schedules ((min_reduction * dpor_schedules) + 1) in
  match explore_spec ~dpor:false ?max_steps ~max_schedules:budget spec with
  | Some st, _, _ -> (st.schedules, not st.exhaustive)
  | None, _, _ -> (budget, true)

let print_violation (spec : MC.Scenarios.spec) schedule message =
  let repro =
    MC.Repro.of_violation ~algorithm:spec.algorithm ~scenario:spec.scenario
      ~message schedule
  in
  Printf.printf "  %s\n  %s\n" message (MC.Repro.to_line repro);
  MC.Scenarios.dump_schedule spec schedule stdout

let json_of_row r =
  let s = r.spec in
  Sink.Obj
    ([
       ("algorithm", Sink.String s.algorithm);
       ("scenario", Sink.String s.scenario);
       ("progress", Sink.String (MC.Props.progress_to_string s.progress));
       ( "expect",
         Sink.String
           (match s.expect with
           | `Pass -> "pass"
           | `Violation `Safety -> "safety violation"
           | `Violation (`Liveness _) -> "liveness violation") );
       ( "bound",
         match s.bound with None -> Sink.Null | Some b -> Sink.Int b );
       ("seconds", Sink.Float r.seconds);
     ]
    @ (match r.stats with
      | Some st ->
          [
            ("schedules", Sink.Int st.schedules);
            ("completed", Sink.Int st.completed);
            ("resolved", Sink.Int st.resolved);
            ("diverged", Sink.Int (MC.Dpor.diverged st));
            ("livelock_witnesses", Sink.Int st.livelock);
            ("exhaustive", Sink.Bool st.exhaustive);
          ]
      | None -> [])
    @ (match r.violation with
      | Some (schedule, message) ->
          [
            ("violation", Sink.String message);
            ( "repro",
              Sink.String
                (MC.Repro.to_line
                   (MC.Repro.of_violation ~algorithm:s.algorithm
                      ~scenario:s.scenario ~message schedule)) );
            ("schedule", Sink.List (List.map (fun c -> Sink.Int c) schedule));
          ]
      | None -> [])
    @
    match r.baseline with
    | Some (n, capped) ->
        [
          ("dfs_schedules", Sink.Int n);
          ("dfs_budget_exhausted", Sink.Bool capped);
        ]
    | None -> [])

let run algorithms scenarios dpor preemption_bound max_steps max_schedules
    min_reduction require_exhaustive json_path =
  let specs =
    MC.Scenarios.specs ()
    |> List.filter (fun (s : MC.Scenarios.spec) ->
           (algorithms = [] || List.mem s.algorithm algorithms)
           && (scenarios = [] || List.mem s.scenario scenarios))
  in
  (match
     List.filter
       (fun a -> not (List.mem a MC.Scenarios.algorithms))
       algorithms
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown algorithm(s): %s (know: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " MC.Scenarios.algorithms);
      exit 2);
  if specs = [] then begin
    Printf.eprintf "no scenario matches the selection\n";
    exit 2
  end;
  let failures = ref 0 in
  Printf.printf "%-14s %-20s %10s %10s %8s %5s %9s %7s\n" "algorithm"
    "scenario" "schedules" "completed" "diverged" "full?" "reduction" "verdict";
  let rows =
    List.map
      (fun (spec : MC.Scenarios.spec) ->
        let stats, violation, seconds =
          explore_spec ~dpor ?preemption_bound ?max_steps ~max_schedules spec
        in
        let baseline =
          match (min_reduction, stats) with
          | Some r, Some st when dpor && spec.bound = None && violation = None
            ->
              Some (baseline_of ?max_steps ~max_schedules ~min_reduction:r spec
                      st.schedules)
          | _ -> None
        in
        (* The divergence class of a liveness bug is the tests' to check
           (by replay); here the kind must match. *)
        let ok =
          match (violation, spec.expect) with
          | None, `Pass -> true
          | Some (_, message), `Violation kind ->
              MC.Props.is_liveness_message message = (kind <> `Safety)
          | _ -> false
        in
        if not ok then incr failures;
        let reduction_cell =
          match (baseline, stats) with
          | Some (n, capped), Some st when st.schedules > 0 ->
              Printf.sprintf "%s%.1fx"
                (if capped then ">=" else "")
                (float_of_int n /. float_of_int st.schedules)
          | _ -> (
              match spec.bound with
              | Some b when dpor -> Printf.sprintf "dfs b=%d" b
              | _ -> "-")
        in
        (match (stats, violation) with
        | Some st, None ->
            Printf.printf "%-14s %-20s %10d %10d %8d %5s %9s %7s\n%!"
              spec.algorithm spec.scenario st.schedules st.completed
              (MC.Dpor.diverged st)
              (if st.exhaustive then "yes" else "NO")
              reduction_cell
              (if ok then "pass" else "FAIL")
        | _, Some (schedule, message) ->
            Printf.printf "%-14s %-20s %59s %7s\n%!" spec.algorithm
              spec.scenario "VIOLATION"
              (if ok then "seeded" else "FAIL");
            if ok then
              (* A seeded bug convicted as designed: print the repro line
                 (tests and docs reference it) but skip the full dump. *)
              Printf.printf "  %s\n  %s\n" message
                (MC.Repro.to_line
                   (MC.Repro.of_violation ~algorithm:spec.algorithm
                      ~scenario:spec.scenario ~message schedule))
            else print_violation spec schedule message
        | None, None -> assert false);
        (match (stats, spec.expect) with
        | Some st, `Pass when require_exhaustive && not st.exhaustive ->
            incr failures;
            Printf.printf "  FAIL: exploration not exhaustive (budget %d)\n"
              max_schedules
        | _ -> ());
        (match (min_reduction, baseline, stats) with
        | Some r, Some (n, capped), Some st when st.schedules > 0 ->
            let factor = float_of_int n /. float_of_int st.schedules in
            if (not capped) && factor < float_of_int r then begin
              incr failures;
              Printf.printf "  FAIL: reduction %.1fx < required %dx\n" factor r
            end
        | _ -> ());
        { spec; stats; violation; baseline; seconds })
      specs
  in
  (match json_path with
  | None -> ()
  | Some path ->
      let dir = Filename.dirname path in
      if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
        Unix.mkdir dir 0o755;
      let oc = open_out path in
      output_string oc
        (Sink.json_to_string
           (Sink.Obj
              [
                ( "config",
                  Sink.Obj
                    [
                      ("dpor", Sink.Bool dpor);
                      ( "max_steps",
                        match max_steps with
                        | None -> Sink.Null
                        | Some n -> Sink.Int n );
                      ("max_schedules", Sink.Int max_schedules);
                      ( "preemption_bound",
                        match preemption_bound with
                        | None -> Sink.Null
                        | Some b -> Sink.Int b );
                    ] );
                ("rows", Sink.List (List.map json_of_row rows));
                ("failures", Sink.Int !failures);
              ]));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
  if !failures > 0 then exit 1

(* --- CLI ------------------------------------------------------------------ *)

let algorithms_term =
  let doc =
    "Algorithm to check (repeatable; default: the whole catalog).  Besides \
     the queue algorithms this includes the catalog-only entries \
     sharded-llsc, sim-wait, toy-blocking and toy-livelock."
  in
  Arg.(
    value
    & opt_all string []
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let scenarios_term =
  let doc = "Scenario slug to check (repeatable; default: all)." in
  Arg.(value & opt_all string [] & info [ "s"; "scenario" ] ~docv:"SLUG" ~doc)

let no_dpor_term =
  let doc =
    "Plain DFS over the same choice tree (no partial-order reduction); by \
     default each spec runs in its own mode, DPOR unless it carries a \
     preemption bound."
  in
  Arg.(value & flag & info [ "no-dpor" ] ~doc)

let bound_term =
  let doc =
    "Preemption bound for plain DFS (CHESS-style): $(b,--no-dpor) runs, and \
     specs that carry their own bound (which $(docv) overrides).  DFS \
     coverage is then complete for schedules with at most $(docv) \
     preemptions.  Ignored under DPOR, which needs the full tree to stay \
     sound."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "preemption-bound"; "b" ] ~docv:"N" ~doc)

let max_steps_term =
  let doc =
    "Per-schedule step bound; cut schedules are finished under a fair \
     scheduler and classified by the liveness layer.  The default, 60, \
     keeps every catalog scenario exhaustive in seconds; raising it grows \
     the tree steeply (the two-ops-each scenarios pass 2M schedules by \
     150).  Specs that carry their own preemption bound default to 10000, \
     so each of their schedules runs to completion."
  in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

let max_schedules_term =
  let doc = "Schedule budget per scenario." in
  Arg.(value & opt int 2_000_000 & info [ "max-schedules" ] ~docv:"N" ~doc)

let min_reduction_term =
  let doc =
    "Also run the plain-DFS baseline (budget-capped at $(docv) times the \
     DPOR count) and fail any pass-expected scenario whose DPOR reduction \
     factor lands below $(docv)."
  in
  Arg.(value & opt (some int) None & info [ "min-reduction" ] ~docv:"N" ~doc)

let require_exhaustive_term =
  let doc = "Fail if any pass-expected scenario exhausts its schedule \
             budget instead of completing the tree." in
  Arg.(value & flag & info [ "require-exhaustive" ] ~doc)

let json_term =
  let doc = "Write a machine-readable summary to $(docv)." in
  Arg.(
    value
    & opt ~vopt:(Some "results/modelcheck.json") (some string) None
    & info [ "json" ] ~docv:"PATH" ~doc)

let cmd =
  let doc = "Exhaustively model-check the queues on small scenarios" in
  let combine algorithms scenarios no_dpor bound max_steps max_schedules
      min_reduction require_exhaustive json_path =
    run algorithms scenarios (not no_dpor) bound max_steps max_schedules
      min_reduction require_exhaustive json_path
  in
  Cmd.v (Cmd.info "modelcheck_run" ~doc)
    Term.(
      const combine $ algorithms_term $ scenarios_term $ no_dpor_term
      $ bound_term $ max_steps_term $ max_schedules_term $ min_reduction_term
      $ require_exhaustive_term $ json_term)

let () = exit (Cmd.eval cmd)
