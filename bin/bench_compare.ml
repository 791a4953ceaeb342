(* Diffs two bench-summary trajectory files (results/bench_summary.json
   as written by the bench presets) and flags throughput
   regressions beyond a threshold.  Rows are joined on their identity key
   (bench, queue, variant, domains); rows present on only one side are
   listed but never fail the run.  Exit 1 iff any joined row regressed.

   --gate flips the failure condition for CI use (check.sh): absolute
   throughput varies too much across machines to gate on, so instead the
   run fails iff the current file is missing a configuration the
   committed baseline has (coverage regression) or a joined row's
   throughput is non-finite/non-positive (a sweep silently produced
   garbage).  Slowdowns are still printed, but only as information.

   The trajectory file MERGES (stale rows survive a sweep that measured
   nothing), so CURRENT alone cannot prove a family was actually
   re-measured.  --fresh FILE closes that hole: FILE holds only the rows
   the current run emitted (Bench_summary.fresh_env mirror), and for
   every (bench, variant) sweep present in it, each queue the baseline
   has under that sweep must have produced at least one fresh row —
   a family with zero fresh rows fails the gate instead of hiding
   behind yesterday's merged numbers. *)

open Cmdliner
open Nbq_harness

let fmt_f v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" v
let fmt_ns v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

let label (r : Bench_summary.row) =
  Printf.sprintf "%s/%s%s@%d" r.Bench_summary.bench r.Bench_summary.queue
    (if r.Bench_summary.variant = "" then ""
     else "[" ^ r.Bench_summary.variant ^ "]")
    r.Bench_summary.domains

(* Families the baseline expects under each (bench, variant) sweep the
   fresh run touched, minus those the fresh rows actually cover. *)
let dark_families ~base ~fresh =
  let sweep (r : Bench_summary.row) =
    (r.Bench_summary.bench, r.Bench_summary.variant)
  in
  let sweeps =
    List.sort_uniq compare (List.map sweep fresh)
  in
  List.concat_map
    (fun sw ->
      let queues_of rows =
        List.sort_uniq compare
          (List.filter_map
             (fun r ->
               if sweep r = sw then Some r.Bench_summary.queue else None)
             rows)
      in
      let covered = queues_of fresh in
      List.filter_map
        (fun q ->
          if List.mem q covered then None
          else
            let bench, variant = sw in
            Some
              (Printf.sprintf "%s/%s%s" bench q
                 (if variant = "" then "" else "[" ^ variant ^ "]")))
        (queues_of base))
    sweeps

let run baseline current threshold gate fresh =
  let load path =
    match Bench_summary.read path with
    | Ok rows -> rows
    | Error e ->
        Printf.eprintf "bench_compare: %s\n%!" e;
        exit 2
  in
  let base = load baseline and cur = load current in
  let find rows r =
    List.find_opt
      (fun r' -> Bench_summary.key r' = Bench_summary.key r)
      rows
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "bench trajectory: %s -> %s  [flag < %.0f%%]" baseline
           current
           ((1.0 -. threshold) *. 100.0))
      ~columns:
        [ "config"; "base-Mi/s"; "cur-Mi/s"; "ratio"; "p99-base"; "p99-cur";
          "verdict" ]
  in
  let regressions = ref 0 in
  let invalid = ref 0 in
  List.iter
    (fun (c : Bench_summary.row) ->
      let tp = c.Bench_summary.mitems_per_s in
      if gate && (not (Float.is_finite tp) || tp <= 0.0) then incr invalid;
      match find base c with
      | None ->
          Table.add_row t
            [ label c; "-"; fmt_f c.Bench_summary.mitems_per_s; "-"; "-";
              fmt_ns c.Bench_summary.p99_ns; "new" ]
      | Some b ->
          let ratio =
            c.Bench_summary.mitems_per_s /. b.Bench_summary.mitems_per_s
          in
          let verdict =
            if Float.is_nan ratio then "n/a"
            else if ratio < 1.0 -. threshold then begin
              incr regressions;
              "REGRESSION"
            end
            else if ratio > 1.0 +. threshold then "improved"
            else "ok"
          in
          Table.add_row t
            [ label c;
              fmt_f b.Bench_summary.mitems_per_s;
              fmt_f c.Bench_summary.mitems_per_s;
              fmt_f ratio;
              fmt_ns b.Bench_summary.p99_ns;
              fmt_ns c.Bench_summary.p99_ns;
              verdict ])
    cur;
  let dropped = ref 0 in
  List.iter
    (fun (b : Bench_summary.row) ->
      if find cur b = None then begin
        incr dropped;
        Table.add_row t
          [ label b; fmt_f b.Bench_summary.mitems_per_s; "-"; "-";
            fmt_ns b.Bench_summary.p99_ns; "-"; "dropped" ]
      end)
    base;
  print_string (Table.render t);
  print_newline ();
  if gate then begin
    if !regressions > 0 then
      Printf.printf
        "gate: %d slowdown(s) beyond %.0f%% (informational on this machine)\n"
        !regressions (threshold *. 100.0);
    let dark =
      match fresh with
      | None -> []
      | Some path -> dark_families ~base ~fresh:(load path)
    in
    List.iter
      (fun f -> Printf.printf "gate: family %s produced no fresh rows\n" f)
      dark;
    if !dropped > 0 || !invalid > 0 || dark <> [] then begin
      Printf.printf
        "gate FAILED: %d configuration(s) missing vs baseline, %d row(s) \
         with invalid throughput, %d baseline family(ies) dark in the \
         fresh run\n"
        !dropped !invalid (List.length dark);
      exit 1
    end
    else
      Printf.printf
        "gate ok: every baseline configuration present, all throughputs \
         sane\n"
  end
  else if !regressions > 0 then begin
    Printf.printf "%d regression(s) beyond %.0f%%\n" !regressions
      (threshold *. 100.0);
    exit 1
  end
  else Printf.printf "no throughput regressions beyond %.0f%%\n"
      (threshold *. 100.0)

let baseline_term =
  let doc = "Baseline bench_summary.json." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc)

let current_term =
  let doc = "Current bench_summary.json." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc)

let threshold_term =
  let doc = "Relative throughput drop that counts as a regression." in
  Arg.(value & opt float 0.10 & info [ "threshold" ] ~docv:"FRAC" ~doc)

let gate_term =
  let doc =
    "CI mode: fail on coverage loss (baseline configurations missing from \
     CURRENT) or invalid throughput, not on machine-dependent slowdowns."
  in
  Arg.(value & flag & info [ "gate" ] ~doc)

let fresh_term =
  let doc =
    "File holding only the rows the current run emitted (the \
     NBQ_BENCH_FRESH mirror).  With --gate, every queue the BASELINE \
     lists under a (bench, variant) sweep present in this file must have \
     at least one fresh row — the merged CURRENT file cannot show this, \
     since stale rows survive the merge."
  in
  Arg.(value & opt (some file) None & info [ "fresh" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "Compare two bench-summary files and flag throughput regressions" in
  Cmd.v (Cmd.info "bench_compare" ~doc)
    Term.(const run $ baseline_term $ current_term $ threshold_term
          $ gate_term $ fresh_term)

let () = exit (Cmd.eval cmd)
