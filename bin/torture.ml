(* Stall/crash torture matrix: for every queue in the registry and every
   injection point it supports, freeze (and optionally kill) one domain
   inside the point while the others run, and report whether the paper's
   robustness claims held — survivor progress, item conservation, bounded
   tag registry, post-fault recovery.  Deterministic for a given --seed. *)

open Cmdliner
module Hook = Nbq_primitives.Hook
module Injector = Nbq_fault.Injector
module Torture = Nbq_fault.Torture

(* --wait mode: torture the parking layer itself instead of the queue
   protocols.  Every cell of {park-window, wake-lost} x {stall, crash}
   must complete all its rounds — one stranded parked domain is a
   lost-wakeup bug. *)
let run_wait_matrix iterations csv =
  let module WT = Nbq_fault.Wait_torture in
  let table =
    Nbq_harness.Table.create
      ~title:
        (Printf.sprintf "Wait-layer torture [%d rounds/cell]" iterations)
      ~columns:
        [ "point"; "action"; "fired"; "completed"; "max-wait-ms"; "verdict" ]
  in
  let failures = ref 0 and rounds = ref 0 in
  List.iter
    (fun point ->
      List.iter
        (fun action ->
          incr rounds;
          let o = WT.run ~iterations ~point ~action () in
          let ok =
            o.WT.triggered = iterations && o.WT.completed = iterations
          in
          if not ok then incr failures;
          Nbq_harness.Table.add_row table
            [
              Hook.to_string o.WT.point;
              Injector.action_to_string o.WT.action;
              Printf.sprintf "%d/%d" o.WT.triggered o.WT.iterations;
              Printf.sprintf "%d/%d" o.WT.completed o.WT.iterations;
              Printf.sprintf "%.2f" (o.WT.max_wait *. 1e3);
              (if ok then "pass" else "FAIL");
            ])
        [ Injector.Stall; Injector.Crash ])
    WT.points;
  print_string
    (if csv then Nbq_harness.Table.render_csv table
     else Nbq_harness.Table.render table);
  Printf.printf "\n%d/%d cells passed\n" (!rounds - !failures) !rounds;
  if !failures > 0 then exit 1

let run_queue_matrix queue_filter seconds seed workers ops with_crash csv
    with_trace =
  let prng = Nbq_primitives.Prng.create ~seed in
  let targets =
    match queue_filter with
    | "all" -> Torture.targets ()
    | name -> (
        match Torture.find name with
        | Some t -> [ t ]
        | None ->
            Printf.eprintf "torture: unknown queue %S\n%!" name;
            exit 2)
  in
  let actions =
    if with_crash then [ Injector.Stall; Injector.Crash ]
    else [ Injector.Stall ]
  in
  let table =
    Nbq_harness.Table.create
      ~title:
        (Printf.sprintf
           "Torture matrix [%d workers, %d survivor ops, %.1fs/round, seed \
            %d]"
           workers ops seconds seed)
      ~columns:
        [
          "queue"; "point"; "action"; "fired"; "min-survivor-ops"; "balance";
          "conserved"; "registry"; "recovered"; "verdict";
        ]
  in
  let failures = ref 0 and rounds = ref 0 in
  List.iter
    (fun t ->
      List.iter
        (fun point ->
          List.iter
            (fun action ->
              incr rounds;
              (* Vary the triggering hit with the seed so different runs
                 freeze the victim at different protocol occupancies, while
                 any single seed stays reproducible. *)
              let trigger_after =
                10 + Nbq_primitives.Prng.int prng 200
              in
              (* Every round carries a full-rate (unsampled) flight
                 recorder: a fresh one per round, because each round spawns
                 fresh domains and their rings would otherwise pile up.
                 Recording is a handful of plain stores per hook, cheap
                 enough for a correctness harness. *)
              let tracer = Nbq_trace.Recorder.create ~sample:1 () in
              let o =
                Torture.run ~workers ~target_ops:ops ~trigger_after
                  ~timeout:seconds ~tracer t ~point ~action
              in
              let ok =
                o.Torture.triggered
                && o.Torture.min_survivor_ops >= ops
                && o.Torture.conserved && o.Torture.recovered
              in
              if not ok then begin
                incr failures;
                (* One machine-grepable line to reproduce the round, then
                   the per-domain flight-recorder tail: what each domain
                   was doing (operation spans, protocol events, the fault
                   window) when the property broke. *)
                Printf.printf
                  "NBQ-FAULT-REPRO v1-torture queue=%s point=%s action=%s \
                   workers=%d ops=%d trigger=%d seed=%d\n"
                  o.Torture.target
                  (Hook.to_string o.Torture.point)
                  (Injector.action_to_string o.Torture.action)
                  workers ops trigger_after seed;
                Nbq_trace.Export.dump tracer stdout
              end;
              if with_trace then begin
                let path =
                  Printf.sprintf "results/trace-torture-%s-%s-%s.json"
                    o.Torture.target
                    (Hook.to_string o.Torture.point)
                    (Injector.action_to_string o.Torture.action)
                in
                Nbq_trace.Export.write_chrome
                  ~process_name:("torture:" ^ o.Torture.target)
                  ~path tracer;
                match Nbq_trace.Export.validate_chrome_file path with
                | Ok _ -> Printf.eprintf "# trace written to %s\n%!" path
                | Error e ->
                    Printf.eprintf "trace validation failed: %s\n%!" e;
                    exit 1
              end;
              Nbq_harness.Table.add_row table
                [
                  o.Torture.target;
                  Hook.to_string o.Torture.point;
                  Injector.action_to_string o.Torture.action;
                  (if o.Torture.triggered then "yes" else "NO");
                  string_of_int o.Torture.min_survivor_ops;
                  string_of_int o.Torture.balance;
                  (if o.Torture.conserved then "yes" else "NO");
                  (match o.Torture.audit with
                  | Some a ->
                      Printf.sprintf "%d/%d"
                        a.Nbq_primitives.Llsc_cas.owned
                        a.Nbq_primitives.Llsc_cas.registered
                  | None -> "-");
                  (if o.Torture.recovered then "yes" else "NO");
                  (if ok then "pass" else "FAIL");
                ])
            actions)
        (Torture.points t))
    targets;
  print_string
    (if csv then Nbq_harness.Table.render_csv table
     else Nbq_harness.Table.render table);
  Printf.printf "\n%d/%d rounds passed\n"
    (!rounds - !failures) !rounds;
  if !failures > 0 then exit 1

(* --replay: re-derive a failure from its NBQ-FAULT-REPRO line.

   v2-mc lines (the model checker's) deterministically re-execute the
   violating schedule through Dpor.replay and print the interleaving dump;
   v1-torture lines re-run the single named torture round.  Exit 0 iff the
   recorded failure reproduces. *)
let replay_mc line (r : Nbq_modelcheck.Repro.t) =
  let module MC = Nbq_modelcheck in
  match MC.Scenarios.find ~algorithm:r.algorithm ~scenario:r.scenario with
  | None ->
      Printf.eprintf
        "unknown spec %s/%s (this repro line is from another revision?)\n"
        r.algorithm r.scenario;
      exit 2
  | Some spec -> (
      Printf.printf "replaying %s\n" line;
      match
        MC.Dpor.replay ~progress:spec.progress spec.build_instance r.schedule
      with
      | outcome ->
          (match outcome.status with
          | `Completed -> print_endline "schedule ran to completion"
          | `Fair_completed ->
              print_endline "schedule completed under the fair continuation"
          | `Diverged dv ->
              Printf.printf "schedule diverges: %s\n"
                (MC.Props.describe_divergence dv));
          (match outcome.violation with
          | Some msg -> Printf.printf "violation reproduced: %s\n" msg
          | None -> print_endline "NO violation on this schedule");
          MC.Scenarios.dump_schedule spec r.schedule stdout;
          exit (if outcome.violation <> None then 0 else 1)
      | exception Invalid_argument msg ->
          Printf.eprintf "replay failed: %s\n" msg;
          exit 2)

let replay_torture line =
  let fields =
    String.split_on_char ' ' (String.trim line)
    |> List.filter_map (fun tok ->
           match String.index_opt tok '=' with
           | None -> None
           | Some i ->
               Some
                 ( String.sub tok 0 i,
                   String.sub tok (i + 1) (String.length tok - i - 1) ))
  in
  let need k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None ->
        Printf.eprintf "v1-torture line is missing %s=\n" k;
        exit 2
  in
  let target =
    match Torture.find (need "queue") with
    | Some t -> t
    | None ->
        Printf.eprintf "unknown queue %s\n" (need "queue");
        exit 2
  in
  let point =
    match Hook.of_string (need "point") with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown injection point %s\n" (need "point");
        exit 2
  in
  let action =
    match need "action" with
    | "stall" -> Injector.Stall
    | "crash" -> Injector.Crash
    | a ->
        Printf.eprintf "unknown action %s\n" a;
        exit 2
  in
  let int_of k = try int_of_string (need k) with Failure _ ->
    Printf.eprintf "malformed %s=\n" k; exit 2
  in
  let workers = int_of "workers" and ops = int_of "ops" in
  let trigger_after = int_of "trigger" in
  Printf.printf "replaying %s\n" line;
  let tracer = Nbq_trace.Recorder.create ~sample:1 () in
  let o =
    Torture.run ~workers ~target_ops:ops ~trigger_after ~tracer target ~point
      ~action
  in
  let ok =
    o.Torture.triggered
    && o.Torture.min_survivor_ops >= ops
    && o.Torture.conserved && o.Torture.recovered
  in
  if ok then print_endline "round passed: failure did NOT reproduce"
  else begin
    print_endline "failure reproduced:";
    Nbq_trace.Export.dump tracer stdout
  end;
  exit (if ok then 1 else 0)

let run_replay line =
  match Nbq_modelcheck.Repro.parse line with
  | Some r -> replay_mc line r
  | None ->
      let contains_sub s sub =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      if contains_sub line "v1-torture" then replay_torture line
      else begin
        Printf.eprintf
          "not a recognizable NBQ-FAULT-REPRO line (know v1-torture and \
           v2-mc)\n";
        exit 2
      end

let run_matrix replay queue_filter seconds seed workers ops with_crash csv wait
    wait_iters with_trace =
  match replay with
  | Some line -> run_replay line
  | None ->
      if wait then run_wait_matrix wait_iters csv
      else
        run_queue_matrix queue_filter seconds seed workers ops with_crash csv
          with_trace

let replay_term =
  let doc =
    "Replay an NBQ-FAULT-REPRO line instead of running the matrix: a \
     $(b,v2-mc) line (from bin/modelcheck_run.exe) deterministically \
     re-executes its schedule through the model checker and prints the \
     interleaving; a $(b,v1-torture) line re-runs that single round.  \
     Exits 0 iff the recorded failure reproduces."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"LINE" ~doc)

let queue_term =
  let doc = "Queue to torture, or $(b,all) for the whole registry." in
  Arg.(value & opt string "all" & info [ "queue"; "q" ] ~docv:"NAME" ~doc)

let seconds_term =
  let doc = "Wall-clock budget per torture round." in
  Arg.(value & opt float 30.0 & info [ "seconds" ] ~docv:"S" ~doc)

let seed_term =
  let doc =
    "PRNG seed: varies which hit of the point freezes the victim.  Equal \
     seeds give equal matrices."
  in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let workers_term =
  let doc = "Worker domains per round (including the victim)." in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)

let ops_term =
  let doc =
    "Operations every survivor must complete while the victim is frozen."
  in
  Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc)

let crash_term =
  let doc =
    "Also run crash rounds (victim dies mid-protocol, abandoning its \
     reservations and tag variables) in addition to stalls."
  in
  Arg.(value & flag & info [ "crash" ] ~doc)

let csv_term =
  let doc = "Emit CSV instead of the aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let wait_term =
  let doc =
    "Torture the parking layer ($(b,Nbq_wait)) instead of the queue \
     protocols: stall/crash a waker inside the wake-lost window and a \
     waiter inside the park window, and require every live parked domain \
     to complete anyway.  Ignores the queue/worker options."
  in
  Arg.(value & flag & info [ "wait" ] ~doc)

let wait_iters_term =
  let doc = "Rounds per cell of the $(b,--wait) matrix." in
  Arg.(value & opt int 300 & info [ "wait-iters" ] ~docv:"N" ~doc)

let trace_term =
  let doc =
    "Also write each round's flight-recorder contents as Chrome \
     trace-event JSON under results/trace-torture-*.json (Perfetto \
     loadable; one track per domain).  Failing rounds always dump their \
     per-domain record tail to stdout regardless of this flag."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let cmd =
  let doc =
    "Stall/crash torture across all registry queues: freeze one domain \
     inside each injection point and verify the others keep completing \
     operations"
  in
  Cmd.v (Cmd.info "torture" ~doc)
    Term.(
      const run_matrix $ replay_term $ queue_term $ seconds_term $ seed_term
      $ workers_term $ ops_term $ crash_term $ csv_term $ wait_term
      $ wait_iters_term $ trace_term)

let () = exit (Cmd.eval cmd)
