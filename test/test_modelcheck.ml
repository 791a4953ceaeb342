(* Model-checking tests: exhaustively explore all (preemption-bounded)
   interleavings of small scenarios against both of the paper's
   algorithms, validating every completed execution's history with the
   exact linearizability checker.  Also: sanity-check the explorer itself
   by letting it FIND a planted lost-update bug and the Fig.1-style
   corruption of a naive ring. *)

module Sim = Nbq_modelcheck.Sim
module H = Nbq_lincheck.History
module C = Nbq_lincheck.Checker

module SimCell = Nbq_primitives.Llsc.Make (Sim.Atomic)
module SimQ1 = Nbq_core.Evequoz_llsc.Make (SimCell)
module SimQ2 = Nbq_core.Evequoz_cas.Make (Sim.Atomic)

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* --- Explorer sanity --- *)

let explorer_finds_lost_update () =
  (* Two threads do a non-atomic increment (read, then write).  The
     explorer must find the interleaving where one update is lost. *)
  let scenario () =
    let c = Sim.Atomic.make 0 in
    let incr () =
      let v = Sim.Atomic.get c in
      Sim.Atomic.set c (v + 1)
    in
    let check () =
      let v = Sim.run_sequential (fun () -> Sim.Atomic.get c) in
      if v <> 2 then failwith (Printf.sprintf "lost update: %d" v)
    in
    ([| incr; incr |], check)
  in
  match Sim.explore scenario with
  | _ -> Alcotest.fail "explorer missed the lost update"
  | exception Sim.Violation { schedule; message } ->
      Alcotest.(check bool) "message mentions lost update" true
        (String.length message > 0);
      (* The violating schedule must reproduce deterministically. *)
      (match Sim.run_schedule scenario schedule with
      | `Completed -> Alcotest.fail "replay did not reproduce"
      | exception Failure _ -> ()
      | `Diverged -> Alcotest.fail "replay diverged")

let explorer_cas_increment_exact () =
  (* CAS retry loops make the increment atomic: no interleaving loses an
     update, and with a preemption bound nothing diverges. *)
  let scenario () =
    let c = Sim.Atomic.make 0 in
    let incr () =
      let rec go () =
        let v = Sim.Atomic.get c in
        if not (Sim.Atomic.compare_and_set c v (v + 1)) then go ()
      in
      go ()
    in
    let check () =
      let v = Sim.run_sequential (fun () -> Sim.Atomic.get c) in
      if v <> 3 then failwith (Printf.sprintf "bad count: %d" v)
    in
    ([| incr; incr; incr |], check)
  in
  let stats = Sim.explore scenario in
  Alcotest.(check bool) "exhaustive" true stats.Sim.exhaustive;
  Alcotest.(check int) "no divergence under preemption bound" 0
    stats.Sim.diverged;
  Alcotest.(check bool) "explored many schedules" true (stats.Sim.schedules > 10)

let explorer_llsc_counter_exact () =
  let scenario () =
    let c = SimCell.make 0 in
    let incr () =
      let rec go () =
        let l = SimCell.ll c in
        if not (SimCell.sc c l (SimCell.value l + 1)) then go ()
      in
      go ();
      go ()
    in
    let check () =
      let v = Sim.run_sequential (fun () -> SimCell.get c) in
      if v <> 4 then failwith (Printf.sprintf "bad count: %d" v)
    in
    ([| incr; incr |], check)
  in
  let stats = Sim.explore scenario in
  Alcotest.(check bool) "exhaustive" true stats.Sim.exhaustive

module SimLc = Nbq_primitives.Llsc_cas.Make (Sim.Atomic)

(* The CAS-simulated LL/SC (Fig. 5) as a counter: [threads] threads doing
   [per_thread] re-registered increments each.  Two checks in [ll] keep it
   exact, and each scenario below loses an increment without one of them:
   - 2 threads x 2 increments (five preemptions): the owner passes
     ReRegister, a reader pins its variable only then, reads the previous
     value and wins its CAS against the owner's reinstalled marker — unless
     the reader re-sees the marker after pinning.
   - 3 threads x 1 increment: after its reservation is stolen, the owner
     retries LL without a ReRegister and rewrites its variable under a
     second reader's pin — unless LL itself swaps out a pinned variable. *)
let llsc_cas_counter ~threads ~per_thread ~preemption_bound () =
  let scenario () =
    let reg = SimLc.create_registry () in
    let c = SimLc.make 0 in
    let incr () =
      let h = SimLc.register reg in
      for _ = 1 to per_thread do
        SimLc.reregister h;
        let rec go () =
          let v = SimLc.ll c h in
          if not (SimLc.sc c h (v + 1)) then go ()
        in
        go ()
      done;
      SimLc.deregister h
    in
    let check () =
      let v = Sim.run_sequential (fun () -> SimLc.peek c) in
      if v <> threads * per_thread then
        failwith (Printf.sprintf "bad count: %d" v)
    in
    (Array.make threads incr, check)
  in
  let stats = Sim.explore ~preemption_bound:(Some preemption_bound) scenario in
  Alcotest.(check bool) "exhaustive" true stats.Sim.exhaustive

let explorer_finds_naive_ring_bug () =
  (* The naive ring (plain store into the tail slot, as in the Fig. 1
     discussion) loses an item under concurrent enqueues; the explorer
     must find it. *)
  let scenario () =
    let module A = Sim.Atomic in
    let slots = Array.init 4 (fun _ -> A.make 0) in
    let tail = A.make 0 in
    let enq v () =
      let t = A.get tail in
      A.set slots.(t land 3) v;
      ignore (A.compare_and_set tail t (t + 1))
    in
    let check () =
      Sim.run_sequential (fun () ->
          let found = ref 0 in
          Array.iter (fun s -> if A.get s <> 0 then incr found) slots;
          if !found <> 2 then failwith "naive ring lost an item")
    in
    ([| enq 1; enq 2 |], check)
  in
  match Sim.explore scenario with
  | _ -> Alcotest.fail "explorer missed the naive-ring bug"
  | exception Sim.Violation _ -> ()

let explorer_mcas_transfer_atomic () =
  (* Two concurrent 2-word MCAS transfers between the same cells: over all
     interleavings the sum is conserved and both transfers apply. *)
  let module M = Nbq_primitives.Mcas.Make (Sim.Atomic) in
  let scenario () =
    let a = M.make 100 and b = M.make 0 in
    let transfer amount () =
      let rec attempt () =
        let sa = M.read a and sb = M.read b in
        if
          not
            (M.mcas
               [
                 (a, sa, M.value sa - amount); (b, sb, M.value sb + amount);
               ])
        then attempt ()
      in
      attempt ()
    in
    let check () =
      Sim.run_sequential (fun () ->
          let va = M.value (M.read a) and vb = M.value (M.read b) in
          if va + vb <> 100 then
            failwith (Printf.sprintf "sum broken: %d + %d" va vb);
          if va <> 70 then
            failwith (Printf.sprintf "transfers lost: a = %d" va))
    in
    ([| transfer 10; transfer 20 |], check)
  in
  let stats = Sim.explore ~preemption_bound:(Some 3) scenario in
  Alcotest.(check bool) "exhaustive" true stats.Sim.exhaustive;
  Alcotest.(check int) "no divergence" 0 stats.Sim.diverged

let explorer_sequential_bound_zero () =
  (* preemption bound 0: only thread-at-a-time schedules; for two threads
     of straight-line atomic code that is exactly 2 schedules. *)
  let scenario () =
    let c = Sim.Atomic.make 0 in
    let bump () = ignore (Sim.Atomic.fetch_and_add c 1) in
    ([| bump; bump |], fun () -> ())
  in
  let stats = Sim.explore ~preemption_bound:(Some 0) scenario in
  Alcotest.(check bool) "exhaustive" true stats.Sim.exhaustive;
  Alcotest.(check int) "exactly 2 schedules" 2 stats.Sim.schedules

(* --- Linearizability of the paper's algorithms, exhaustively --- *)

(* Scenario builders live in Nbq_modelcheck.Scenarios (shared with
   bin/modelcheck_run.exe); this suite drives them plus a couple of
   exploration-mode variations. *)

module Scenarios = Nbq_modelcheck.Scenarios

let q1_scenario ~capacity ~prefill threads =
  Scenarios.build ~algorithm:"evequoz-llsc" ~capacity ~prefill threads

let q2_scenario ~capacity ~prefill threads =
  Scenarios.build ~algorithm:"evequoz-cas" ~capacity ~prefill threads

(* --- The scenario matrix --- *)

let check_exhaustive name scenario =
  match Sim.explore ~max_schedules:2_000_000 scenario with
  | stats ->
      Alcotest.(check bool) (name ^ ": explored the whole tree") true
        stats.Sim.exhaustive;
      Alcotest.(check int) (name ^ ": no divergence under bound") 0
        stats.Sim.diverged;
      Alcotest.(check bool) (name ^ ": nontrivial tree") true
        (stats.Sim.schedules > 1)
  | exception Sim.Violation { schedule; message } ->
      Alcotest.fail
        (Printf.sprintf "%s: schedule [%s] violates linearizability: %s" name
           (String.concat ";" (List.map string_of_int schedule))
           message)

let q1_enq_enq () =
  check_exhaustive "q1 enq|enq"
    (q1_scenario ~capacity:2 ~prefill:[] Scenarios.[ [ Enq 1 ]; [ Enq 2 ] ])

let q1_enq_deq_empty () =
  check_exhaustive "q1 enq|deq on empty"
    (q1_scenario ~capacity:2 ~prefill:[] Scenarios.[ [ Enq 1 ]; [ Deq ] ])

let q1_enq_deq_nonempty () =
  check_exhaustive "q1 enq|deq on 1 item"
    (q1_scenario ~capacity:2 ~prefill:[ 100 ] Scenarios.[ [ Enq 1 ]; [ Deq ] ])

let q1_deq_deq () =
  check_exhaustive "q1 deq|deq on 2 items"
    (q1_scenario ~capacity:4 ~prefill:[ 100; 200 ] Scenarios.[ [ Deq ]; [ Deq ] ])

let q1_full_boundary () =
  check_exhaustive "q1 enq|deq at full"
    (q1_scenario ~capacity:2 ~prefill:[ 100; 200 ] Scenarios.[ [ Enq 1 ]; [ Deq ] ])

let q1_two_ops_each () =
  check_exhaustive "q1 (enq;deq)|(enq;deq)"
    (q1_scenario ~capacity:2 ~prefill:[] Scenarios.[ [ Enq 1; Deq ]; [ Enq 2; Deq ] ])

let q1_three_threads () =
  check_exhaustive "q1 enq|enq|deq"
    (q1_scenario ~capacity:4 ~prefill:[] Scenarios.[ [ Enq 1 ]; [ Enq 2 ]; [ Deq ] ])

let q2_enq_enq () =
  check_exhaustive "q2 enq|enq"
    (q2_scenario ~capacity:2 ~prefill:[] Scenarios.[ [ Enq 1 ]; [ Enq 2 ] ])

let q2_enq_deq_empty () =
  check_exhaustive "q2 enq|deq on empty"
    (q2_scenario ~capacity:2 ~prefill:[] Scenarios.[ [ Enq 1 ]; [ Deq ] ])

let q2_enq_deq_nonempty () =
  check_exhaustive "q2 enq|deq on 1 item"
    (q2_scenario ~capacity:2 ~prefill:[ 100 ] Scenarios.[ [ Enq 1 ]; [ Deq ] ])

let q2_deq_deq () =
  check_exhaustive "q2 deq|deq on 2 items"
    (q2_scenario ~capacity:4 ~prefill:[ 100; 200 ] Scenarios.[ [ Deq ]; [ Deq ] ])

let q2_full_boundary () =
  check_exhaustive "q2 enq|deq at full"
    (q2_scenario ~capacity:2 ~prefill:[ 100; 200 ] Scenarios.[ [ Enq 1 ]; [ Deq ] ])

let q2_two_ops_each () =
  check_exhaustive "q2 (enq;deq)|(enq;deq)"
    (q2_scenario ~capacity:2 ~prefill:[] Scenarios.[ [ Enq 1; Deq ]; [ Enq 2; Deq ] ])

(* The same standard matrix for each additional simulatable baseline. *)
let baseline_matrix algorithm () =
  List.iter
    (fun (name, capacity, prefill, threads) ->
      check_exhaustive
        (algorithm ^ " " ^ name)
        (Scenarios.build ~algorithm ~capacity ~prefill threads))
    Scenarios.standard_matrix

let shann_matrix = baseline_matrix "shann"
let tz_matrix = baseline_matrix "tsigas-zhang"
let ms_matrix = baseline_matrix "ms-gc"
let lms_matrix = baseline_matrix "lms-optimistic"

(* MCAS-heavy operations explode the bound-4 tree; bound 3 keeps the
   exploration exhaustive while still covering all 3-preemption races. *)
let valois_matrix () =
  List.iter
    (fun (name, capacity, prefill, threads) ->
      let scenario =
        Scenarios.build ~algorithm:"valois-dcas" ~capacity ~prefill threads
      in
      match
        Sim.explore ~preemption_bound:(Some 3) ~max_schedules:2_000_000
          scenario
      with
      | stats ->
          Alcotest.(check bool)
            ("valois " ^ name ^ ": explored the whole tree")
            true stats.Sim.exhaustive;
          Alcotest.(check int)
            ("valois " ^ name ^ ": no divergence")
            0 stats.Sim.diverged
      | exception Sim.Violation { schedule; message } ->
          Alcotest.fail
            (Printf.sprintf "valois %s: schedule [%s]: %s" name
               (String.concat ";" (List.map string_of_int schedule))
               message))
    Scenarios.standard_matrix

(* Herlihy–Wing's dequeue *waits* for a ticketed-but-unstored enqueue (the
   original is a total queue), so schedules that park the enqueuer diverge
   even under a preemption bound.  Those spin tails are choice-free, so a
   small step cap prices them in; we verify every terminating schedule and
   that divergent branches exist only where the blocking is expected. *)
let hw_matrix () =
  List.iter
    (fun (name, capacity, prefill, threads) ->
      let scenario =
        Scenarios.build ~algorithm:"herlihy-wing" ~capacity ~prefill threads
      in
      match
        Sim.explore ~preemption_bound:(Some 3) ~max_steps:200
          ~max_schedules:2_000_000 scenario
      with
      | stats ->
          Alcotest.(check bool)
            ("herlihy-wing " ^ name ^ ": explored the whole tree")
            true stats.Sim.exhaustive;
          Alcotest.(check bool)
            ("herlihy-wing " ^ name ^ ": nontrivial")
            true
            (stats.Sim.completed > 1)
      | exception Sim.Violation { schedule; message } ->
          Alcotest.fail
            (Printf.sprintf "herlihy-wing %s: schedule [%s]: %s" name
               (String.concat ";" (List.map string_of_int schedule))
               message))
    Scenarios.standard_matrix

let q2_three_threads () =
  check_exhaustive "q2 enq|enq|deq"
    (q2_scenario ~capacity:4 ~prefill:[]
       Scenarios.[ [ Enq 1 ]; [ Enq 2 ]; [ Deq ] ])

let shann_three_threads () =
  check_exhaustive "shann enq|enq|deq"
    (Scenarios.build ~algorithm:"shann" ~capacity:4 ~prefill:[]
       Scenarios.[ [ Enq 1 ]; [ Enq 2 ]; [ Deq ] ])

(* Peek (extension feature) raced against mutators. *)
let q1_peek_vs_deq () =
  check_exhaustive "q1 peek|deq"
    (q1_scenario ~capacity:4 ~prefill:[ 100; 200 ]
       Scenarios.[ [ Peek ]; [ Deq ] ])

let q1_peek_vs_enq_empty () =
  check_exhaustive "q1 peek|enq on empty"
    (q1_scenario ~capacity:4 ~prefill:[] Scenarios.[ [ Peek ]; [ Enq 1 ] ])

let q2_peek_vs_deq () =
  check_exhaustive "q2 peek|deq"
    (q2_scenario ~capacity:4 ~prefill:[ 100; 200 ]
       Scenarios.[ [ Peek ]; [ Deq ] ])

let q2_peek_vs_enq_empty () =
  check_exhaustive "q2 peek|enq on empty"
    (q2_scenario ~capacity:4 ~prefill:[] Scenarios.[ [ Peek ]; [ Enq 1 ] ])

let q2_livelock_branches_exist () =
  (* Without the preemption bound, the reservation-stealing ping-pong of
     the CAS simulation produces genuinely unbounded schedules — the
     obstruction-freedom caveat discussed in DESIGN.md.  Verify the
     explorer observes (and safely prunes) such branches, and that no
     terminating schedule is ever wrong. *)
  let scenario = q2_scenario ~capacity:2 ~prefill:[] [ [ Enq 1 ]; [ Enq 2 ] ] in
  match
    Sim.explore ~preemption_bound:None ~max_steps:300 ~max_schedules:20_000
      scenario
  with
  | stats ->
      Alcotest.(check bool) "found divergent (livelock) branches" true
        (stats.Sim.diverged > 0)
  | exception Sim.Violation { message; _ } -> Alcotest.fail message

(* --- DPOR + temporal properties --- *)

module Dpor = Nbq_modelcheck.Dpor
module Props = Nbq_modelcheck.Props
module Repro = Nbq_modelcheck.Repro

let find_spec algorithm scenario =
  match Scenarios.find ~algorithm ~scenario with
  | Some s -> s
  | None -> Alcotest.failf "spec %s/%s missing from the catalog" algorithm scenario

(* A seeded liveness bug must be convicted, its NBQ-FAULT-REPRO line must
   survive a print/parse roundtrip, and the schedule must reproduce the
   verdict through both replay surfaces. *)
let seeded_bug_convicted algorithm scenario () =
  let spec = find_spec algorithm scenario in
  match Dpor.explore ~max_steps:60 ~progress:spec.progress spec.build_instance with
  | _ -> Alcotest.failf "%s/%s: seeded bug not convicted" algorithm scenario
  | exception Sim.Violation { schedule; message } ->
      Alcotest.(check bool) "classified as liveness" true
        (Props.is_liveness_message message);
      (* repro-line roundtrip *)
      let repro =
        Repro.of_violation ~algorithm:spec.algorithm ~scenario:spec.scenario
          ~message schedule
      in
      let line = Repro.to_line repro in
      (match Repro.parse ("prefix noise " ^ line) with
      | Some r ->
          Alcotest.(check string) "algorithm" algorithm r.Repro.algorithm;
          Alcotest.(check string) "scenario" scenario r.Repro.scenario;
          Alcotest.(check (list int)) "schedule" schedule r.Repro.schedule;
          Alcotest.(check bool) "kind" true (r.Repro.kind = `Liveness)
      | None -> Alcotest.fail "repro line did not parse back");
      (* Dpor.replay re-derives the violation *)
      (match
         Dpor.replay ~progress:spec.progress spec.build_instance schedule
       with
      | { Dpor.violation = Some _; status = `Diverged (Props.Stuck _) } -> ()
      | { Dpor.violation = Some _; _ } ->
          Alcotest.fail "replay violated but not as Stuck"
      | { Dpor.violation = None; _ } ->
          Alcotest.fail "replay did not reproduce the violation");
      (* ... and the legacy surface agrees the schedule diverges. *)
      (match
         Sim.run_schedule ~max_steps:(List.length schedule)
           (Scenarios.scenario_of_spec spec)
           schedule
       with
      | `Diverged -> ()
      | `Completed -> Alcotest.fail "run_schedule completed unexpectedly")

let dpor_convicts_toy_blocking =
  seeded_bug_convicted "toy-blocking" "spin-on-dead-flag"

let dpor_convicts_lost_wakeup = seeded_bug_convicted "sim-wait" "lost-wakeup"

let dpor_park_wake_no_lost_wakeup () =
  (* The production eventcount (Blocking_ec over Eventcount_core) under
     simulation: every schedule either completes or resolves under the
     fair continuation, and no schedule strands the parked consumer. *)
  let spec = find_spec "sim-wait" "park-wake" in
  match Dpor.explore ~max_steps:60 ~progress:spec.progress spec.build_instance with
  | stats ->
      Alcotest.(check bool) "exhaustive" true stats.Dpor.exhaustive;
      Alcotest.(check int) "no stuck branch" 0 stats.Dpor.stuck;
      Alcotest.(check bool) "nontrivial tree" true (stats.Dpor.schedules > 50)
  | exception Sim.Violation { message; _ } -> Alcotest.fail message

let dpor_catches_planted_safety_bug () =
  (* The naive Fig.1-style ring again, this time through the DPOR engine:
     reduction must not prune the item-losing interleaving away. *)
  let build () =
    let module A = Sim.Atomic in
    let slots = Array.init 4 (fun _ -> A.make 0) in
    let tail = A.make 0 in
    let enq v () =
      let t = A.get tail in
      A.set slots.(t land 3) v;
      ignore (A.compare_and_set tail t (t + 1));
      Sim.op_completed ()
    in
    let check () =
      Sim.run_sequential (fun () ->
          let found = ref 0 in
          Array.iter (fun s -> if A.get s <> 0 then incr found) slots;
          if !found <> 2 then failwith "naive ring lost an item")
    in
    { Dpor.tasks = [| enq 1; enq 2 |]; check; invariant = None }
  in
  match Dpor.explore ~progress:Props.Lock_free build with
  | _ -> Alcotest.fail "DPOR missed the naive-ring bug"
  | exception Sim.Violation { schedule; message } -> (
      Alcotest.(check bool) "safety, not liveness" false
        (Props.is_liveness_message message);
      match Dpor.replay ~progress:Props.Lock_free build schedule with
      | { Dpor.violation = Some _; _ } -> ()
      | { Dpor.violation = None; _ } ->
          Alcotest.fail "replay did not reproduce")

let dpor_reduction_factor () =
  (* The acceptance bar: on the standard matrix, DPOR needs >= 5x fewer
     schedules than unreduced DFS (preemption_bound None) over the same
     tree.  The DFS budget is capped at 5x the DPOR count + 1, so hitting
     the cap proves the ratio. *)
  let spec = find_spec "evequoz-llsc" "enq-enq" in
  let dpor_stats =
    Dpor.explore ~max_steps:60 ~progress:spec.progress spec.build_instance
  in
  Alcotest.(check bool) "DPOR exhaustive" true dpor_stats.Dpor.exhaustive;
  let budget = (5 * dpor_stats.Dpor.schedules) + 1 in
  let dfs_stats =
    Dpor.explore ~dpor:false ~max_steps:60 ~max_schedules:budget
      ~progress:spec.progress spec.build_instance
  in
  Alcotest.(check bool) "DFS needs >= 5x the schedules" true
    ((not dfs_stats.Dpor.exhaustive)
    || dfs_stats.Dpor.schedules >= 5 * dpor_stats.Dpor.schedules)

let dpor_livelock_witness_classified () =
  (* Two writers ping-ponging forever without completing an operation:
     the fair probe cannot resolve them, the divergence carries writers,
     and a lock-free claim is violated — the Livelock_witness path. *)
  let build () =
    let c = Sim.Atomic.make 0 in
    let spin i () =
      while true do
        Sim.Atomic.set c i
      done
    in
    { Dpor.tasks = [| spin 1; spin 2 |]; check = (fun () -> ()); invariant = None }
  in
  (match Dpor.explore ~max_schedules:50 ~progress:Props.Lock_free build with
  | _ -> Alcotest.fail "livelock witness not convicted under lock-freedom"
  | exception Sim.Violation { message; _ } ->
      Alcotest.(check bool) "liveness message" true
        (Props.is_liveness_message message));
  (* The same witness is tolerated under an obstruction-freedom claim. *)
  match Dpor.explore ~max_schedules:50 ~progress:Props.Obstruction_free build with
  | stats ->
      Alcotest.(check bool) "witnesses observed" true (stats.Dpor.livelock > 0)
  | exception Sim.Violation { message; _ } -> Alcotest.fail message

let dpor_llsc_matrix_quick () =
  (* The full standard matrix for Algorithm 1 through DPOR with the
     strengthened checks (conservation by drain, index invariant) — small
     enough to stay in the quick tier. *)
  List.iter
    (fun (s : Scenarios.spec) ->
      if s.algorithm = "evequoz-llsc" then
        match
          Dpor.explore ~max_steps:60 ~progress:s.progress s.build_instance
        with
        | stats ->
            Alcotest.(check bool)
              (s.scenario ^ ": exhaustive") true stats.Dpor.exhaustive
        | exception Sim.Violation { schedule; message } ->
            Alcotest.failf "%s: schedule [%s]: %s" s.scenario
              (String.concat ";" (List.map string_of_int schedule))
              message)
    (Scenarios.specs ())

let dpor_bw_matrix_quick () =
  (* The Blelloch–Wei backend: the whole standard matrix (plus its batch
     specs) through DPOR with the strengthened checks — conservation by
     drain, handle-recycling bound, announcement hygiene.  The trees are
     small (the constant-time protocol has no tag handshake), so this
     exhaustive pass fits the quick tier. *)
  List.iter
    (fun (s : Scenarios.spec) ->
      if s.algorithm = "evequoz-bw" then
        match
          Dpor.explore ~max_steps:60 ~progress:s.progress s.build_instance
        with
        | stats ->
            Alcotest.(check bool)
              (s.scenario ^ ": exhaustive") true stats.Dpor.exhaustive
        | exception Sim.Violation { schedule; message } ->
            Alcotest.failf "%s: schedule [%s]: %s" s.scenario
              (String.concat ";" (List.map string_of_int schedule))
              message)
    (Scenarios.specs ())

let dpor_convicts_bw_noscan () =
  (* Disabling the announcement scan recycles a buffer a delayed enqueuer
     still holds reserved; its SC then succeeds against the recycled
     pointer and the item vanishes.  The checker must find that
     interleaving (a safety violation, convicted by conservation), and the
     schedule must reproduce through replay. *)
  let spec = find_spec "evequoz-bw-noscan" "recycled-buffer-aba" in
  match
    Dpor.explore ~max_steps:60 ~progress:spec.progress spec.build_instance
  with
  | _ -> Alcotest.fail "seeded BW reclamation bug not convicted"
  | exception Sim.Violation { schedule; message } -> (
      Alcotest.(check bool) "safety, not liveness" false
        (Props.is_liveness_message message);
      match
        Dpor.replay ~progress:spec.progress spec.build_instance schedule
      with
      | { Dpor.violation = Some _; _ } -> ()
      | { Dpor.violation = None; _ } ->
          Alcotest.fail "replay did not reproduce the violation")

let dpor_seg_matrix () =
  (* The segmented unbounded queue over ideal cells: the whole standard
     matrix plus the grow-during-drain race through DPOR with the
     strengthened checks — conservation by drain, reclamation hygiene at
     quiescence, and the segment-count bound plus per-segment index
     windows as per-step invariants. *)
  List.iter
    (fun (s : Scenarios.spec) ->
      if s.algorithm = "evequoz-seg" then
        match
          Dpor.explore ~max_steps:150 ~progress:s.progress s.build_instance
        with
        | stats ->
            Alcotest.(check bool)
              (s.scenario ^ ": exhaustive") true stats.Dpor.exhaustive
        | exception Sim.Violation { schedule; message } ->
            Alcotest.failf "%s: schedule [%s]: %s" s.scenario
              (String.concat ";" (List.map string_of_int schedule))
              message)
    (Scenarios.specs ())

let dpor_convicts_seg_noretire () =
  (* Skipping the hazard hand-off on retire lets a stalled dequeuer
     observe the drained segment's recycled state — here reporting empty
     while items sit in the successor.  The checker must find that
     interleaving (a safety violation, convicted by linearizability) and
     the schedule must reproduce through replay. *)
  let spec = find_spec "evequoz-seg-noretire" "recycled-segment-read" in
  match
    Dpor.explore ~max_steps:150 ~progress:spec.progress spec.build_instance
  with
  | _ -> Alcotest.fail "seeded segment-reclamation bug not convicted"
  | exception Sim.Violation { schedule; message } -> (
      Alcotest.(check bool) "safety, not liveness" false
        (Props.is_liveness_message message);
      match
        Dpor.replay ~progress:spec.progress spec.build_instance schedule
      with
      | { Dpor.violation = Some _; _ } -> ()
      | { Dpor.violation = None; _ } ->
          Alcotest.fail "replay did not reproduce the violation")

let dpor_scq_matrix () =
  (* Nikolaev's SCQ (plain, SCQD pairing, wCQ-style helping): the whole
     standard matrix through DPOR with linearizability plus
     conservation-by-drain.  The rings claim obstruction freedom (an
     enqueuer's ticket can be invalidated by every bump the dequeuers'
     budget pays for), so every tree must still complete exhaustively
     under the step budget with no violation. *)
  List.iter
    (fun (s : Scenarios.spec) ->
      if List.mem s.algorithm [ "scq"; "scq-d"; "scq-wcq" ] then
        match
          Dpor.explore ~max_steps:60 ~progress:s.progress s.build_instance
        with
        | stats ->
            Alcotest.(check bool)
              (s.algorithm ^ "/" ^ s.scenario ^ ": exhaustive")
              true stats.Dpor.exhaustive;
            Alcotest.(check int)
              (s.algorithm ^ "/" ^ s.scenario ^ ": no stuck branch")
              0 stats.Dpor.stuck
        | exception Sim.Violation { schedule; message } ->
            Alcotest.failf "%s/%s: schedule [%s]: %s" s.algorithm s.scenario
              (String.concat ";" (List.map string_of_int schedule))
              message)
    (Scenarios.specs ())

let dpor_convicts_scq_nothreshold () =
  (* The seeded SCQ livelock: without the threshold's retry budget a
     missed dequeue goes again unconditionally, and the drained-queue
     dequeuer bumps slots and drags tail forever.  The checker must
     convict it as a *liveness* violation carrying a livelock witness,
     the NBQ-FAULT-REPRO v2-mc line must survive a print/parse
     roundtrip, and the schedule must re-derive the same verdict through
     replay. *)
  let spec = find_spec "scq-nothreshold" "deq-chase-livelock" in
  match
    Dpor.explore ~max_steps:60 ~progress:spec.progress spec.build_instance
  with
  | _ -> Alcotest.fail "seeded SCQ no-threshold livelock not convicted"
  | exception Sim.Violation { schedule; message } ->
      Alcotest.(check bool) "classified as liveness" true
        (Props.is_liveness_message message);
      let repro =
        Repro.of_violation ~algorithm:spec.algorithm ~scenario:spec.scenario
          ~message schedule
      in
      let line = Repro.to_line repro in
      (match Repro.parse ("log noise " ^ line) with
      | Some r ->
          Alcotest.(check string) "algorithm" "scq-nothreshold"
            r.Repro.algorithm;
          Alcotest.(check string) "scenario" "deq-chase-livelock"
            r.Repro.scenario;
          Alcotest.(check (list int)) "schedule" schedule r.Repro.schedule;
          Alcotest.(check bool) "kind" true (r.Repro.kind = `Liveness)
      | None -> Alcotest.fail "repro line did not parse back");
      (match
         Dpor.replay ~progress:spec.progress spec.build_instance schedule
       with
      | { Dpor.violation = Some _; status = `Diverged (Props.Livelock_witness _)
        } ->
          ()
      | { Dpor.violation = Some _; _ } ->
          Alcotest.fail "replay violated but not as a livelock witness"
      | { Dpor.violation = None; _ } ->
          Alcotest.fail "replay did not reproduce the violation");
      (* ... and the legacy surface agrees the schedule diverges. *)
      (match
         Sim.run_schedule ~max_steps:(List.length schedule)
           (Scenarios.scenario_of_spec spec)
           schedule
       with
      | `Diverged -> ()
      | `Completed -> Alcotest.fail "run_schedule completed unexpectedly")

let dpor_extra_specs_quick () =
  (* The post-paper scenarios: sharded steal-sweep and Algorithm 2's
     batch-run commit/drain races.  Tiny trees, strong checks. *)
  List.iter
    (fun (algorithm, scenario) ->
      let s = find_spec algorithm scenario in
      match
        Dpor.explore ~max_steps:60 ~progress:s.progress s.build_instance
      with
      | stats ->
          Alcotest.(check bool)
            (algorithm ^ "/" ^ scenario ^ ": exhaustive")
            true stats.Dpor.exhaustive;
          Alcotest.(check bool)
            (algorithm ^ "/" ^ scenario ^ ": nontrivial")
            true (stats.Dpor.schedules > 1)
      | exception Sim.Violation { schedule; message } ->
          Alcotest.failf "%s/%s: schedule [%s]: %s" algorithm scenario
            (String.concat ";" (List.map string_of_int schedule))
            message)
    [
      ("sharded-llsc", "steal-sweep-2x2");
      ("evequoz-cas", "batch-commit");
      ("evequoz-cas", "batch-drain");
    ]

let dump_schedule_renders () =
  let spec = find_spec "toy-blocking" "spin-on-dead-flag" in
  let schedule =
    match
      Dpor.explore ~max_steps:60 ~progress:spec.progress spec.build_instance
    with
    | _ -> Alcotest.fail "expected a violation"
    | exception Sim.Violation { schedule; _ } -> schedule
  in
  let path = Filename.temp_file "nbq-dump" ".txt" in
  let oc = open_out path in
  Scenarios.dump_schedule spec schedule oc;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "names the spec" true
    (let sub = "toy-blocking/spin-on-dead-flag" in
     let n = String.length sub and m = String.length text in
     let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
     go 0);
  Alcotest.(check bool) "shows steps" true
    (String.length text > 200)

let repro_parse_rejects_noise () =
  Alcotest.(check bool) "plain text" true (Repro.parse "hello world" = None);
  Alcotest.(check bool) "v1 line is not v2-mc" true
    (Repro.parse
       "NBQ-FAULT-REPRO v1-torture queue=evequoz-llsc point=ll_reserve \
        action=stall workers=4 ops=100 trigger=12 seed=1"
    = None);
  let t =
    {
      Repro.algorithm = "evequoz-llsc";
      scenario = "enq-enq";
      kind = `Safety;
      schedule = [];
    }
  in
  match Repro.parse (Repro.to_line t) with
  | Some r ->
      Alcotest.(check bool) "empty schedule roundtrips" true
        (r.Repro.schedule = [])
  | None -> Alcotest.fail "roundtrip failed"

let () =
  Alcotest.run "modelcheck"
    [
      ( "explorer",
        [
          quick "finds a planted lost update" explorer_finds_lost_update;
          quick "CAS increment exact" explorer_cas_increment_exact;
          quick "LL/SC counter exact" explorer_llsc_counter_exact;
          quick "finds the naive-ring bug" explorer_finds_naive_ring_bug;
          slow "mcas transfers atomic" explorer_mcas_transfer_atomic;
          quick "bound 0 = sequential schedules" explorer_sequential_bound_zero;
          slow "simulated LL/SC counter, reused marker"
            (llsc_cas_counter ~threads:2 ~per_thread:2 ~preemption_bound:5);
          slow "simulated LL/SC counter, retry after steal"
            (llsc_cas_counter ~threads:3 ~per_thread:1 ~preemption_bound:4);
        ] );
      ( "algorithm-1",
        [
          slow "enq|enq" q1_enq_enq;
          slow "enq|deq empty" q1_enq_deq_empty;
          slow "enq|deq nonempty" q1_enq_deq_nonempty;
          slow "deq|deq" q1_deq_deq;
          slow "enq|deq at full" q1_full_boundary;
          slow "2 ops each" q1_two_ops_each;
          slow "three threads" q1_three_threads;
          slow "peek|deq" q1_peek_vs_deq;
          slow "peek|enq empty" q1_peek_vs_enq_empty;
        ] );
      ( "algorithm-2",
        [
          slow "enq|enq" q2_enq_enq;
          slow "enq|deq empty" q2_enq_deq_empty;
          slow "enq|deq nonempty" q2_enq_deq_nonempty;
          slow "deq|deq" q2_deq_deq;
          slow "enq|deq at full" q2_full_boundary;
          slow "2 ops each" q2_two_ops_each;
          slow "three threads" q2_three_threads;
          slow "peek|deq" q2_peek_vs_deq;
          slow "peek|enq empty" q2_peek_vs_enq_empty;
          slow "livelock branches exist unbounded" q2_livelock_branches_exist;
        ] );
      ( "baselines",
        [
          slow "shann matrix" shann_matrix;
          slow "shann three threads" shann_three_threads;
          slow "tsigas-zhang matrix" tz_matrix;
          slow "ms-gc matrix" ms_matrix;
          slow "herlihy-wing matrix" hw_matrix;
          slow "lms-optimistic matrix" lms_matrix;
          slow "valois-dcas matrix" valois_matrix;
        ] );
      ( "dpor",
        [
          quick "convicts toy-blocking spin" dpor_convicts_toy_blocking;
          quick "convicts eventcount lost wakeup" dpor_convicts_lost_wakeup;
          quick "park/wake has no lost wakeup" dpor_park_wake_no_lost_wakeup;
          quick "catches planted safety bug" dpor_catches_planted_safety_bug;
          quick ">=5x reduction vs plain DFS" dpor_reduction_factor;
          quick "livelock witness classification" dpor_livelock_witness_classified;
          quick "algorithm-1 matrix exhaustive" dpor_llsc_matrix_quick;
          quick "blelloch-wei matrix exhaustive" dpor_bw_matrix_quick;
          quick "convicts BW no-scan recycling" dpor_convicts_bw_noscan;
          quick "segmented matrix exhaustive" dpor_seg_matrix;
          quick "convicts segmented no-retire" dpor_convicts_seg_noretire;
          slow "scq matrix exhaustive" dpor_scq_matrix;
          quick "convicts scq no-threshold livelock" dpor_convicts_scq_nothreshold;
          quick "sharded + batch scenarios" dpor_extra_specs_quick;
          quick "dump_schedule renders" dump_schedule_renders;
          quick "repro parse rejects noise" repro_parse_rejects_noise;
        ] );
    ]
