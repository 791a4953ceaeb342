(* Model-checking tests.  Every spec of the catalog
   (Nbq_modelcheck.Scenarios) is explored in its own mode by exactly one
   case (see the catalog walk): each pass-expected spec must be
   exhaustive, and
   each seeded bug convicted with the expected kind, a round-tripping
   NBQ-FAULT-REPRO line and a schedule that Dpor.replay reproduces.  Also:
   sanity-check the explorer itself on plain DFS (planted lost update,
   Fig.1-style naive ring, exact counters), check that plain DFS reaches
   the same verdicts as DPOR, and that every registry family is in the
   catalog or exempted with a reason. *)

module Sim = Nbq_modelcheck.Sim
module Dpor = Nbq_modelcheck.Dpor
module Props = Nbq_modelcheck.Props
module Repro = Nbq_modelcheck.Repro
module Scenarios = Nbq_modelcheck.Scenarios
module SimCell = Nbq_primitives.Llsc.Make (Sim.Atomic)

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let instance tasks check = { Dpor.tasks; check; invariant = None }

(* --- Explorer sanity: plain DFS, CHESS-style preemption bound --- *)

let dfs ?(bound = 4) build =
  Dpor.explore ~dpor:false ~preemption_bound:(Some bound)
    ~progress:Props.Lock_free build

let explorer_finds_lost_update () =
  (* Two threads do a non-atomic increment (read, then write).  The
     explorer must find the interleaving where one update is lost. *)
  let build () =
    let c = Sim.Atomic.make 0 in
    let incr () =
      let v = Sim.Atomic.get c in
      Sim.Atomic.set c (v + 1)
    in
    instance [| incr; incr |] (fun () ->
        let v = Sim.run_sequential (fun () -> Sim.Atomic.get c) in
        if v <> 2 then failwith (Printf.sprintf "lost update: %d" v))
  in
  match dfs build with
  | _ -> Alcotest.fail "explorer missed the lost update"
  | exception Sim.Violation { schedule; message } -> (
      Alcotest.(check bool) "message mentions lost update" true
        (String.length message > 0);
      (* The violating schedule must reproduce deterministically. *)
      match Dpor.replay ~progress:Props.Lock_free build schedule with
      | { Dpor.status = `Completed; violation = Some _ } -> ()
      | _ -> Alcotest.fail "replay did not reproduce")

let explorer_cas_increment_exact () =
  (* CAS retry loops make the increment atomic: no interleaving loses an
     update, and with a preemption bound nothing diverges. *)
  let build () =
    let c = Sim.Atomic.make 0 in
    let incr () =
      let rec go () =
        let v = Sim.Atomic.get c in
        if not (Sim.Atomic.compare_and_set c v (v + 1)) then go ()
      in
      go ()
    in
    instance [| incr; incr; incr |] (fun () ->
        let v = Sim.run_sequential (fun () -> Sim.Atomic.get c) in
        if v <> 3 then failwith (Printf.sprintf "bad count: %d" v))
  in
  let stats = dfs build in
  Alcotest.(check bool) "exhaustive" true stats.Dpor.exhaustive;
  Alcotest.(check int) "no divergence under preemption bound" 0
    (Dpor.diverged stats);
  Alcotest.(check int) "every bounded schedule" 1662 stats.Dpor.schedules

let explorer_llsc_counter_exact () =
  let build () =
    let c = SimCell.make 0 in
    let incr () =
      let rec go () =
        let l = SimCell.ll c in
        if not (SimCell.sc c l (SimCell.value l + 1)) then go ()
      in
      go ();
      go ()
    in
    instance [| incr; incr |] (fun () ->
        let v = Sim.run_sequential (fun () -> SimCell.get c) in
        if v <> 4 then failwith (Printf.sprintf "bad count: %d" v))
  in
  Alcotest.(check bool) "exhaustive" true (dfs build).Dpor.exhaustive

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
  let build () =
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
    instance (Array.make threads incr) (fun () ->
        let v = Sim.run_sequential (fun () -> SimLc.peek c) in
        if v <> threads * per_thread then
          failwith (Printf.sprintf "bad count: %d" v))
  in
  Alcotest.(check bool) "exhaustive" true
    (dfs ~bound:preemption_bound build).Dpor.exhaustive

(* The naive ring (plain store into the tail slot, as in the Fig. 1
   discussion): it loses an item under concurrent enqueues. *)
let naive_ring () =
  let module A = Sim.Atomic in
  let slots = Array.init 4 (fun _ -> A.make 0) in
  let tail = A.make 0 in
  let enq v () =
    let t = A.get tail in
    A.set slots.(t land 3) v;
    ignore (A.compare_and_set tail t (t + 1));
    Sim.op_completed ()
  in
  instance [| enq 1; enq 2 |] (fun () ->
      Sim.run_sequential (fun () ->
          let found = ref 0 in
          Array.iter (fun s -> if A.get s <> 0 then incr found) slots;
          if !found <> 2 then failwith "naive ring lost an item"))

let explorer_finds_naive_ring_bug () =
  match dfs naive_ring with
  | _ -> Alcotest.fail "explorer missed the naive-ring bug"
  | exception Sim.Violation _ -> ()

let explorer_mcas_transfer_atomic () =
  (* Two concurrent 2-word MCAS transfers between the same cells: over all
     interleavings the sum is conserved and both transfers apply. *)
  let module M = Nbq_primitives.Mcas.Make (Sim.Atomic) in
  let build () =
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
    instance [| transfer 10; transfer 20 |] (fun () ->
        Sim.run_sequential (fun () ->
            let va = M.value (M.read a) and vb = M.value (M.read b) in
            if va + vb <> 100 then
              failwith (Printf.sprintf "sum broken: %d + %d" va vb);
            if va <> 70 then
              failwith (Printf.sprintf "transfers lost: a = %d" va)))
  in
  let stats = dfs ~bound:3 build in
  Alcotest.(check bool) "exhaustive" true stats.Dpor.exhaustive;
  Alcotest.(check int) "no divergence" 0 (Dpor.diverged stats)

let explorer_sequential_bound_zero () =
  (* preemption bound 0: only thread-at-a-time schedules; for two threads
     of straight-line atomic code that is exactly 2 schedules. *)
  let build () =
    let c = Sim.Atomic.make 0 in
    let bump () = ignore (Sim.Atomic.fetch_and_add c 1) in
    instance [| bump; bump |] ignore
  in
  let stats = dfs ~bound:0 build in
  Alcotest.(check bool) "exhaustive" true stats.Dpor.exhaustive;
  Alcotest.(check int) "exactly 2 schedules" 2 stats.Dpor.schedules

let find_spec algorithm scenario =
  match Scenarios.find ~algorithm ~scenario with
  | Some s -> s
  | None -> Alcotest.failf "spec %s/%s missing from the catalog" algorithm scenario

let q2_livelock_branches_exist () =
  (* Without a preemption bound, the reservation-stealing ping-pong of the
     CAS simulation produces unboundedly long schedules — the
     obstruction-freedom caveat discussed in DESIGN.md.  The explorer must
     observe them (cut at the step bound, then resolved or classified by
     the fair continuation) and no terminating schedule may be wrong. *)
  let stats =
    Scenarios.explore ~dpor:false ~max_steps:300 ~max_schedules:20_000
      (find_spec "evequoz-cas" "enq-enq")
  in
  Alcotest.(check bool) "found cut branches" true
    (stats.Dpor.resolved + Dpor.diverged stats > 0)

(* --- The catalog --- *)

let class_name = function
  | `Safety -> "safety"
  | `Liveness `Stuck -> "liveness (stuck)"
  | `Liveness `Livelock -> "liveness (livelock witness)"

(* A convicted seeded bug: its NBQ-FAULT-REPRO line survives a
   print/parse roundtrip, and Dpor.replay re-derives the same violation
   from the schedule with the expected class — safety on a completed
   run, or a liveness divergence that is stuck (spinning or parked) or a
   livelock witness. *)
let convicted (s : Scenarios.spec) label kind schedule message =
  let repro =
    Repro.of_violation ~algorithm:s.algorithm ~scenario:s.scenario ~message
      schedule
  in
  (match Repro.parse ("log noise " ^ Repro.to_line repro) with
  | Some r ->
      Alcotest.(check bool) (label ^ ": repro roundtrip") true (r = repro)
  | None -> Alcotest.failf "%s: repro line did not parse back" label);
  match Dpor.replay ~progress:s.progress s.build_instance schedule with
  | { Dpor.violation = Some m; status } ->
      Alcotest.(check string) (label ^ ": replayed violation") message m;
      let observed =
        match status with
        | `Completed | `Fair_completed -> "safety"
        | `Diverged (Props.Stuck _) -> class_name (`Liveness `Stuck)
        | `Diverged (Props.Livelock_witness _) ->
            class_name (`Liveness `Livelock)
        | `Diverged Props.Benign_retry -> "liveness (benign retry)"
      in
      Alcotest.(check string) (label ^ ": violation class") (class_name kind)
        observed
  | { Dpor.violation = None; _ } ->
      Alcotest.failf "%s: replay did not reproduce the violation" label

(* Explore a spec (in its own mode unless overridden) and require the
   outcome it expects; a passing spec returns its stats.  Under a
   preemption bound every schedule is finite, so a passing bounded run
   must also have cut none at the step bound: its tree is then the whole
   bounded tree, as with an unlimited step bound. *)
let check_spec ?max_steps ?dpor ?preemption_bound (s : Scenarios.spec) =
  let label = s.algorithm ^ "/" ^ s.scenario in
  match Scenarios.explore ?max_steps ?dpor ?preemption_bound s with
  | stats -> (
      match s.expect with
      | `Pass ->
          Alcotest.(check bool) (label ^ ": exhaustive") true
            stats.Dpor.exhaustive;
          if preemption_bound <> None || s.bound <> None then begin
            Alcotest.(check int) (label ^ ": no divergence under bound") 0
              (Dpor.diverged stats);
            Alcotest.(check int) (label ^ ": no schedule cut under bound") 0
              stats.Dpor.resolved
          end;
          Some stats
      | `Violation _ -> Alcotest.failf "%s: seeded bug not convicted" label)
  | exception Sim.Violation { schedule; message } -> (
      match s.expect with
      | `Pass ->
          Alcotest.failf "%s: schedule [%s]: %s" label
            (String.concat ";" (List.map string_of_int schedule))
            message
      | `Violation kind ->
          convicted s label kind schedule message;
          None)

(* --- The catalog walk --- *)

(* Every spec is explored in its own mode by exactly one case.  The
   cases below keep the suite's long-standing names; each claims the
   specs [pick] selects, explores them at [max_steps] (the explorer's
   default when omitted), and [extra] adds checks on a passing spec's
   stats. *)
type walk = {
  name : string;
  tier : Alcotest.speed_level;
  pick : Scenarios.spec -> bool;
  max_steps : int option;
  extra : Dpor.stats -> unit;
}

let walk ?max_steps ?(extra = ignore) tier name pick =
  { name; tier; pick; max_steps; extra }

let alg algorithms (s : Scenarios.spec) = List.mem s.algorithm algorithms
let key algorithm scenario (s : Scenarios.spec) =
  s.algorithm = algorithm && s.scenario = scenario

(* The paper's two algorithms' specs, keyed by the case names of the
   "algorithm-1" and "algorithm-2" groups: the slug of the name, except
   the three-thread scenario. *)
let q_names =
  [ "enq|enq"; "enq|deq empty"; "enq|deq nonempty"; "deq|deq";
    "enq|deq at full"; "2 ops each"; "three threads"; "peek|deq";
    "peek|enq empty" ]

let q_slug = function "three threads" -> "enq-enq-deq" | n -> Scenarios.slug n

let algorithm_2_walks =
  List.map (fun n -> walk `Slow n (key "evequoz-cas" (q_slug n))) q_names

let baseline_walks =
  walk `Slow "shann matrix" (fun (s : Scenarios.spec) ->
      s.algorithm = "shann" && s.scenario <> "enq-enq-deq")
  :: walk `Slow "shann three threads" (key "shann" "enq-enq-deq")
  :: List.map
       (fun a -> walk `Slow (a ^ " matrix") (alg [ a ]))
       [ "ms-gc"; "herlihy-wing"; "valois-dcas" ]

let dpor_walks =
  [
    walk `Quick "convicts toy-blocking spin" (alg [ "toy-blocking" ]);
    walk `Quick "convicts toy-livelock ping-pong" (alg [ "toy-livelock" ]);
    walk `Quick "convicts eventcount lost wakeup" (key "sim-wait" "lost-wakeup");
    (* The production eventcount under simulation: no schedule strands
       the parked consumer. *)
    walk `Quick "park/wake has no lost wakeup" (key "sim-wait" "park-wake")
      ~extra:(fun stats ->
        Alcotest.(check int) "no stuck branch" 0 stats.Dpor.stuck;
        Alcotest.(check bool) "nontrivial tree" true
          (stats.Dpor.schedules > 50));
    walk `Quick "algorithm-1 matrix exhaustive" (alg [ "evequoz-llsc" ]);
    walk `Quick "convicts algorithm-1 shared-Empty null-ABA"
      (alg [ "evequoz-llsc-shared-empty" ]);
    walk `Quick "convicts algorithm-2 shared-Empty null-ABA"
      (alg [ "evequoz-cas-shared-empty" ]);
    (* The segmented queue's trees are explored 150 steps deep before the
       fair continuation takes over. *)
    walk `Quick "segmented matrix exhaustive" (alg [ "evequoz-seg" ])
      ~max_steps:150;
    walk `Quick "convicts segmented no-retire"
      (alg [ "evequoz-seg-noretire" ]) ~max_steps:150;
    (* SCQ claims obstruction freedom: every tree must still complete
       under the step budget. *)
    walk `Slow "scq matrix exhaustive" (alg [ "scq" ])
      ~extra:(fun stats ->
        Alcotest.(check int) "no stuck branch" 0 stats.Dpor.stuck);
    walk `Quick "convicts scq no-threshold livelock" (alg [ "scq-nothreshold" ]);
    walk `Quick "sharded + batch scenarios"
      (fun (s : Scenarios.spec) ->
        s.algorithm = "sharded-llsc"
        || key "evequoz-cas" "batch-commit" s
        || key "evequoz-cas" "batch-drain" s)
      ~extra:(fun stats ->
        Alcotest.(check bool) "nontrivial" true (stats.Dpor.schedules > 1));
  ]

let walk_case w =
  Alcotest.test_case w.name w.tier (fun () ->
      match List.filter w.pick (Scenarios.specs ()) with
      | [] -> Alcotest.failf "%s: claims no spec" w.name
      | l ->
          List.iter
            (fun s -> Option.iter w.extra (check_spec ?max_steps:w.max_steps s))
            l)

let walks = algorithm_2_walks @ baseline_walks @ dpor_walks

let catalog_partitioned () =
  (* Every spec is explored in its own mode by exactly one case: a new
     spec or algorithm must be placed in a named case above. *)
  List.iter
    (fun (s : Scenarios.spec) ->
      let n = List.length (List.filter (fun w -> w.pick s) walks) in
      if n <> 1 then
        Alcotest.failf "%s/%s is claimed by %d cases" s.algorithm s.scenario n)
    (Scenarios.specs ())

(* The reference check: plain DFS under preemption bound 4 (the mode the
   bounded spec runs in) reaches the same verdict as the catalog's own
   mode on Algorithm 1's specs (one case each, the suite's "algorithm-1"
   group) and on every seeded bug. *)
let dfs_reference s = ignore (check_spec ~dpor:false ~preemption_bound:4 s)

let algorithm_1_cases =
  List.map
    (fun n ->
      slow n (fun () -> dfs_reference (find_spec "evequoz-llsc" (q_slug n))))
    q_names

let dfs_reference_seeded () =
  List.iter
    (fun (s : Scenarios.spec) -> if s.expect <> `Pass then dfs_reference s)
    (Scenarios.specs ())

(* Every registry family is either model-checked or exempted here, with
   the reason: a new family cannot skip the checker silently. *)
let exempt =
  [
    ( "evequoz-llsc-weak",
      "weak cells draw spurious SC failures from a real PRNG on real atomics" );
    ("ms-hp-sorted", "hazard pointers are not functorized over ATOMIC");
    ("ms-hp-unsorted", "hazard pointers are not functorized over ATOMIC");
    ("ms-doherty", "its cells are not functorized over ATOMIC yet");
    ("two-lock", "lock-based: blocking by construction");
    ("lock-ring", "lock-based: blocking by construction");
    ("seq-ring", "sequential: no synchronization to check");
  ]

let registry_covered () =
  List.iter
    (fun (f : Nbq_harness.Registry.Family.t) ->
      let checked = List.mem f.name Scenarios.algorithms in
      let exempted = List.mem_assoc f.name exempt in
      if checked = exempted then
        Alcotest.failf "%s: %s" f.name
          (if checked then "model-checked but still exempted"
           else "neither in the spec catalog nor exempted"))
    Nbq_harness.Registry.families

(* --- DPOR engine --- *)

let dpor_catches_planted_safety_bug () =
  (* The naive ring again, through the DPOR engine: reduction must not
     prune the item-losing interleaving away. *)
  match Dpor.explore ~progress:Props.Lock_free naive_ring with
  | _ -> Alcotest.fail "DPOR missed the naive-ring bug"
  | exception Sim.Violation { schedule; message } -> (
      Alcotest.(check bool) "safety, not liveness" false
        (Props.is_liveness_message message);
      match Dpor.replay ~progress:Props.Lock_free naive_ring schedule with
      | { Dpor.violation = Some _; _ } -> ()
      | { Dpor.violation = None; _ } ->
          Alcotest.fail "replay did not reproduce")

let dpor_reduction_factor () =
  (* The acceptance bar: on the standard matrix, DPOR needs >= 5x fewer
     schedules than unreduced DFS over the same tree.  The DFS budget is
     capped at 5x the DPOR count + 1, so hitting the cap proves the
     ratio. *)
  let spec = find_spec "evequoz-llsc" "enq-enq" in
  let dpor_stats = Scenarios.explore spec in
  Alcotest.(check bool) "DPOR exhaustive" true dpor_stats.Dpor.exhaustive;
  let budget = (5 * dpor_stats.Dpor.schedules) + 1 in
  let dfs_stats = Scenarios.explore ~dpor:false ~max_schedules:budget spec in
  Alcotest.(check bool) "DFS needs >= 5x the schedules" true
    ((not dfs_stats.Dpor.exhaustive)
    || dfs_stats.Dpor.schedules >= 5 * dpor_stats.Dpor.schedules)

let dpor_livelock_witness_classified () =
  (* The toy-livelock witness convicts its lock-free claim in the catalog
     walk; under an obstruction-freedom claim it is tolerated and
     counted. *)
  let s = find_spec "toy-livelock" "ping-pong" in
  match
    Dpor.explore ~max_schedules:50 ~progress:Props.Obstruction_free
      s.build_instance
  with
  | stats ->
      Alcotest.(check bool) "witnesses observed" true (stats.Dpor.livelock > 0)
  | exception Sim.Violation { message; _ } -> Alcotest.fail message

let dump_schedule_renders () =
  let spec = find_spec "toy-blocking" "spin-on-dead-flag" in
  let schedule =
    match Scenarios.explore spec with
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
      ("algorithm-1", algorithm_1_cases);
      ( "algorithm-2",
        List.map walk_case algorithm_2_walks
        @ [ slow "livelock branches exist unbounded" q2_livelock_branches_exist ]
      );
      ("baselines", List.map walk_case baseline_walks);
      ( "catalog",
        [
          quick "every registry family is covered" registry_covered;
          quick "every spec is walked once" catalog_partitioned;
        ] );
      ( "dpor",
        List.map walk_case dpor_walks
        @ [
            quick "catches planted safety bug" dpor_catches_planted_safety_bug;
            quick ">=5x reduction vs plain DFS" dpor_reduction_factor;
            slow "plain DFS reaches the same verdicts" dfs_reference_seeded;
            quick "livelock witness classification"
              dpor_livelock_witness_classified;
            quick "dump_schedule renders" dump_schedule_renders;
            quick "repro parse rejects noise" repro_parse_rejects_noise;
          ] );
    ]
