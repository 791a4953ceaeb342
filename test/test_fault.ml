(* Fault layer tests: injector semantics, the stall/crash torture matrix
   over the Evequoz queues and the Blelloch-Wei backend (the lock-freedom
   acceptance criterion: every survivor completes >= 10k ops while one
   domain is frozen inside each fault window), registry abandonment, the
   composed metrics/recorder/injector hook, and fault windows as model
   checker scheduling points. *)

module Hook = Nbq_primitives.Hook
module Injector = Nbq_fault.Injector
module Torture = Nbq_fault.Torture
module Sim = Nbq_modelcheck.Sim

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* --- Fault points --- *)

let point_strings () =
  (* Derived from the catalog, not a literal count: adding a point must not
     break this test, but every point needs a distinct name, and exactly
     the windows parse (the names [torture --point] accepts). *)
  Alcotest.(check bool) "catalog has windows" true (Hook.windows <> []);
  Alcotest.(check int) "point names are distinct"
    (List.length Hook.all)
    (List.length (List.sort_uniq compare (List.map Hook.to_string Hook.all)));
  List.iter
    (fun p ->
      let name = Hook.to_string p in
      match Hook.of_string name with
      | Some p' -> Alcotest.(check bool) ("round trip " ^ name) true (p = p')
      | None ->
          Alcotest.(check bool) ("only counted events unparsable: " ^ name)
            false (Hook.is_window p))
    Hook.all;
  Alcotest.(check bool) "unknown rejected" true (Hook.of_string "nope" = None)

(* --- Injector --- *)

let injector_disarmed_noop () =
  let i = Injector.create () in
  Injector.hit i Hook.Op_gap;
  Alcotest.(check int) "no hits counted" 0 (Injector.hits i);
  Alcotest.(check bool) "not triggered" false (Injector.triggered i)

let injector_crash_on_nth () =
  let i = Injector.create () in
  Injector.arm i ~point:Hook.Op_gap ~action:Injector.Crash ~after:3;
  Injector.hit i Hook.Ll_reserve;
  (* wrong point: ignored *)
  Injector.hit i Hook.Op_gap;
  Injector.hit i Hook.Op_gap;
  Alcotest.(check bool) "not yet" false (Injector.triggered i);
  (try
     Injector.hit i Hook.Op_gap;
     Alcotest.fail "third hit must crash"
   with Injector.Crashed -> ());
  Alcotest.(check bool) "triggered" true (Injector.triggered i);
  Alcotest.(check int) "three hits" 3 (Injector.hits i);
  (match Injector.victim i with
  | Some id ->
      Alcotest.(check int) "victim is us" (Domain.self () :> int) id
  | None -> Alcotest.fail "victim recorded");
  (* One-shot: the fourth hit passes through. *)
  Injector.hit i Hook.Op_gap;
  Alcotest.(check int) "keeps counting" 4 (Injector.hits i)

let injector_stall_release () =
  let i = Injector.create () in
  Injector.arm i ~point:Hook.Sc_attempt ~action:Injector.Stall ~after:1;
  let d =
    Domain.spawn (fun () ->
        Injector.hit i Hook.Sc_attempt;
        42)
  in
  while not (Injector.triggered i) do
    Domain.cpu_relax ()
  done;
  Injector.release i;
  Alcotest.(check int) "victim resumed after release" 42 (Domain.join d)

let injector_arm_validation () =
  let i = Injector.create () in
  Alcotest.check_raises "after < 1" (Invalid_argument "Injector.arm: after < 1")
    (fun () ->
      Injector.arm i ~point:Hook.Op_gap ~action:Injector.Stall ~after:0)

(* --- Stall torture matrix (the acceptance criterion) --- *)

let stall_point target point () =
  let o =
    Torture.run ~workers:4 ~target_ops:10_000 target ~point
      ~action:Injector.Stall
  in
  Alcotest.(check bool) "point fired" true o.Torture.triggered;
  Alcotest.(check bool)
    (Printf.sprintf "survivors completed >= 10k ops (got %d)"
       o.Torture.min_survivor_ops)
    true
    (o.Torture.min_survivor_ops >= 10_000);
  Alcotest.(check int) "exact conservation" 0 o.Torture.balance;
  Alcotest.(check bool) "recovered" true o.Torture.recovered

let stall_matrix target =
  List.map
    (fun p ->
      slow
        (Printf.sprintf "%s / %s" (Torture.name target) (Hook.to_string p))
        (stall_point target p))
    (Torture.points target)

let opgap_generic name () =
  match Torture.find name with
  | None -> Alcotest.fail ("unknown torture target: " ^ name)
  | Some t -> stall_point t Hook.Op_gap ()

(* --- Crash torture and registry abandonment --- *)

let crash_point ?(check_audit = false) target point () =
  let workers = 4 in
  let o =
    Torture.run ~workers ~target_ops:5_000 target ~point
      ~action:Injector.Crash
  in
  Alcotest.(check bool) "point fired" true o.Torture.triggered;
  Alcotest.(check bool) "survivors progressed" true
    (o.Torture.min_survivor_ops >= 5_000);
  Alcotest.(check bool)
    (Printf.sprintf "conservation within +-1 (got %d)" o.Torture.balance)
    true o.Torture.conserved;
  Alcotest.(check bool) "recovered" true o.Torture.recovered;
  if check_audit then
    match o.Torture.audit with
    | None -> Alcotest.fail "target must expose an audit"
    | Some a ->
        (* Each crashed worker abandoned the handle it registered at
           operation entry, and nothing else does: the owned count at
           quiescence equals the victim count (the bounded leak the paper
           accepts).  The registry itself stays at the concurrency
           high-water mark — at most one record per worker, plus slack for
           the drain/recovery handle and one allocation race. *)
        let victims = workers - o.Torture.survivors in
        Alcotest.(check int) "abandoned variables = crashed workers" victims
          a.Nbq_primitives.Llsc_cas.owned;
        Alcotest.(check bool)
          (Printf.sprintf "registry bounded by concurrency (%d registered, %d workers)"
             a.Nbq_primitives.Llsc_cas.registered workers)
          true
          (a.Nbq_primitives.Llsc_cas.registered <= workers + 2)

(* --- One composed hook: metrics, recorder and injector --- *)

module Real = Nbq_primitives.Atomic_intf.Real

(* A fixed single-domain sequence on evequoz-cas built with [hook]:
   register, alternate enqueue bursts and drains past full and empty,
   deregister. *)
let cas_sequence hook () =
  let module H = (val hook : Hook.S) in
  let module Q = Nbq_core.Evequoz_cas.Make_probed (Real) (H) in
  let q = Q.create ~capacity:4 in
  let h = Q.register q in
  for round = 1 to 100 do
    for i = 1 to 5 do
      ignore (Q.enqueue_with q h ((round * 10) + i) : bool)
    done;
    for _ = 1 to 5 do
      ignore (Q.dequeue_with q h : int option)
    done
  done;
  Q.deregister h

let composed_hook () =
  let module M = Nbq_obs.Metrics in
  let module Rec = Nbq_trace.Recorder in
  let reference = M.create () in
  cas_sequence (M.probe reference) ();
  let hub = M.create () in
  let tracer = Rec.create ~sample:1 () in
  Rec.arm tracer;
  let inj = Injector.create () in
  Injector.arm inj ~point:Hook.Slot_swap ~action:Injector.Stall ~after:5;
  let hook =
    Hook.compose (M.probe hub)
      (Hook.compose (Rec.hook tracer) (Injector.hook inj))
  in
  let victim = Domain.spawn (cas_sequence hook) in
  while not (Injector.triggered inj) do
    Domain.cpu_relax ()
  done;
  (* The victim is frozen inside the window; the recorder, composed left
     of the injector, has already written the window's record last. *)
  let last_kinds =
    List.concat_map
      (fun r ->
        Array.to_list
          (Array.map
             (fun (x : Nbq_trace.Ring.record) ->
               Nbq_trace.Record.kind_of_tag x.tag)
             (Nbq_trace.Ring.snapshot ~last:1 r)))
      (Rec.rings tracer)
  in
  let in_window =
    List.mem (Some (Nbq_trace.Record.Fault_hit Hook.Slot_swap)) last_kinds
  in
  Injector.release inj;
  Domain.join victim;
  Alcotest.(check bool) "armed slot-swap stall fired" true
    (Injector.triggered inj);
  Alcotest.(check bool) "recorder holds the slot-swap record" true in_window;
  List.iter
    (fun ev ->
      Alcotest.(check int)
        ("same count as metrics alone: " ^ Nbq_obs.Event.to_string ev)
        (M.count reference ev) (M.count hub ev))
    Nbq_obs.Event.all;
  Alcotest.(check bool) "the sequence counted something" true
    (M.count hub Nbq_obs.Event.Ll_reserve > 0
    && M.count hub Nbq_obs.Event.Tag_register = 1)

(* --- Fault windows as scheduling points in the model checker --- *)

module SimCas =
  Nbq_core.Evequoz_cas.Make_probed (Sim.Atomic) (Sim.Yield_at_windows)

let injected_cas_scenario () =
  let q = SimCas.create ~capacity:2 in
  let deq_ok = Array.make 2 false in
  let worker i () =
    let h = SimCas.register q in
    ignore (SimCas.enqueue_with q h (100 + i));
    (match SimCas.dequeue_with q h with
    | Some _ -> deq_ok.(i) <- true
    | None -> ());
    SimCas.deregister h
  in
  ( [| worker 0; worker 1 |],
    fun () ->
      if not (deq_ok.(0) && deq_ok.(1)) then
        failwith "a dequeue lost its item";
      let len = Sim.run_sequential (fun () -> SimCas.length q) in
      if len <> 0 then failwith "queue not drained" )

let explore_injected_cas_exhaustive () =
  let stats =
    Sim.explore ~max_schedules:200_000 ~preemption_bound:(Some 2)
      injected_cas_scenario
  in
  Alcotest.(check bool) "schedules completed" true (stats.Sim.completed > 0)

let () =
  Alcotest.run "fault"
    [
      ("points", [ quick "to_string/of_string round trip" point_strings ]);
      ( "injector",
        [
          quick "disarmed is a no-op" injector_disarmed_noop;
          quick "crash on the nth hit, one-shot" injector_crash_on_nth;
          quick "stall until release" injector_stall_release;
          quick "arm validation" injector_arm_validation;
        ] );
      ("stall-matrix evequoz-llsc", stall_matrix Torture.evequoz_llsc);
      ("stall-matrix evequoz-cas", stall_matrix Torture.evequoz_cas);
      ("stall-matrix evequoz-bw", stall_matrix Torture.evequoz_bw);
      ("stall-matrix evequoz-seg", stall_matrix Torture.evequoz_seg);
      ("stall-matrix scq", stall_matrix Torture.scq);
      ("stall-matrix scq-wcq", stall_matrix Torture.scq_wcq);
      ( "stall-op-gap generic",
        [
          slow "two-lock" (opgap_generic "two-lock");
          slow "ms-gc" (opgap_generic "ms-gc");
        ] );
      ( "crash",
        [
          slow "llsc / counter-bump"
            (crash_point Torture.evequoz_llsc Hook.Counter_bump);
          slow "cas / slot-swap abandons marker"
            (crash_point ~check_audit:true Torture.evequoz_cas Hook.Slot_swap);
          slow "cas / tag-register abandons variable"
            (crash_point ~check_audit:true Torture.evequoz_cas
               Hook.Tag_register);
          slow "cas / tag-deregister abandons variable"
            (crash_point ~check_audit:true Torture.evequoz_cas
               Hook.Tag_deregister);
          slow "bw / slot-swap abandons announcement"
            (crash_point ~check_audit:true Torture.evequoz_bw Hook.Slot_swap);
          slow "bw / tag-register abandons record"
            (crash_point ~check_audit:true Torture.evequoz_bw
               Hook.Tag_register);
          slow "seg / seg-append abandons fresh segment"
            (crash_point Torture.evequoz_seg Hook.Seg_append);
          slow "seg / seg-retire abandons hazard record"
            (crash_point Torture.evequoz_seg Hook.Seg_retire);
          slow "scq / faa-cycle abandons ticket"
            (crash_point Torture.scq Hook.Faa_cycle);
          slow "scq / threshold-reset dies before restore"
            (crash_point Torture.scq Hook.Threshold_reset);
          slow "scq / catchup dies mid tail-repair"
            (crash_point Torture.scq Hook.Catchup);
          slow "scq-wcq / faa-cycle abandons ticket"
            (crash_point Torture.scq_wcq Hook.Faa_cycle);
        ] );
      ( "hook",
        [ quick "metrics, recorder and injector composed" composed_hook ] );
      ( "modelcheck-injected",
        [
          slow "exhaustive, fault windows as yields"
            explore_injected_cas_exhaustive;
        ] );
    ]
