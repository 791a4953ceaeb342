(* Baseline-specific tests: behaviours beyond the shared conformance
   battery — statistics counters, reclamation plumbing, algorithm-specific
   cost/space characteristics. *)

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* --- Herlihy–Wing --- *)

module Hw = Nbq_baselines.Herlihy_wing

let hw_ticket_counter () =
  let q = Hw.create () in
  Alcotest.(check int) "fresh" 0 (Hw.completed_enqueues q);
  for i = 1 to 10 do
    Hw.enqueue q i
  done;
  Alcotest.(check int) "ten tickets" 10 (Hw.completed_enqueues q);
  for _ = 1 to 10 do
    ignore (Hw.try_dequeue q)
  done;
  (* Dequeues never release tickets: the array only grows (the §2 point). *)
  Alcotest.(check int) "tickets persist" 10 (Hw.completed_enqueues q)

let hw_crosses_chunk_boundary () =
  (* The chunked "infinite array" must be seamless across chunk edges
     (chunk size 256) and table growth (initial table covers 4 chunks). *)
  let q = Hw.create () in
  let n = 5_000 in
  for i = 1 to n do
    Hw.enqueue q i
  done;
  Alcotest.(check int) "length" n (Hw.length q);
  for i = 1 to n do
    Alcotest.(check (option int)) "fifo across chunks" (Some i)
      (Hw.try_dequeue q)
  done;
  Alcotest.(check (option int)) "empty" None (Hw.try_dequeue q)

let hw_scan_cost_grows () =
  (* Not a timing test (too flaky for CI): count scan *steps* indirectly by
     verifying the dequeue still works after a long history — the cost
     property itself is measured by the space bench preset. *)
  let q = Hw.create () in
  for i = 1 to 20_000 do
    Hw.enqueue q i;
    ignore (Hw.try_dequeue q)
  done;
  Hw.enqueue q 42;
  Alcotest.(check (option int)) "works after 20k history" (Some 42)
    (Hw.try_dequeue q)

(* --- Ladan-Mozes–Shavit --- *)

module Lms = Nbq_baselines.Ladan_mozes_shavit

let lms_fix_counter_starts_zero () =
  let q = Lms.create () in
  for i = 1 to 100 do
    Lms.enqueue q i
  done;
  for i = 1 to 100 do
    Alcotest.(check (option int)) "fifo" (Some i) (Lms.try_dequeue q)
  done;
  (* Sequential use never breaks the optimism. *)
  Alcotest.(check int) "no fixups sequentially" 0 (Lms.fix_list_runs q)

let lms_survives_fix_path () =
  (* Force the repair path deterministically: enqueue via the functor on
     sim atomics is overkill here; instead exercise heavy interleaving and
     only assert integrity (the model checker covers the fix path
     exhaustively). *)
  let q = Lms.create () in
  let n = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Lms.enqueue q i
        done)
  in
  let got = ref 0 and last = ref 0 and ordered = ref true in
  while !got < n do
    match Lms.try_dequeue q with
    | Some v ->
        if v <= !last then ordered := false;
        last := v;
        incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "strictly increasing" true !ordered;
  Alcotest.(check int) "drained" 0 (Lms.length q)

(* --- MS-Doherty --- *)

let doherty_registry_bounded () =
  let q = Nbq_baselines.Ms_doherty.create () in
  let domains = 3 and per_domain = 1_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Nbq_baselines.Ms_doherty.enqueue q ((d * per_domain) + i);
              ignore (Nbq_baselines.Ms_doherty.try_dequeue q)
            done))
  in
  List.iter Domain.join workers;
  (* Two handles per domain; recycling may add a few under contention but
     the bound must track concurrency, not the 6k operations. *)
  let size = Nbq_baselines.Ms_doherty.registry_size q in
  Alcotest.(check bool)
    (Printf.sprintf "registry %d stays near 2 x domains" size)
    true
    (size >= 2 && size <= 6 * domains)

(* --- MS-HP reclamation plumbing --- *)

let ms_hp_recycles_nodes () =
  let q = Nbq_baselines.Ms_hazard.create () in
  let ops = 10_000 in
  for i = 1 to ops do
    Nbq_baselines.Ms_hazard.enqueue q i;
    ignore (Nbq_baselines.Ms_hazard.try_dequeue q)
  done;
  let allocated =
    Nbq_baselines.Ms_node.allocated (Nbq_baselines.Ms_hazard.allocator q)
  in
  let mgr = Nbq_baselines.Ms_hazard.hp_manager q in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %d nodes for %d ops (reuse works)" allocated ops)
    true (allocated < ops / 10);
  Alcotest.(check bool) "scans happened" true
    (Nbq_reclaim.Hazard_pointer.total_scans mgr > 0);
  Alcotest.(check bool) "frees happened" true
    (Nbq_reclaim.Hazard_pointer.total_freed mgr > 0)

let ms_hp_retire_factor_controls_scans () =
  let run factor =
    let q = Nbq_baselines.Ms_hazard.create ~retire_factor:factor () in
    for i = 1 to 2_000 do
      Nbq_baselines.Ms_hazard.enqueue q i;
      ignore (Nbq_baselines.Ms_hazard.try_dequeue q)
    done;
    Nbq_reclaim.Hazard_pointer.total_scans
      (Nbq_baselines.Ms_hazard.hp_manager q)
  in
  let frequent = run 1 and rare = run 64 in
  Alcotest.(check bool)
    (Printf.sprintf "factor 1 scans (%d) > factor 64 scans (%d)" frequent rare)
    true (frequent > rare)

(* --- MS-EBR plumbing --- *)

let ms_ebr_reclaims () =
  let q = Nbq_baselines.Ms_epoch.create ~batch_size:8 () in
  for i = 1 to 5_000 do
    Nbq_baselines.Ms_epoch.enqueue q i;
    ignore (Nbq_baselines.Ms_epoch.try_dequeue q)
  done;
  let mgr = Nbq_baselines.Ms_epoch.epoch_manager q in
  Alcotest.(check bool) "epoch advanced" true
    (Nbq_reclaim.Epoch.global_epoch mgr > 2);
  Alcotest.(check bool) "nodes freed" true
    (Nbq_reclaim.Epoch.total_freed mgr > 0);
  let allocated =
    Nbq_baselines.Ms_node.allocated (Nbq_baselines.Ms_epoch.allocator q)
  in
  Alcotest.(check bool)
    (Printf.sprintf "allocated only %d nodes" allocated)
    true (allocated < 500)

(* --- Tsigas–Zhang counters --- *)

let tz_indices_lag_bounded () =
  let module Tz = Nbq_baselines.Tsigas_zhang in
  let q = Tz.create ~capacity:8 in
  for i = 1 to 100 do
    ignore (Tz.try_enqueue q i);
    ignore (Tz.try_dequeue q)
  done;
  (* Lazy updates: the counters lag but stay within a ring of the truth. *)
  let hd = Tz.head_index q and tl = Tz.tail_index q in
  Alcotest.(check bool)
    (Printf.sprintf "head %d and tail %d within lag bound of 100" hd tl)
    true
    (hd <= 100 && tl <= 100 && 100 - hd <= 8 && 100 - tl <= 8);
  Alcotest.(check int) "length exact when quiescent" 0 (Tz.length q)

(* --- Shann indices --- *)

let shann_indices_track () =
  let module S = Nbq_baselines.Shann in
  let q = S.create ~capacity:4 in
  for i = 1 to 50 do
    ignore (S.try_enqueue q i);
    ignore (S.try_dequeue q)
  done;
  Alcotest.(check int) "tail counts enqueues" 50 (S.tail_index q);
  Alcotest.(check int) "head counts dequeues" 50 (S.head_index q)

let () =
  Alcotest.run "baselines"
    [
      ( "herlihy-wing",
        [
          quick "ticket counter" hw_ticket_counter;
          quick "crosses chunk boundaries" hw_crosses_chunk_boundary;
          slow "works after long history" hw_scan_cost_grows;
        ] );
      ( "lms-optimistic",
        [
          quick "no fixups sequentially" lms_fix_counter_starts_zero;
          slow "concurrent integrity" lms_survives_fix_path;
        ] );
      ( "ms-doherty",
        [ slow "registry bounded by concurrency" doherty_registry_bounded ] );
      ( "ms-hp",
        [
          quick "recycles nodes" ms_hp_recycles_nodes;
          quick "retire factor controls scans" ms_hp_retire_factor_controls_scans;
        ] );
      ( "ms-ebr", [ quick "reclaims through epochs" ms_ebr_reclaims ] );
      ( "tsigas-zhang", [ quick "index lag bounded" tz_indices_lag_bounded ] );
      ( "shann", [ quick "indices track ops" shann_indices_track ] );
    ]
