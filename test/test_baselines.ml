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
      ( "ms-doherty",
        [ slow "registry bounded by concurrency" doherty_registry_bounded ] );
      ( "ms-hp",
        [
          quick "recycles nodes" ms_hp_recycles_nodes;
          quick "retire factor controls scans" ms_hp_retire_factor_controls_scans;
        ] );
      ( "shann", [ quick "indices track ops" shann_indices_track ] );
    ]
