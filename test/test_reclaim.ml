(* Unit tests for the reclamation substrates: free pool, hazard pointers
   and the segmented queue's hazard cells. *)

module Fp = Nbq_reclaim.Free_pool
module Hp = Nbq_reclaim.Hazard_pointer
module Seg = Nbq_segmented.Segmented
module Sq = Seg.Cas_core

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* --- Free pool --- *)

let fp_empty () =
  let p : int Fp.t = Fp.create () in
  Alcotest.(check (option int)) "empty take" None (Fp.take p);
  Alcotest.(check int) "size" 0 (Fp.size p)

let fp_lifo () =
  let p = Fp.create () in
  Fp.put p 1;
  Fp.put p 2;
  Fp.put p 3;
  Alcotest.(check (option int)) "lifo 3" (Some 3) (Fp.take p);
  Alcotest.(check (option int)) "lifo 2" (Some 2) (Fp.take p);
  Alcotest.(check (option int)) "lifo 1" (Some 1) (Fp.take p);
  Alcotest.(check (option int)) "drained" None (Fp.take p)

let fp_identity_preserved () =
  (* The pool must return the very same block — that's what makes ABA real
     for its clients. *)
  let p = Fp.create () in
  let x = ref 42 in
  Fp.put p x;
  (match Fp.take p with
  | Some y -> Alcotest.(check bool) "same block" true (x == y)
  | None -> Alcotest.fail "lost node")

let fp_stats () =
  let p = Fp.create () in
  Fp.put p 1;
  Fp.put p 2;
  ignore (Fp.take p);
  Alcotest.(check int) "puts" 2 (Fp.stats_puts p);
  Alcotest.(check int) "takes" 1 (Fp.stats_takes p);
  Alcotest.(check int) "size" 1 (Fp.size p)

let fp_concurrent_conservation () =
  let p = Fp.create () in
  let per_domain = 10_000 and domains = 4 in
  let takes = Atomic.make 0 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Fp.put p ((d * per_domain) + i);
              if i mod 2 = 0 then
                match Fp.take p with
                | Some _ -> ignore (Atomic.fetch_and_add takes 1)
                | None -> ()
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "puts - takes = size"
    ((domains * per_domain) - Atomic.get takes)
    (Fp.size p)

(* --- Hazard pointers --- *)

type hp_node = { id : int; mutable live : bool }

let hp_manager ?(sorted_scan = true) ?threshold freed =
  Hp.create ~sorted_scan
    ?threshold
    ~node_id:(fun n -> n.id)
    ~free:(fun n ->
      n.live <- false;
      freed := n :: !freed)
    ()

let hp_unprotected_is_freed () =
  let freed = ref [] in
  let mgr = hp_manager freed in
  let r = Hp.get_record mgr in
  let n = { id = 1; live = true } in
  Hp.retire mgr r n;
  Hp.scan mgr r;
  Alcotest.(check int) "freed" 1 (List.length !freed);
  Alcotest.(check bool) "marked dead" false n.live

let hp_protected_is_kept () =
  let freed = ref [] in
  let mgr = hp_manager freed in
  let r = Hp.get_record mgr in
  let n = { id = 1; live = true } in
  Hp.protect r 0 n;
  Hp.retire mgr r n;
  Hp.scan mgr r;
  Alcotest.(check int) "kept" 0 (List.length !freed);
  Hp.clear r 0;
  Hp.scan mgr r;
  Alcotest.(check int) "freed after clear" 1 (List.length !freed)

let hp_cross_thread_protection () =
  let freed = ref [] in
  let mgr = hp_manager freed in
  let n = { id = 7; live = true } in
  let protected_and_waiting = Atomic.make false in
  let release = Atomic.make false in
  let guard =
    Domain.spawn (fun () ->
        let r = Hp.get_record mgr in
        Hp.protect r 0 n;
        Atomic.set protected_and_waiting true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Hp.clear r 0)
  in
  while not (Atomic.get protected_and_waiting) do
    Domain.cpu_relax ()
  done;
  let r = Hp.get_record mgr in
  Hp.retire mgr r n;
  Hp.scan mgr r;
  Alcotest.(check int) "kept while foreign hazard set" 0 (List.length !freed);
  Atomic.set release true;
  Domain.join guard;
  Hp.scan mgr r;
  Alcotest.(check int) "freed after foreign clear" 1 (List.length !freed)

let hp_threshold_triggers_scan () =
  let freed = ref [] in
  let mgr = hp_manager ~threshold:(fun ~participants:_ -> 3) freed in
  let r = Hp.get_record mgr in
  Hp.retire mgr r { id = 1; live = true };
  Hp.retire mgr r { id = 2; live = true };
  Alcotest.(check int) "below threshold: nothing freed" 0 (List.length !freed);
  Hp.retire mgr r { id = 3; live = true };
  Alcotest.(check int) "threshold scan freed all" 3 (List.length !freed)

let hp_sorted_unsorted_agree () =
  List.iter
    (fun sorted_scan ->
      let freed = ref [] in
      let mgr = hp_manager ~sorted_scan freed in
      let r = Hp.get_record mgr in
      let keep = { id = 10; live = true } in
      let kill = List.init 20 (fun i -> { id = 20 + i; live = true }) in
      Hp.protect r 0 keep;
      Hp.retire mgr r keep;
      List.iter (Hp.retire mgr r) kill;
      Hp.scan mgr r;
      Alcotest.(check int)
        (Printf.sprintf "sorted=%b frees exactly the unprotected" sorted_scan)
        20 (List.length !freed);
      Alcotest.(check bool) "protected survives" true keep.live)
    [ true; false ]

let hp_clear_all () =
  let freed = ref [] in
  let mgr = hp_manager freed in
  let r = Hp.get_record mgr in
  let a = { id = 1; live = true } and b = { id = 2; live = true } in
  Hp.protect r 0 a;
  Hp.protect r 1 b;
  Hp.clear_all r;
  Hp.retire mgr r a;
  Hp.retire mgr r b;
  Hp.scan mgr r;
  Alcotest.(check int) "both freed" 2 (List.length !freed)

let hp_stats_and_participants () =
  let freed = ref [] in
  let mgr = hp_manager ~threshold:(fun ~participants:_ -> 1000) freed in
  let r = Hp.get_record mgr in
  Alcotest.(check int) "one participant" 1 (Hp.participants mgr);
  Hp.retire mgr r { id = 1; live = true };
  Alcotest.(check int) "retired" 1 (Hp.total_retired mgr);
  Alcotest.(check int) "pending" 1 (Hp.pending mgr);
  Hp.scan mgr r;
  Alcotest.(check int) "scans" 1 (Hp.total_scans mgr);
  Alcotest.(check int) "freed stat" 1 (Hp.total_freed mgr);
  Alcotest.(check int) "no more pending" 0 (Hp.pending mgr)

let hp_record_released_and_reused () =
  let freed = ref [] in
  let mgr = hp_manager freed in
  let n_before = Hp.participants mgr in
  let d1 =
    Domain.spawn (fun () ->
        ignore (Hp.get_record mgr);
        Hp.release_record mgr)
  in
  Domain.join d1;
  let d2 =
    Domain.spawn (fun () ->
        ignore (Hp.get_record mgr);
        Hp.release_record mgr)
  in
  Domain.join d2;
  (* The second domain must have recycled the first domain's record. *)
  Alcotest.(check int) "participants grew by one" (n_before + 1)
    (Hp.participants mgr)

let hp_configurable_slots () =
  let freed = ref [] in
  let mgr =
    Hp.create ~hazards_per_thread:4
      ~node_id:(fun (n : hp_node) -> n.id)
      ~free:(fun n -> freed := n :: !freed)
      ()
  in
  let r = Hp.get_record mgr in
  let nodes = List.init 4 (fun i -> { id = i; live = true }) in
  List.iteri (fun i n -> Hp.protect r i n) nodes;
  List.iter (Hp.retire mgr r) nodes;
  Hp.scan mgr r;
  Alcotest.(check int) "all four slots protect" 0 (List.length !freed);
  Hp.clear_all r;
  Hp.scan mgr r;
  Alcotest.(check int) "all freed after clear" 4 (List.length !freed)

let hp_double_protect_single_slot () =
  (* Re-protecting a slot replaces the previous protection. *)
  let freed = ref [] in
  let mgr = hp_manager freed in
  let r = Hp.get_record mgr in
  let a = { id = 1; live = true } and b = { id = 2; live = true } in
  Hp.protect r 0 a;
  Hp.protect r 0 b;
  (* a no longer protected *)
  Hp.retire mgr r a;
  Hp.retire mgr r b;
  Hp.scan mgr r;
  Alcotest.(check int) "only unprotected freed" 1 (List.length !freed);
  Alcotest.(check bool) "b survived" true b.live;
  Alcotest.(check bool) "a collected" false a.live

let qcheck_pool_lifo =
  QCheck.Test.make ~count:200 ~name:"pool pops in LIFO order"
    QCheck.(list_of_size (Gen.int_range 0 30) (int_bound 1000))
    (fun xs ->
      let p = Fp.create () in
      List.iter (Fp.put p) xs;
      let popped = List.filter_map (fun _ -> Fp.take p) xs in
      popped = List.rev xs && Fp.take p = None)

(* --- Segmented-queue hazard reclamation ---------------------------------

   The segmented queue's whole safety argument is that a retired segment
   is never recycled while a registered reader still holds it in a
   hazard slot.  These tests exercise that claim directly through the
   queue's test hooks: [pin_head] publishes the head segment through the
   same protect/validate handshake the operations use, and
   [seg_incarnation] moves only inside [free_seg] — so a pinned segment
   whose incarnation changes is a reclamation bug, not a flaky test. *)

let seg_pinned_head_survives_drain () =
  let q = Sq.create ~retire_threshold:1 ~capacity:2 () in
  let pinner = Sq.register q and worker = Sq.register q in
  for i = 1 to 10 do
    ignore (Sq.enqueue_with q worker i)
  done;
  let seg = Sq.pin_head q pinner in
  let id0 = Sq.seg_id seg and inc0 = Sq.seg_incarnation seg in
  Alcotest.(check bool) "pinned is protected" true (Sq.seg_protected q seg);
  for i = 1 to 10 do
    Alcotest.(check (option int))
      "fifo drain" (Some i)
      (Sq.dequeue_with q worker)
  done;
  Alcotest.(check (option int)) "empty" None (Sq.dequeue_with q worker);
  (* The drain moved head past [seg] and retired it; with
     [retire_threshold:1] every retire scanned, so everything except the
     pinned segment is already back in the pool. *)
  Alcotest.(check int) "incarnation stable while pinned" inc0
    (Sq.seg_incarnation seg);
  Alcotest.(check int) "identity stable while pinned" id0 (Sq.seg_id seg);
  Alcotest.(check bool) "still protected after drain" true
    (Sq.seg_protected q seg);
  let s = Sq.stats q in
  Alcotest.(check int) "only the pinned segment pending" 1
    s.Seg.retired_pending;
  Alcotest.(check int) "unpinned predecessors recycled" 3 s.Seg.segs_recycled;
  Sq.unpin q pinner;
  Alcotest.(check bool) "unprotected after unpin" false
    (Sq.seg_protected q seg);
  (* Releasing the retirer's record flushes its parked list; with the pin
     gone the segment must now be freed. *)
  Sq.deregister q worker;
  Sq.deregister q pinner;
  let s = Sq.stats q in
  Alcotest.(check int) "nothing left pending" 0 s.Seg.retired_pending;
  Alcotest.(check int) "all four drained segments recycled" 4
    s.Seg.segs_recycled;
  Alcotest.(check bool) "recycle bumped the incarnation" true
    (Sq.seg_incarnation seg > inc0)

let seg_pool_reuse_no_alloc () =
  let q = Sq.create ~retire_threshold:1 ~capacity:2 () in
  let h = Sq.register q in
  for i = 1 to 4 do
    ignore (Sq.enqueue_with q h i)
  done;
  for i = 1 to 4 do
    Alcotest.(check (option int)) "drain" (Some i) (Sq.dequeue_with q h)
  done;
  let s = Sq.stats q in
  Alcotest.(check int) "two segments allocated" 2 s.Seg.segs_allocated;
  Alcotest.(check int) "drained predecessor recycled" 1 s.Seg.segs_recycled;
  Alcotest.(check int) "pooled" 1 s.Seg.pool_size;
  (* The next append must come from the pool, not a fresh block. *)
  ignore (Sq.enqueue_with q h 5);
  ignore (Sq.enqueue_with q h 6);
  let s = Sq.stats q in
  Alcotest.(check int) "reused, not reallocated" 2 s.Seg.segs_allocated;
  Alcotest.(check int) "pool emptied by reuse" 0 s.Seg.pool_size;
  Alcotest.(check (option int)) "fifo across reuse (5)" (Some 5)
    (Sq.dequeue_with q h);
  Alcotest.(check (option int)) "fifo across reuse (6)" (Some 6)
    (Sq.dequeue_with q h);
  Sq.deregister q h;
  let s = Sq.stats q in
  Alcotest.(check int) "steady-state needs two blocks total" 2
    s.Seg.segs_allocated;
  Alcotest.(check int) "both retirements recycled" 2 s.Seg.segs_recycled

(* Every segment's ring is built over the queue's one tag registry, so
   the registry tracks the threads, not the segments they pass through.
   Two domains lap 2-slot segments thousands of times; the registry stays
   within the bound of DESIGN §13 for two handles (each owns one tag
   variable, and a reader pins at most one more: 2 * 2 - 1). *)
let seg_registry_follows_threads () =
  let q = Sq.create ~capacity:2 () in
  let domains = 2 and per_domain = 20_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let h = Sq.register q in
            for i = 1 to per_domain do
              ignore (Sq.enqueue_with q h ((d * per_domain) + i));
              ignore (Sq.dequeue_with q h)
            done;
            Sq.deregister q h))
  in
  List.iter Domain.join workers;
  let s = Sq.stats q in
  let laps = s.Seg.segs_allocated + s.Seg.segs_recycled in
  let size = Sq.registry_size q in
  Alcotest.(check bool)
    (Printf.sprintf "%d segment laps" laps)
    true (laps >= 1_000);
  Alcotest.(check bool)
    (Printf.sprintf "registry %d <= 2 * %d - 1 after %d segments allocated"
       size domains s.Seg.segs_allocated)
    true
    (size >= 1 && size <= (2 * domains) - 1)

let seg_concurrent_churn_hazards () =
  (* Four domains hammer a small-segment queue (>= 100k operations total)
     so the chain churns through retire/recycle constantly; every ~100th
     iteration a domain pins the head segment and checks that its
     incarnation never moves while the hazard is held. *)
  let q = Sq.create ~capacity:4 () in
  let domains = 4 and per_domain = 15_000 in
  let deqs = Atomic.make 0 in
  let pin_violation = Atomic.make false in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let h = Sq.register q in
            for i = 1 to per_domain do
              ignore (Sq.enqueue_with q h ((d * per_domain) + i));
              (if i mod 97 = 0 then begin
                 let seg = Sq.pin_head q h in
                 let inc = Sq.seg_incarnation seg in
                 if not (Sq.seg_protected q seg) then
                   Atomic.set pin_violation true;
                 for _ = 1 to 50 do
                   Domain.cpu_relax ()
                 done;
                 if Sq.seg_incarnation seg <> inc then
                   Atomic.set pin_violation true;
                 Sq.unpin q h
               end);
              match Sq.dequeue_with q h with
              | Some _ -> Atomic.incr deqs
              | None -> ()
            done;
            Sq.deregister q h))
  in
  List.iter Domain.join workers;
  Alcotest.(check bool) "no pinned segment was recycled" false
    (Atomic.get pin_violation);
  let h = Sq.register q in
  let drained = ref 0 in
  let rec drain () =
    match Sq.dequeue_with q h with
    | Some _ ->
        incr drained;
        drain ()
    | None -> ()
  in
  drain ();
  Sq.deregister q h;
  Alcotest.(check int) "conservation" (domains * per_domain)
    (Atomic.get deqs + !drained);
  Alcotest.(check int) "drained empty" 0 (Sq.length q);
  (* A released record can still park retirees that were protected at its
     last scan; cycling through every record flushes them all. *)
  let flush = List.init (domains + 4) (fun _ -> Sq.register q) in
  List.iter (fun h -> Sq.deregister q h) flush;
  let s = Sq.stats q in
  Alcotest.(check int) "no retired segment left pending" 0
    s.Seg.retired_pending;
  Alcotest.(check bool) "churn exercised reclamation" true
    (s.Seg.segs_recycled > 0);
  Alcotest.(check int) "chain collapsed back to one segment" 1
    s.Seg.chain_length

let () =
  Alcotest.run "reclaim"
    [
      ( "free-pool",
        [
          quick "empty" fp_empty;
          quick "lifo order" fp_lifo;
          quick "block identity preserved" fp_identity_preserved;
          quick "stats" fp_stats;
          slow "concurrent conservation" fp_concurrent_conservation;
          QCheck_alcotest.to_alcotest qcheck_pool_lifo;
        ] );
      ( "hazard-pointers",
        [
          quick "unprotected freed" hp_unprotected_is_freed;
          quick "protected kept" hp_protected_is_kept;
          slow "cross-thread protection" hp_cross_thread_protection;
          quick "threshold scan" hp_threshold_triggers_scan;
          quick "sorted/unsorted agree" hp_sorted_unsorted_agree;
          quick "clear_all" hp_clear_all;
          quick "stats and participants" hp_stats_and_participants;
          slow "record release and reuse" hp_record_released_and_reused;
          quick "configurable slot count" hp_configurable_slots;
          quick "re-protecting a slot" hp_double_protect_single_slot;
        ] );
      ( "segmented-hazards",
        [
          quick "pinned head survives drain" seg_pinned_head_survives_drain;
          quick "pool reuse avoids allocation" seg_pool_reuse_no_alloc;
          slow "registry follows threads, not segments"
            seg_registry_follows_threads;
          slow "4-domain churn respects hazards" seg_concurrent_churn_hazards;
        ] );
    ]
