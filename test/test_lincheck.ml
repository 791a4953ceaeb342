(* Tests for the linearizability checker itself: it must accept genuinely
   linearizable histories (including ones needing non-obvious orderings)
   and reject each violation class. *)

module H = Nbq_lincheck.History
module C = Nbq_lincheck.Checker

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* Handy event builder. *)
let ev thread op outcome invoked returned =
  { H.thread; op; outcome; invoked; returned; call = invoked; rank = 0 }

let enq thread v ~inv ~ret = ev thread (H.Enqueue v) H.Accepted inv ret
let enq_full thread v ~inv ~ret = ev thread (H.Enqueue v) H.Rejected inv ret
let deq thread v ~inv ~ret = ev thread H.Dequeue (H.Got v) inv ret
let deq_empty thread ~inv ~ret = ev thread H.Dequeue H.Observed_empty inv ret
let peek thread v ~inv ~ret = ev thread H.Peek (H.Got v) inv ret
let peek_empty thread ~inv ~ret = ev thread H.Peek H.Observed_empty inv ret

let check_ok name h =
  match C.check_linearizable h with
  | C.Ok -> ()
  | C.Violation msg -> Alcotest.fail (name ^ ": " ^ msg)

let check_ok_cap name cap h =
  match C.check_linearizable ~capacity:cap h with
  | C.Ok -> ()
  | C.Violation msg -> Alcotest.fail (name ^ ": " ^ msg)

let check_bad name ?capacity h =
  match C.check_linearizable ?capacity h with
  | C.Ok -> Alcotest.fail (name ^ ": accepted a non-linearizable history")
  | C.Violation _ -> ()

(* --- accepting --- *)

let sequential_fifo () =
  check_ok "seq"
    [
      enq 0 1 ~inv:0 ~ret:1;
      enq 0 2 ~inv:2 ~ret:3;
      deq 0 1 ~inv:4 ~ret:5;
      deq 0 2 ~inv:6 ~ret:7;
      deq_empty 0 ~inv:8 ~ret:9;
    ]

let empty_history () = check_ok "empty" []

let overlapping_enqueues_either_order () =
  (* Two concurrent enqueues; dequeues see them in "wrong" program order —
     fine because the enqueues overlap. *)
  check_ok "overlap"
    [
      enq 0 1 ~inv:0 ~ret:5;
      enq 1 2 ~inv:1 ~ret:4;
      deq 0 2 ~inv:6 ~ret:7;
      deq 0 1 ~inv:8 ~ret:9;
    ]

let dequeue_overlapping_enqueue () =
  (* A dequeue that overlaps the enqueue may see its value. *)
  check_ok "deq overlaps enq"
    [ enq 0 9 ~inv:0 ~ret:10; deq 1 9 ~inv:2 ~ret:3 ]

let empty_observed_mid_stream () =
  (* Dequeue observing empty while an overlapping enqueue is in flight. *)
  check_ok "empty mid-stream"
    [ enq 0 1 ~inv:0 ~ret:6; deq_empty 1 ~inv:1 ~ret:2; deq 1 1 ~inv:7 ~ret:8 ]

let rejected_enqueue_at_capacity () =
  check_ok_cap "full" 1
    [
      enq 0 1 ~inv:0 ~ret:1;
      enq_full 0 2 ~inv:2 ~ret:3;
      deq 0 1 ~inv:4 ~ret:5;
    ]

let tricky_linearization_needed () =
  (* T0: enq 1, enq 2.  T1 concurrently dequeues 1 — must linearize between
     the two enqueues for the trailing empty-observation to work out. *)
  check_ok "tricky"
    [
      enq 0 1 ~inv:0 ~ret:1;
      deq 1 1 ~inv:2 ~ret:9;
      deq_empty 1 ~inv:10 ~ret:11;
      enq 0 2 ~inv:12 ~ret:13;
      deq 0 2 ~inv:14 ~ret:15;
    ]

let peek_semantics () =
  check_ok "peek"
    [
      peek_empty 0 ~inv:0 ~ret:1;
      enq 0 1 ~inv:2 ~ret:3;
      peek 0 1 ~inv:4 ~ret:5;
      peek 0 1 ~inv:6 ~ret:7;
      (* non-destructive *)
      deq 0 1 ~inv:8 ~ret:9;
      peek_empty 0 ~inv:10 ~ret:11;
    ]

let peek_overlapping_dequeue () =
  (* Peek overlapping the dequeue of the same front item may see it or
     miss it. *)
  check_ok "peek sees item"
    [ enq 0 1 ~inv:0 ~ret:1; deq 1 1 ~inv:2 ~ret:9; peek 0 1 ~inv:3 ~ret:4 ];
  check_ok "peek misses item"
    [ enq 0 1 ~inv:0 ~ret:1; deq 1 1 ~inv:2 ~ret:9; peek_empty 0 ~inv:3 ~ret:8 ]

(* --- batch calls (ranked sub-events sharing one window) --- *)

(* One batch call: every (op, outcome) shares the [inv..ret] window and is
   ranked in list order, exactly as History.record_call logs it. *)
let batch thread specs ~inv ~ret =
  List.mapi
    (fun rank (op, outcome) ->
      { H.thread; op; outcome; invoked = inv; returned = ret; call = inv; rank })
    specs

let batch_enqueue_in_order () =
  check_ok "batch enq, items delivered in batch order"
    (batch 0
       [ (H.Enqueue 1, H.Accepted); (H.Enqueue 2, H.Accepted) ]
       ~inv:0 ~ret:1
    @ [ deq 1 1 ~inv:2 ~ret:3; deq 1 2 ~inv:4 ~ret:5 ])

let batch_rejects_reordered_items () =
  (* The two batch items share one tick window, so without rank ordering
     the checker would be free to linearize them either way; the rank
     extension must force batch order. *)
  check_bad "batch items delivered out of batch order"
    (batch 0
       [ (H.Enqueue 1, H.Accepted); (H.Enqueue 2, H.Accepted) ]
       ~inv:0 ~ret:1
    @ [ deq 1 2 ~inv:2 ~ret:3; deq 1 1 ~inv:4 ~ret:5 ])

let batch_interleaves_with_other_threads () =
  (* A concurrent single enqueue overlapping the batch window may land
     between the batch's items. *)
  check_ok "foreign op lands inside the batch window"
    (batch 0
       [ (H.Enqueue 1, H.Accepted); (H.Enqueue 3, H.Accepted) ]
       ~inv:0 ~ret:5
    @ [
        enq 1 2 ~inv:1 ~ret:4;
        deq 1 1 ~inv:6 ~ret:7;
        deq 1 2 ~inv:8 ~ret:9;
        deq 1 3 ~inv:10 ~ret:11;
      ])

let batch_short_enqueue_at_capacity () =
  (* Accepted prefix then one Rejected marker, per the short-batch
     convention. *)
  check_ok_cap "short batch enqueue" 2
    (batch 0
       [
         (H.Enqueue 1, H.Accepted);
         (H.Enqueue 2, H.Accepted);
         (H.Enqueue 3, H.Rejected);
       ]
       ~inv:0 ~ret:1
    @ [ deq 0 1 ~inv:2 ~ret:3; deq 0 2 ~inv:4 ~ret:5 ])

let batch_dequeue_with_empty_cut () =
  check_ok "short batch dequeue ends on empty"
    ([ enq 0 1 ~inv:0 ~ret:1; enq 0 2 ~inv:2 ~ret:3 ]
    @ batch 0
        [
          (H.Dequeue, H.Got 1);
          (H.Dequeue, H.Got 2);
          (H.Dequeue, H.Observed_empty);
        ]
        ~inv:4 ~ret:5)

let batch_rejects_false_empty_cut () =
  (* The empty marker linearizes after Got 1, when item 2 is still
     queued — impossible. *)
  check_bad "batch dequeue claims empty with items queued"
    ([
       enq 0 1 ~inv:0 ~ret:1;
       enq 0 2 ~inv:2 ~ret:3;
     ]
    @ batch 0
        [ (H.Dequeue, H.Got 1); (H.Dequeue, H.Observed_empty) ]
        ~inv:4 ~ret:5
    @ [ deq 0 2 ~inv:6 ~ret:7 ])

let precedes_orders_ranks_within_call () =
  match
    batch 0 [ (H.Enqueue 1, H.Accepted); (H.Enqueue 2, H.Accepted) ] ~inv:0
      ~ret:1
  with
  | [ a; b ] ->
      Alcotest.(check bool) "rank 0 precedes rank 1" true (H.precedes a b);
      Alcotest.(check bool) "rank 1 does not precede rank 0" false
        (H.precedes b a)
  | _ -> Alcotest.fail "expected two events"

(* --- rejecting --- *)

let rejects_destructive_peek () =
  (* If peek removed the item, the later dequeue would fail — the spec
     must refuse a history where peek is followed by empty with no
     dequeue. *)
  check_bad "peek then impossible empty deq"
    [
      enq 0 1 ~inv:0 ~ret:1;
      peek 0 1 ~inv:2 ~ret:3;
      deq_empty 0 ~inv:4 ~ret:5;
    ]

let rejects_peek_of_non_front () =
  check_bad "peek must see the front"
    [
      enq 0 1 ~inv:0 ~ret:1;
      enq 0 2 ~inv:2 ~ret:3;
      peek 0 2 ~inv:4 ~ret:5;
    ]

let rejects_peek_of_unknown_value () =
  check_bad "peek of never-enqueued value" [ peek 0 7 ~inv:0 ~ret:1 ]

let rejects_invented_value () =
  check_bad "invented" [ enq 0 1 ~inv:0 ~ret:1; deq 0 2 ~inv:2 ~ret:3 ]

let rejects_reordered_fifo () =
  check_bad "reorder"
    [
      enq 0 1 ~inv:0 ~ret:1;
      enq 0 2 ~inv:2 ~ret:3;
      deq 0 2 ~inv:4 ~ret:5;
      deq 0 1 ~inv:6 ~ret:7;
    ]

let rejects_duplicate_delivery () =
  check_bad "dup"
    [ enq 0 1 ~inv:0 ~ret:1; deq 0 1 ~inv:2 ~ret:3; deq 1 1 ~inv:4 ~ret:5 ]

let rejects_impossible_empty () =
  check_bad "empty with queued item"
    [ enq 0 1 ~inv:0 ~ret:1; deq_empty 0 ~inv:2 ~ret:3; deq 0 1 ~inv:4 ~ret:5 ]

let rejects_value_from_the_future () =
  check_bad "future value"
    [ deq 0 1 ~inv:0 ~ret:1; enq 0 1 ~inv:2 ~ret:3 ]

let rejects_bogus_full () =
  check_bad "bogus full" ~capacity:4
    [ enq 0 1 ~inv:0 ~ret:1; enq_full 0 2 ~inv:2 ~ret:3 ]

let rejects_full_on_unbounded_spec () =
  check_bad "reject without bound" [ enq_full 0 1 ~inv:0 ~ret:1 ]

let rejects_oversize_history () =
  let h =
    List.init 63 (fun i -> enq 0 i ~inv:(2 * i) ~ret:((2 * i) + 1))
  in
  Alcotest.check_raises "63 events rejected"
    (Invalid_argument "check_linearizable: history longer than 62 events")
    (fun () -> ignore (C.check_linearizable h))

(* --- scalable property checks --- *)

let props_ok name ?expected_final_length h =
  match C.check_fifo_properties ?expected_final_length h with
  | C.Ok -> ()
  | C.Violation msg -> Alcotest.fail (name ^ ": " ^ msg)

let props_bad name ?expected_final_length h =
  match C.check_fifo_properties ?expected_final_length h with
  | C.Ok -> Alcotest.fail (name ^ ": accepted")
  | C.Violation _ -> ()

let props_accepts_valid () =
  props_ok "valid" ~expected_final_length:0
    [
      enq 0 1 ~inv:0 ~ret:1;
      enq 1 2 ~inv:2 ~ret:3;
      deq 0 1 ~inv:4 ~ret:5;
      deq 1 2 ~inv:6 ~ret:7;
    ]

let props_rejects_loss () =
  props_bad "loss" ~expected_final_length:0
    [ enq 0 1 ~inv:0 ~ret:1; deq_empty 0 ~inv:2 ~ret:3 ]

let props_rejects_duplication () =
  props_bad "dup"
    [ enq 0 1 ~inv:0 ~ret:1; deq 0 1 ~inv:2 ~ret:3; deq 1 1 ~inv:4 ~ret:5 ]

let props_rejects_invention () =
  props_bad "invented" [ deq 0 5 ~inv:0 ~ret:1 ]

let props_rejects_inversion () =
  (* enq 1 wholly before enq 2, deq 2 wholly before deq 1. *)
  props_bad "inversion"
    [
      enq 0 1 ~inv:0 ~ret:1;
      enq 0 2 ~inv:2 ~ret:3;
      deq 1 2 ~inv:4 ~ret:5;
      deq 1 1 ~inv:6 ~ret:7;
    ]

let props_allows_overlapping_inversion () =
  (* enqueues overlap: either dequeue order is linearizable. *)
  props_ok "overlap inversion ok"
    [
      enq 0 1 ~inv:0 ~ret:5;
      enq 1 2 ~inv:1 ~ret:4;
      deq 0 2 ~inv:6 ~ret:7;
      deq 1 1 ~inv:8 ~ret:9;
    ]

let props_rejects_wrong_final_length () =
  props_bad "final length" ~expected_final_length:5
    [ enq 0 1 ~inv:0 ~ret:1; deq 0 1 ~inv:2 ~ret:3 ]

let props_rejects_double_enqueue_of_value () =
  props_bad "double enqueue"
    [ enq 0 1 ~inv:0 ~ret:1; enq 1 1 ~inv:2 ~ret:3 ]

(* --- randomized checker properties --- *)

(* Random *sequential* histories are linearizable by construction: replay
   random ops against a reference queue, record truthful outcomes with
   consecutive ticks, and the checker must accept. *)
let qcheck_accepts_sequential =
  QCheck.Test.make ~count:200 ~name:"accepts truthful sequential histories"
    QCheck.(list_of_size (Gen.int_range 1 20) (pair bool (int_bound 5)))
    (fun ops ->
      let capacity = 3 in
      let q = Queue.create () in
      let tick = ref 0 in
      let next () =
        let t = !tick in
        incr tick;
        t
      in
      let history =
        List.map
          (fun (is_enq, v) ->
            let inv = next () in
            let op, outcome =
              if is_enq then
                if Queue.length q < capacity then begin
                  Queue.add v q;
                  (H.Enqueue v, H.Accepted)
                end
                else (H.Enqueue v, H.Rejected)
              else if Queue.is_empty q then (H.Dequeue, H.Observed_empty)
              else (H.Dequeue, H.Got (Queue.pop q))
            in
            {
              H.thread = 0;
              op;
              outcome;
              invoked = inv;
              returned = next ();
              call = inv;
              rank = 0;
            })
          ops
      in
      C.check_linearizable ~capacity history = C.Ok)

(* Corrupting one Got value in a nonempty truthful history must be caught
   (values are made distinct so the corruption cannot collide). *)
let qcheck_rejects_corrupted =
  QCheck.Test.make ~count:200 ~name:"rejects corrupted dequeue values"
    QCheck.(list_of_size (Gen.int_range 2 14) bool)
    (fun flips ->
      let q = Queue.create () in
      let tick = ref 0 in
      let next () =
        let t = !tick in
        incr tick;
        t
      in
      let counter = ref 0 in
      let history =
        List.map
          (fun is_enq ->
            let inv = next () in
            let op, outcome =
              if is_enq then begin
                incr counter;
                Queue.add !counter q;
                (H.Enqueue !counter, H.Accepted)
              end
              else if Queue.is_empty q then (H.Dequeue, H.Observed_empty)
              else (H.Dequeue, H.Got (Queue.pop q))
            in
            {
              H.thread = 0;
              op;
              outcome;
              invoked = inv;
              returned = next ();
              call = inv;
              rank = 0;
            })
          flips
      in
      let gots =
        List.exists
          (fun (e : H.event) ->
            match e.H.outcome with H.Got _ -> true | _ -> false)
          history
      in
      QCheck.assume gots;
      (* Corrupt the first Got by shifting its value out of range. *)
      let corrupted = ref false in
      let bad =
        List.map
          (fun (e : H.event) ->
            match e.H.outcome with
            | H.Got v when not !corrupted ->
                corrupted := true;
                { e with H.outcome = H.Got (v + 1_000) }
            | _ -> e)
          history
      in
      C.check_linearizable bad <> C.Ok)

(* --- the segmented queue under concurrent stress --- *)

module Seg = Nbq_segmented.Segmented

(* Tiny segments (capacity 2) so every episode crosses segment
   boundaries: grow (append), drain-retire and pool reuse all happen
   inside the checked window.  The queue is unbounded, so the histories
   run against the unbounded spec (no [~capacity]). *)
let seg_verdict name v =
  match v with
  | C.Ok -> ()
  | C.Violation msg -> Alcotest.fail (name ^ ": " ^ msg)

let seg_ops q =
  Nbq_lincheck.Stress.ops_of_singles
    ~enqueue:(fun v -> Seg.Cas.try_enqueue q v)
    ~dequeue:(fun () -> Seg.Cas.try_dequeue q)

let seg_small_rounds () =
  seg_verdict "segmented small rounds"
    (Nbq_lincheck.Stress.check_small_rounds ~rounds:60 ~threads:3
       ~ops_per_thread:4 ~seed:7 (fun () ->
         let q = Seg.Cas.create ~capacity:2 in
         fun _ -> seg_ops q))

let seg_small_rounds_deq_heavy () =
  (* Longer episodes drain whole segments, so the retire hand-off and the
     recycled-segment reuse run under contention, not just the appends. *)
  seg_verdict "segmented drain-heavy"
    (Nbq_lincheck.Stress.check_small_rounds ~rounds:40 ~threads:4
       ~ops_per_thread:6 ~seed:13 (fun () ->
         let q = Seg.Cas.create ~capacity:2 in
         fun _ -> seg_ops q))

let seg_small_rounds_batched () =
  (* Mixed batched producers: the segmented batch calls resolve the
     handle once and then run the single-item protocol per item, so each
     batch must linearize as its items in order within one call window. *)
  seg_verdict "segmented batched"
    (Nbq_lincheck.Stress.check_small_rounds ~rounds:60 ~threads:3
       ~ops_per_thread:4 ~seed:11 ~with_batches:true (fun () ->
         let q = Seg.Cas.create ~capacity:2 in
         fun _ ->
           {
             Nbq_lincheck.Stress.enqueue = (fun v -> Seg.Cas.try_enqueue q v);
             dequeue = (fun () -> Seg.Cas.try_dequeue q);
             enqueue_batch = (fun a -> Seg.Cas.try_enqueue_batch q a);
             dequeue_batch = (fun k -> Seg.Cas.try_dequeue_batch q k);
           }))

(* --- SCQ under concurrent stress --- *)

module Scq = Nbq_scq.Scq.Make (Nbq_primitives.Atomic_intf.Real)

(* Capacity 2 keeps every episode at the full/empty boundaries, where the
   FAA-ticket protocol earns its keep: slot bumps, unsafe marks, catchup
   and threshold resets all run inside the checked window.  The exact
   checker runs the bounded spec ([~capacity]) so rejected enqueues must
   linearize as "full". *)
let scq_small_rounds () =
  seg_verdict "scq small rounds"
    (Nbq_lincheck.Stress.check_small_rounds ~rounds:60 ~threads:3
       ~ops_per_thread:4 ~capacity:2 ~seed:19 (fun () ->
         let q = Scq.create ~capacity:2 in
         fun _ ->
           Nbq_lincheck.Stress.ops_of_singles
             ~enqueue:(fun v -> Scq.try_enqueue q v)
             ~dequeue:(fun () -> Scq.try_dequeue q)))

(* --- recorder --- *)

let recorder_orders_events () =
  let r = H.recorder ~threads:2 in
  ignore (H.record r ~thread:0 (H.Enqueue 1) (fun () -> H.Accepted));
  ignore (H.record r ~thread:1 H.Dequeue (fun () -> H.Got 1));
  let events = H.events r in
  Alcotest.(check int) "two events" 2 (List.length events);
  (match events with
  | [ a; b ] ->
      Alcotest.(check bool) "real-time order" true (H.precedes a b);
      Alcotest.(check bool) "tick sanity" true (a.H.invoked < a.H.returned)
  | _ -> Alcotest.fail "expected two events");
  check_ok "recorded history linearizable" events

let recorder_concurrent_ticks_unique () =
  let threads = 4 and per = 500 in
  let r = H.recorder ~threads in
  let workers =
    List.init threads (fun t ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              ignore
                (H.record r ~thread:t (H.Enqueue ((t * per) + i)) (fun () ->
                     H.Accepted))
            done))
  in
  List.iter Domain.join workers;
  let events = H.events r in
  let ticks =
    List.concat_map (fun (e : H.event) -> [ e.H.invoked; e.H.returned ]) events
  in
  Alcotest.(check int) "all ticks distinct"
    (List.length ticks)
    (List.length (List.sort_uniq compare ticks))

let () =
  Alcotest.run "lincheck"
    [
      ( "checker-accepts",
        [
          quick "sequential fifo" sequential_fifo;
          quick "empty history" empty_history;
          quick "overlapping enqueues" overlapping_enqueues_either_order;
          quick "dequeue overlapping enqueue" dequeue_overlapping_enqueue;
          quick "empty observed mid-stream" empty_observed_mid_stream;
          quick "rejected enqueue at capacity" rejected_enqueue_at_capacity;
          quick "tricky linearization" tricky_linearization_needed;
          quick "peek semantics" peek_semantics;
          quick "peek overlapping dequeue" peek_overlapping_dequeue;
        ] );
      ( "checker-batches",
        [
          quick "batch enqueue in order" batch_enqueue_in_order;
          quick "rejects reordered batch items" batch_rejects_reordered_items;
          quick "foreign op inside batch window"
            batch_interleaves_with_other_threads;
          quick "short batch enqueue at capacity"
            batch_short_enqueue_at_capacity;
          quick "batch dequeue ends on empty" batch_dequeue_with_empty_cut;
          quick "rejects false empty cut" batch_rejects_false_empty_cut;
          quick "precedes orders ranks" precedes_orders_ranks_within_call;
        ] );
      ( "checker-rejects",
        [
          quick "invented value" rejects_invented_value;
          quick "FIFO reorder" rejects_reordered_fifo;
          quick "duplicate delivery" rejects_duplicate_delivery;
          quick "impossible empty" rejects_impossible_empty;
          quick "value from the future" rejects_value_from_the_future;
          quick "bogus full" rejects_bogus_full;
          quick "full on unbounded spec" rejects_full_on_unbounded_spec;
          quick "oversize history" rejects_oversize_history;
          quick "destructive peek" rejects_destructive_peek;
          quick "peek of non-front" rejects_peek_of_non_front;
          quick "peek of unknown value" rejects_peek_of_unknown_value;
        ] );
      ( "fifo-properties",
        [
          quick "accepts valid" props_accepts_valid;
          quick "rejects loss" props_rejects_loss;
          quick "rejects duplication" props_rejects_duplication;
          quick "rejects invention" props_rejects_invention;
          quick "rejects real-time inversion" props_rejects_inversion;
          quick "allows overlapping inversion" props_allows_overlapping_inversion;
          quick "rejects wrong final length" props_rejects_wrong_final_length;
          quick "rejects double enqueue" props_rejects_double_enqueue_of_value;
        ] );
      ( "checker-qcheck",
        [
          QCheck_alcotest.to_alcotest qcheck_accepts_sequential;
          QCheck_alcotest.to_alcotest qcheck_rejects_corrupted;
        ] );
      ( "segmented-stress",
        [
          quick "small rounds" seg_small_rounds;
          quick "drain-heavy rounds" seg_small_rounds_deq_heavy;
          quick "mixed batched producers" seg_small_rounds_batched;
        ] );
      ( "scq-stress",
        [
          quick "scq small rounds" scq_small_rounds;
        ] );
      ( "recorder",
        [
          quick "orders events" recorder_orders_events;
          slow "concurrent ticks unique" recorder_concurrent_ticks_unique;
        ] );
    ]
