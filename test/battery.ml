(* A conformance battery instantiated for every queue implementation in the
   registry: one shared body of test logic, many distinct systems under
   test.  Sequential semantics, model-based randomized tests, multi-domain
   transfer tests and linearizability stress. *)

open Nbq_harness

let payload tag = { Registry.tag }
let tag_of (p : Registry.payload) = p.Registry.tag

let fresh (impl : Registry.impl) ?(capacity = 8) () =
  impl.Registry.create ~capacity

let enq (q : Registry.instance) v = q.Registry.enqueue (payload v)
let deq (q : Registry.instance) = Option.map tag_of (q.Registry.dequeue ())
let len (q : Registry.instance) = q.Registry.length ()

let check_enq q v =
  Alcotest.(check bool) (Printf.sprintf "enqueue %d accepted" v) true (enq q v)

let check_deq q expected =
  Alcotest.(check (option int)) "dequeue" expected (deq q)

(* --- Sequential cases --- *)

let test_empty_dequeue impl () =
  let q = fresh impl () in
  check_deq q None;
  check_deq q None

let test_singleton impl () =
  let q = fresh impl () in
  check_enq q 42;
  check_deq q (Some 42);
  check_deq q None

let test_fifo_order impl () =
  let q = fresh impl ~capacity:128 () in
  for i = 1 to 100 do
    check_enq q i
  done;
  for i = 1 to 100 do
    check_deq q (Some i)
  done;
  check_deq q None

let test_interleaved impl () =
  let q = fresh impl () in
  check_enq q 1;
  check_enq q 2;
  check_deq q (Some 1);
  check_enq q 3;
  check_deq q (Some 2);
  check_deq q (Some 3);
  check_deq q None

let test_wraparound impl () =
  (* Push ten full revolutions through a small ring. *)
  let q = fresh impl ~capacity:8 () in
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 20 do
    for _ = 1 to 4 do
      check_enq q !next_in;
      incr next_in
    done;
    for _ = 1 to 4 do
      check_deq q (Some !next_out);
      incr next_out
    done
  done;
  check_deq q None

let test_length impl () =
  let q = fresh impl ~capacity:16 () in
  Alcotest.(check int) "empty" 0 (len q);
  check_enq q 1;
  check_enq q 2;
  Alcotest.(check int) "two" 2 (len q);
  ignore (deq q);
  Alcotest.(check int) "one" 1 (len q);
  ignore (deq q);
  Alcotest.(check int) "zero again" 0 (len q)

let test_drain_refill impl () =
  let q = fresh impl () in
  for round = 0 to 4 do
    let base = round * 10 in
    for i = 0 to 5 do
      check_enq q (base + i)
    done;
    for i = 0 to 5 do
      check_deq q (Some (base + i))
    done;
    check_deq q None
  done

let test_paper_pattern_sequential impl () =
  (* 100 iterations of 5 enq + 5 deq, the paper's per-thread loop. *)
  let q = fresh impl ~capacity:16 () in
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 100 do
    for _ = 1 to 5 do
      check_enq q !next_in;
      incr next_in
    done;
    for _ = 1 to 5 do
      check_deq q (Some !next_out);
      incr next_out
    done
  done;
  Alcotest.(check int) "drained" 0 (len q)

(* --- Bounded-only cases --- *)

let test_full_rejection impl () =
  let q = fresh impl ~capacity:4 () in
  for i = 1 to 4 do
    check_enq q i
  done;
  Alcotest.(check bool) "full" false (enq q 5);
  Alcotest.(check bool) "still full" false (enq q 6);
  check_deq q (Some 1);
  Alcotest.(check bool) "space again" true (enq q 5);
  check_deq q (Some 2);
  check_deq q (Some 3);
  check_deq q (Some 4);
  check_deq q (Some 5);
  check_deq q None

let test_full_preserves_order impl () =
  let q = fresh impl ~capacity:4 () in
  for i = 1 to 4 do
    check_enq q i
  done;
  ignore (enq q 99);
  (* rejected: must not corrupt *)
  for i = 1 to 4 do
    check_deq q (Some i)
  done;
  check_deq q None

let test_full_empty_cycles impl () =
  let q = fresh impl ~capacity:2 () in
  for round = 1 to 50 do
    check_enq q round;
    check_enq q (round + 1000);
    Alcotest.(check bool) "full at 2" false (enq q (-1));
    check_deq q (Some round);
    check_deq q (Some (round + 1000));
    check_deq q None
  done

(* --- Randomized model-based (qcheck) --- *)

module Model = struct
  (* Reference bounded FIFO. *)
  type t = { mutable items : int list; capacity : int } (* head first *)

  let create capacity = { items = []; capacity }

  let enqueue m v =
    if List.length m.items >= m.capacity then false
    else begin
      m.items <- m.items @ [ v ];
      true
    end

  let dequeue m =
    match m.items with
    | [] -> None
    | x :: rest ->
        m.items <- rest;
        Some x
end

let qcheck_model impl =
  let open QCheck in
  Test.make ~count:200 ~name:(impl.Registry.name ^ " agrees with model")
    (list (pair bool (int_bound 1000)))
    (fun ops ->
      let capacity = 8 in
      let q = fresh impl ~capacity () in
      let m = Model.create capacity in
      List.for_all
        (fun (is_enq, v) ->
          if is_enq then enq q v = Model.enqueue m v
          else deq q = Model.dequeue m)
        ops)

let qcheck_conservation impl =
  let open QCheck in
  Test.make ~count:100
    ~name:(impl.Registry.name ^ " conserves items")
    (list (pair bool (int_bound 1000)))
    (fun ops ->
      let q = fresh impl ~capacity:16 () in
      let enqueued = ref 0 and dequeued = ref 0 in
      List.iter
        (fun (is_enq, v) ->
          if is_enq then begin
            if enq q v then incr enqueued
          end
          else match deq q with Some _ -> incr dequeued | None -> ())
        ops;
      !enqueued - !dequeued = len q)

(* --- Concurrent cases --- *)

let transfer_test ?(check_order = true) impl ~producers ~consumers
    ~per_producer () =
  let q = fresh impl ~capacity:64 () in
  let barrier = Nbq_primitives.Barrier.create ~parties:(producers + consumers) in
  let sinks = Array.init consumers (fun _ -> ref []) in
  let total = producers * per_producer in
  let consumed = Atomic.make 0 in
  let prods =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            Nbq_primitives.Barrier.await barrier;
            for i = 0 to per_producer - 1 do
              let v = (p lsl 20) lor i in
              while not (enq q v) do
                Domain.cpu_relax ()
              done
            done))
  in
  let cons =
    List.init consumers (fun c ->
        Domain.spawn (fun () ->
            Nbq_primitives.Barrier.await barrier;
            let sink = sinks.(c) in
            let rec loop () =
              if Atomic.get consumed < total then begin
                (match deq q with
                | Some v ->
                    ignore (Atomic.fetch_and_add consumed 1);
                    sink := v :: !sink
                | None -> Domain.cpu_relax ());
                loop ()
              end
            in
            loop ()))
  in
  List.iter Domain.join prods;
  List.iter Domain.join cons;
  (* Conservation: exactly [total] distinct values received. *)
  let all = List.concat_map (fun s -> !s) (Array.to_list sinks) in
  Alcotest.(check int) "all values received" total (List.length all);
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "no duplicates" total (List.length sorted);
  (* Per-producer order: within one consumer's stream, values from the same
     producer must arrive in increasing sequence order.  Relaxed (sharded)
     queues only promise this per shard, so they skip it. *)
  if check_order then
  Array.iter
    (fun sink ->
      let per_prod = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let p = v lsr 20 and i = v land 0xFFFFF in
          let last = Option.value ~default:max_int (Hashtbl.find_opt per_prod p) in
          Alcotest.(check bool)
            (Printf.sprintf "producer %d order in one consumer" p)
            true (i < last);
          Hashtbl.replace per_prod p i)
        !sink (* reversed: newest first, so indices must decrease *))
    sinks

(* The queue as the lincheck stress driver sees it: single ops plus the
   instance's native batch entry points. *)
let stress_ops (q : Registry.instance) =
  {
    Nbq_lincheck.Stress.enqueue = (fun v -> enq q v);
    dequeue = (fun () -> deq q);
    enqueue_batch = (fun vs -> q.Registry.enqueue_batch (Array.map payload vs));
    dequeue_batch = (fun k -> List.map tag_of (q.Registry.dequeue_batch k));
  }

let test_lincheck_small ?with_batches impl ~threads ~rounds ~capacity () =
  let make_round () =
    let q = fresh impl ~capacity () in
    fun _thread -> stress_ops q
  in
  (* The sequential spec's bound must match the implementation's actual
     semantics: unbounded queues never reject. *)
  let spec_capacity = if impl.Registry.bounded then Some capacity else None in
  match
    Nbq_lincheck.Stress.check_small_rounds ?with_batches ~rounds ~threads
      ~ops_per_thread:4 ?capacity:spec_capacity make_round
  with
  | Nbq_lincheck.Checker.Ok -> ()
  | Nbq_lincheck.Checker.Violation msg -> Alcotest.fail msg

let test_big_run impl ~threads () =
  let q = fresh impl ~capacity:4096 () in
  match
    Nbq_lincheck.Stress.check_big_run ~with_batches:true
      ~relaxed_order:impl.Registry.relaxed_fifo ~threads ~ops_per_thread:10_000
      ~final_length:(fun () -> len q)
      (fun _thread -> stress_ops q)
  with
  | Nbq_lincheck.Checker.Ok -> ()
  | Nbq_lincheck.Checker.Violation msg -> Alcotest.fail msg

let test_paper_pattern_concurrent impl ~threads () =
  let cfg = { Workload.iterations = 500; enqueue_batch = 5; dequeue_batch = 5 } in
  let capacity = Workload.min_capacity cfg ~threads in
  let q = fresh impl ~capacity () in
  let barrier = Nbq_primitives.Barrier.create ~parties:threads in
  let domains =
    List.init threads (fun thread ->
        Domain.spawn (fun () ->
            Nbq_primitives.Barrier.await barrier;
            Workload.run_thread cfg ~thread q))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check int) "balanced workload drains the queue" 0 (len q);
  List.iter
    (fun (r : Workload.thread_result) ->
      Alcotest.(check bool) "finite time" true (r.seconds >= 0.0))
    results

(* Short-lived domains in waves: exercises per-domain state (DLS handles,
   hazard records, tag-variable recycling) across domain lifecycles. *)
let test_domain_churn impl () =
  let q = fresh impl ~capacity:64 () in
  let total = Atomic.make 0 in
  for wave = 0 to 5 do
    let domains =
      List.init 2 (fun worker ->
          Domain.spawn (fun () ->
              let base = (wave * 10_000) + (worker * 5_000) in
              for i = 0 to 299 do
                while not (enq q (base + i)) do
                  Domain.cpu_relax ()
                done;
                let rec drain () =
                  match deq q with
                  | Some _ -> ignore (Atomic.fetch_and_add total 1)
                  | None ->
                      Domain.cpu_relax ();
                      drain ()
                in
                drain ()
              done))
    in
    List.iter Domain.join domains
  done;
  Alcotest.(check int) "all items accounted" (6 * 2 * 300) (Atomic.get total);
  Alcotest.(check int) "queue drained" 0 (len q)

(* Two domains alternate producer/consumer roles across barrier-separated
   phases; per-phase conservation must hold. *)
let test_role_swap impl () =
  let q = fresh impl ~capacity:64 () in
  let phases = 6 and per_phase = 500 in
  let barrier = Nbq_primitives.Barrier.create ~parties:2 in
  let worker me =
    let received = ref 0 in
    for phase = 0 to phases - 1 do
      Nbq_primitives.Barrier.await barrier;
      let producing = (phase + me) mod 2 = 0 in
      if producing then
        for i = 1 to per_phase do
          while not (enq q ((phase * 100_000) + i)) do
            Domain.cpu_relax ()
          done
        done
      else
        for _ = 1 to per_phase do
          let rec drain () =
            match deq q with
            | Some _ -> incr received
            | None ->
                Domain.cpu_relax ();
                drain ()
          in
          drain ()
        done;
      Nbq_primitives.Barrier.await barrier
    done;
    !received
  in
  let other = Domain.spawn (fun () -> worker 1) in
  let mine = worker 0 in
  let theirs = Domain.join other in
  Alcotest.(check int) "every phase fully drained"
    (phases * per_phase) (mine + theirs);
  Alcotest.(check int) "queue empty at the end" 0 (len q)

(* Bounded queues: oscillate between full and empty under concurrency; the
   full/empty transitions are where the null-ABA lives. *)
let test_burst_oscillation impl () =
  let capacity = 4 in
  let q = fresh impl ~capacity () in
  let rounds = 300 in
  let filler =
    Domain.spawn (fun () ->
        for round = 0 to rounds - 1 do
          for i = 0 to capacity - 1 do
            while not (enq q ((round * 100) + i)) do
              Domain.cpu_relax ()
            done
          done
        done)
  in
  let drained = ref 0 in
  while !drained < rounds * capacity do
    match deq q with
    | Some _ -> incr drained
    | None -> Domain.cpu_relax ()
  done;
  Domain.join filler;
  Alcotest.(check int) "exact count through tiny ring" (rounds * capacity)
    !drained;
  check_deq q None

(* --- Batch entry points --- *)

let test_batch_roundtrip impl () =
  let q = fresh impl ~capacity:64 () in
  let accepted = q.Registry.enqueue_batch (Array.init 10 payload) in
  Alcotest.(check int) "whole batch accepted" 10 accepted;
  Alcotest.(check int) "length counts batch items" 10 (len q);
  let got = List.map tag_of (q.Registry.dequeue_batch 16) in
  Alcotest.(check int) "short batch stops at empty" 10 (List.length got);
  if impl.Registry.relaxed_fifo then
    Alcotest.(check (list int))
      "every item exactly once"
      (List.init 10 Fun.id)
      (List.sort compare got)
  else
    Alcotest.(check (list int)) "batch preserves FIFO" (List.init 10 Fun.id) got;
  Alcotest.(check int) "drained" 0 (len q);
  Alcotest.(check (list int)) "batch dequeue of empty" []
    (List.map tag_of (q.Registry.dequeue_batch 4))

let test_batch_partial_accept impl () =
  (* A batch larger than the remaining capacity is accepted as a prefix. *)
  let q = fresh impl ~capacity:4 () in
  let accepted = q.Registry.enqueue_batch (Array.init 32 payload) in
  Alcotest.(check bool)
    (Printf.sprintf "prefix accepted (got %d)" accepted)
    true
    (accepted >= 4 && accepted < 32);
  Alcotest.(check int) "length matches acceptance" accepted (len q);
  let got = List.map tag_of (q.Registry.dequeue_batch 32) in
  Alcotest.(check int) "everything accepted comes back" accepted
    (List.length got);
  Alcotest.(check (list int))
    "the accepted items are an array prefix"
    (List.init accepted Fun.id)
    (List.sort compare got)

(* --- Relaxed (sharded) cases --- *)

(* Complete drain returns every item exactly once, order unspecified. *)
let test_relaxed_drain impl () =
  let q = fresh impl ~capacity:64 () in
  let n = 40 in
  for i = 1 to n do
    check_enq q i
  done;
  Alcotest.(check int) "length counts all shards" n (len q);
  let rec drain acc = match deq q with Some v -> drain (v :: acc) | None -> acc in
  let got = List.sort compare (drain []) in
  Alcotest.(check (list int))
    "every item exactly once"
    (List.init n (fun i -> i + 1))
    got;
  Alcotest.(check int) "empty after drain" 0 (len q)

(* Length stays a sane bound while domains churn, and is exact once
   quiescent — the documented contract for the sum-of-shards snapshot.

   The [0, capacity + shards] window only holds when each shard's own
   [length] is a counter snapshot (the array family).  Link-based queues
   measure length by walking the node chain between two reads of head and
   tail; a sampler preempted between those reads counts every node churned
   through in the gap, so the walk can overcount without bound (and this
   is inherited, not introduced, by the sharded sum).  For those we only
   pin non-negativity and quiescent exactness. *)
let test_length_under_churn impl () =
  let capacity = 64 in
  let q = fresh impl ~capacity () in
  (* A sharded instance rounds capacity up per shard; 64 covers any
     registered shard count with room to spare. *)
  let upper =
    if impl.Registry.family = Registry.Array_based then capacity + 64
    else max_int
  in
  let stop = Atomic.make false in
  let out_of_bounds = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let l = len q in
          if l < 0 || l > upper then
            ignore (Atomic.fetch_and_add out_of_bounds 1);
          Domain.cpu_relax ()
        done)
  in
  let workers =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to 2_000 do
              let v = (w * 1_000_000) + i in
              while not (enq q v) do
                Domain.cpu_relax ()
              done;
              let rec drain () =
                match deq q with
                | Some _ -> ()
                | None ->
                    Domain.cpu_relax ();
                    drain ()
              in
              drain ()
            done))
  in
  List.iter Domain.join workers;
  Atomic.set stop true;
  Domain.join sampler;
  Alcotest.(check int) "length stayed within [0, capacity + shards]" 0
    (Atomic.get out_of_bounds);
  Alcotest.(check int) "exact when quiescent" 0 (len q)

(* --- Assembly --- *)

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let sequential_cases impl =
  [
    quick "empty dequeue" (test_empty_dequeue impl);
    quick "singleton" (test_singleton impl);
    quick "fifo order x100" (test_fifo_order impl);
    quick "interleaved" (test_interleaved impl);
    quick "wraparound x10 revolutions" (test_wraparound impl);
    quick "length tracking" (test_length impl);
    quick "drain and refill" (test_drain_refill impl);
    quick "paper pattern (sequential)" (test_paper_pattern_sequential impl);
  ]

let bounded_cases impl =
  [
    quick "full rejection and recovery" (test_full_rejection impl);
    quick "rejected enqueue preserves order" (test_full_preserves_order impl);
    quick "full/empty cycles at capacity 2" (test_full_empty_cycles impl);
  ]

let qcheck_cases impl =
  [
    QCheck_alcotest.to_alcotest (qcheck_model impl);
    QCheck_alcotest.to_alcotest (qcheck_conservation impl);
  ]

let concurrent_cases impl =
  [
    slow "transfer 1p/1c" (transfer_test impl ~producers:1 ~consumers:1 ~per_producer:5_000);
    slow "transfer 2p/2c" (transfer_test impl ~producers:2 ~consumers:2 ~per_producer:2_500);
    slow "transfer 4p/1c" (transfer_test impl ~producers:4 ~consumers:1 ~per_producer:1_000);
    slow "lincheck 2 threads"
      (test_lincheck_small impl ~threads:2 ~rounds:150 ~capacity:64);
    slow "lincheck 3 threads"
      (test_lincheck_small impl ~threads:3 ~rounds:75 ~capacity:64);
    slow "lincheck 2 threads batched"
      (test_lincheck_small ~with_batches:true impl ~threads:2 ~rounds:100
         ~capacity:64);
    slow "fifo properties big run" (test_big_run impl ~threads:4);
    slow "paper pattern 4 domains" (test_paper_pattern_concurrent impl ~threads:4);
    slow "domain churn" (test_domain_churn impl);
    slow "role swap" (test_role_swap impl);
  ]
  @ (if impl.Registry.bounded then
       [ slow "burst full/empty oscillation" (test_burst_oscillation impl) ]
     else
       (* Unbounded queues can't oscillate against a full bound, but their
          length snapshot must still stay sane while the chain (or node
          list) churns, and be exact once quiescent. *)
       [ slow "length bounds under churn" (test_length_under_churn impl) ])
  @
  (* Exercising the full/empty transitions concurrently needs the bounded
     spec, which only bounded implementations honour. *)
  if impl.Registry.bounded then
    [
      slow "lincheck tiny capacity"
        (test_lincheck_small impl ~threads:2 ~rounds:150 ~capacity:2);
    ]
  else []

let batch_cases impl =
  quick "batch roundtrip" (test_batch_roundtrip impl)
  ::
  (if impl.Registry.bounded then
     [ quick "batch partial accept" (test_batch_partial_accept impl) ]
   else [])

(* Sharded queues keep conservation and per-shard FIFO but relax global
   order and single-FIFO linearizability (DESIGN.md §8), so they get the
   count/multiset-based suite instead of the exact-order one.  Per-shard
   order itself is asserted in test_scale.ml, where the shard of origin is
   observable. *)
let relaxed_cases impl =
  [
    quick "empty dequeue" (test_empty_dequeue impl);
    quick "singleton" (test_singleton impl);
    quick "length tracking" (test_length impl);
    quick "relaxed drain (multiset)" (test_relaxed_drain impl);
    QCheck_alcotest.to_alcotest (qcheck_conservation impl);
  ]
  @ batch_cases impl
  @ [
      slow "transfer 1p/1c (conservation)"
        (transfer_test ~check_order:false impl ~producers:1 ~consumers:1
           ~per_producer:5_000);
      slow "transfer 2p/2c (conservation)"
        (transfer_test ~check_order:false impl ~producers:2 ~consumers:2
           ~per_producer:2_500);
      slow "relaxed fifo properties big run" (test_big_run impl ~threads:4);
      slow "length bounds under churn" (test_length_under_churn impl);
      slow "paper pattern 4 domains"
        (test_paper_pattern_concurrent impl ~threads:4);
      slow "domain churn" (test_domain_churn impl);
      slow "role swap" (test_role_swap impl);
    ]
  @
  if impl.Registry.bounded then
    [ slow "burst full/empty oscillation" (test_burst_oscillation impl) ]
  else []

let cases (impl : Registry.impl) =
  if impl.Registry.relaxed_fifo then relaxed_cases impl
  else
    let seq = sequential_cases impl in
    let bounded = if impl.Registry.bounded then bounded_cases impl else [] in
    let qc =
      (* The model assumes bounded semantics; unbounded queues never reject,
         which the model (cap 8) would.  Run model tests on bounded impls
         only; conservation runs everywhere. *)
      if impl.Registry.bounded then qcheck_cases impl
      else [ QCheck_alcotest.to_alcotest (qcheck_conservation impl) ]
    in
    let conc =
      if impl.Registry.family = Registry.Sequential then []
      else concurrent_cases impl
    in
    seq @ bounded @ qc @ batch_cases impl @ conc
