(* Tests specific to the paper's two algorithms: monotonic indices, the
   explicit handle API, space adaptivity of the tag-variable registry, and
   the weak-cell variant's configuration. *)

module Q1 = Nbq_core.Evequoz_llsc
module Q2 = Nbq_core.Evequoz_cas
module Intf = Nbq_core.Queue_intf

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* --- Indices (Algorithm 1) --- *)

let llsc_indices_monotonic () =
  let q = Q1.create ~capacity:4 in
  Alcotest.(check int) "head 0" 0 (Q1.head_index q);
  Alcotest.(check int) "tail 0" 0 (Q1.tail_index q);
  for i = 1 to 10 do
    ignore (Q1.try_enqueue q i);
    ignore (Q1.try_dequeue q)
  done;
  (* Counters never wrap back even though the 4-slot ring cycled 2.5×
     (this is precisely the index-ABA defence of paper Fig. 1). *)
  Alcotest.(check int) "tail counted every enqueue" 10 (Q1.tail_index q);
  Alcotest.(check int) "head counted every dequeue" 10 (Q1.head_index q)

let llsc_indices_stop_on_rejection () =
  let q = Q1.create ~capacity:2 in
  ignore (Q1.try_enqueue q 1);
  ignore (Q1.try_enqueue q 2);
  ignore (Q1.try_enqueue q 3);
  (* rejected *)
  Alcotest.(check int) "rejected enqueue leaves tail" 2 (Q1.tail_index q);
  ignore (Q1.try_dequeue q);
  ignore (Q1.try_dequeue q);
  ignore (Q1.try_dequeue q);
  (* empty *)
  Alcotest.(check int) "empty dequeue leaves head" 2 (Q1.head_index q)

let cas_indices_monotonic () =
  let q = Q2.create ~capacity:4 in
  for i = 1 to 12 do
    ignore (Q2.try_enqueue q i);
    ignore (Q2.try_dequeue q)
  done;
  Alcotest.(check int) "tail" 12 (Q2.tail_index q);
  Alcotest.(check int) "head" 12 (Q2.head_index q)

(* --- Capacity rounding --- *)

let capacity_rounding () =
  List.iter
    (fun (requested, expect) ->
      let q = Q1.create ~capacity:requested in
      Alcotest.(check int)
        (Printf.sprintf "llsc cap %d -> %d" requested expect)
        expect (Q1.capacity q);
      let q2 = Q2.create ~capacity:requested in
      Alcotest.(check int)
        (Printf.sprintf "cas cap %d -> %d" requested expect)
        expect (Q2.capacity q2))
    [ (1, 2); (2, 2); (3, 4); (4, 4); (5, 8); (100, 128) ]

let capacity_invalid () =
  match Q1.create ~capacity:0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Explicit handles (Algorithm 2) --- *)

let cas_explicit_handles () =
  let q = Q2.create ~capacity:8 in
  let h = Q2.register q in
  Alcotest.(check bool) "enqueue via handle" true (Q2.enqueue_with q h 1);
  Alcotest.(check bool) "another" true (Q2.enqueue_with q h 2);
  Alcotest.(check (option int)) "dequeue via handle" (Some 1) (Q2.dequeue_with q h);
  Alcotest.(check (option int)) "order kept" (Some 2) (Q2.dequeue_with q h);
  Alcotest.(check (option int)) "empty" None (Q2.dequeue_with q h);
  Q2.deregister h

let cas_handle_recycling () =
  let q = Q2.create ~capacity:8 in
  let h1 = Q2.register q in
  ignore (Q2.enqueue_with q h1 1);
  Q2.deregister h1;
  let before = Q2.registry_size q in
  (* Sequential register/deregister cycles must reuse the same variable. *)
  for _ = 1 to 50 do
    let h = Q2.register q in
    ignore (Q2.enqueue_with q h 2);
    ignore (Q2.dequeue_with q h);
    Q2.deregister h
  done;
  Alcotest.(check int) "registry did not grow" before (Q2.registry_size q)

let cas_registry_space_adaptive () =
  (* The registry grows to the high-water mark of simultaneous threads,
     not with the number of operations (paper's space-adaptivity claim).
     The bound is DESIGN §13's: each of the [domains] handles owns one
     tag variable, and a variable whose owner renewed away from it stays
     busy while a reader pins it mid-[ll].  A thread that appends owns
     and pins nothing, so it finds at most 2 * (domains - 1) busy
     variables: the registry holds at most 2 * domains - 1. *)
  let q = Q2.create ~capacity:64 in
  let domains = 4 and per_domain = 2_000 in
  let bound = (2 * domains) - 1 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              ignore (Q2.try_enqueue q ((d * per_domain) + i));
              ignore (Q2.try_dequeue q)
            done;
            Q2.deregister_domain q))
  in
  List.iter Domain.join workers;
  let size = Q2.registry_size q in
  Alcotest.(check bool)
    (Printf.sprintf "registry size %d bounded by concurrency (%d)" size bound)
    true
    (size >= 1 && size <= bound);
  (* A second wave of domains must reuse the released variables. *)
  let wave2 =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            ignore (Q2.try_enqueue q 1);
            ignore (Q2.try_dequeue q);
            Q2.deregister_domain q))
  in
  List.iter Domain.join wave2;
  Alcotest.(check bool) "second wave stays within the bound" true
    (Q2.registry_size q <= bound)

let cas_deregister_domain_idempotent () =
  let q = Q2.create ~capacity:8 in
  ignore (Q2.try_enqueue q 1);
  Q2.deregister_domain q;
  Q2.deregister_domain q;
  (* no-op *)
  Alcotest.(check (option int)) "still usable" (Some 1) (Q2.try_dequeue q)

let cas_interleaved_handles_one_thread () =
  (* Two logical threads multiplexed on one domain via explicit handles. *)
  let q = Q2.create ~capacity:8 in
  let ha = Q2.register q and hb = Q2.register q in
  ignore (Q2.enqueue_with q ha 1);
  ignore (Q2.enqueue_with q hb 2);
  Alcotest.(check (option int)) "a sees 1" (Some 1) (Q2.dequeue_with q hb);
  Alcotest.(check (option int)) "b sees 2" (Some 2) (Q2.dequeue_with q ha);
  Q2.deregister ha;
  Q2.deregister hb

(* --- Peek (extension feature) --- *)

let peek_sequential_llsc () =
  let q = Q1.create ~capacity:4 in
  Alcotest.(check (option int)) "empty peek" None (Q1.try_peek q);
  ignore (Q1.try_enqueue q 1);
  ignore (Q1.try_enqueue q 2);
  Alcotest.(check (option int)) "front" (Some 1) (Q1.try_peek q);
  Alcotest.(check (option int)) "peek does not remove" (Some 1) (Q1.try_peek q);
  Alcotest.(check int) "length untouched" 2 (Q1.length q);
  Alcotest.(check (option int)) "dequeue still 1" (Some 1) (Q1.try_dequeue q);
  Alcotest.(check (option int)) "front now 2" (Some 2) (Q1.try_peek q);
  ignore (Q1.try_dequeue q);
  Alcotest.(check (option int)) "empty again" None (Q1.try_peek q)

let peek_sequential_cas () =
  let q = Q2.create ~capacity:4 in
  Alcotest.(check (option int)) "empty peek" None (Q2.try_peek q);
  ignore (Q2.try_enqueue q 1);
  ignore (Q2.try_enqueue q 2);
  Alcotest.(check (option int)) "front" (Some 1) (Q2.try_peek q);
  Alcotest.(check (option int)) "peek does not remove" (Some 1) (Q2.try_peek q);
  Alcotest.(check (option int)) "dequeue still 1" (Some 1) (Q2.try_dequeue q);
  let h = Q2.register q in
  Alcotest.(check (option int)) "peek via handle" (Some 2) (Q2.peek_with q h);
  Q2.deregister h;
  Alcotest.(check (option int)) "peek left the item" (Some 2) (Q2.try_dequeue q)

let peek_concurrent_monotone () =
  (* One producer of an ascending sequence, one peeker: peeked values must
     be non-decreasing (the front only moves forward). *)
  let q = Q1.create ~capacity:8 in
  let stop = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 5_000 do
          while not (Q1.try_enqueue q i) do
            ignore (Q1.try_dequeue q)
          done
        done;
        Atomic.set stop true)
  in
  let last = ref 0 in
  let ok = ref true in
  while not (Atomic.get stop) do
    match Q1.try_peek q with
    | Some v ->
        if v < !last then ok := false;
        last := v
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "peeks non-decreasing" true !ok

(* Algorithm 1's allocation per enqueue/dequeue pair on one domain: the
   [Item] the enqueue stores, the [Vacant] the dequeue stores and the
   [Some]; the fresh-store cells add no box and the counters allocate
   nothing. *)
let llsc_pair_words () =
  let q = Q1.create ~capacity:4 in
  let n = 1_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (Q1.try_enqueue q i);
    ignore (Q1.try_dequeue q)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all moved" n (Q1.head_index q);
  Alcotest.(check (float 0.)) "words per pair" 6. (words /. float n)

(* A dequeue builds its [Vacant] once, at its first sc: a failed sc leaves
   the block unstored and the retry stores that same block.  The cells'
   hook runs one interfering dequeue at the first sc attempt, which takes
   the item and fails the outer sc; the outer dequeue then takes the next
   item.  Without the interference's own allocation, it allocates one
   [Vacant] and its [Some], 4 words (a [Vacant] per attempt would be 6). *)
let interfere : (unit -> unit) option ref = ref None

module Interfering_hook = struct
  let hit = function
    | Nbq_primitives.Hook.Sc_attempt -> (
        match !interfere with
        | Some f ->
            interfere := None;
            f ()
        | None -> ())
    | _ -> ()
end

module Q1_interfered =
  Nbq_core.Evequoz_llsc.Make
    (Nbq_primitives.Llsc.Make_fresh_probed
       (Nbq_primitives.Atomic_intf.Real)
       (Interfering_hook))

let failed_dequeue_sc_stores_one_vacant () =
  let module Q = Q1_interfered in
  let q = Q.create ~capacity:4 in
  ignore (Q.try_enqueue q 1 : bool);
  ignore (Q.try_enqueue q 2 : bool);
  let inner_words = ref 0 and inner_got = ref None in
  let inner () =
    let w0 = Gc.minor_words () in
    let got = Q.try_dequeue q in
    inner_words := int_of_float (Gc.minor_words () -. w0);
    inner_got := got
  in
  interfere := Some inner;
  let w0 = Gc.minor_words () in
  let got = Q.try_dequeue q in
  let words = int_of_float (Gc.minor_words () -. w0) - !inner_words in
  Alcotest.(check bool) "interference ran" true (Option.is_none !interfere);
  Alcotest.(check (option int)) "interfering dequeue took the first" (Some 1)
    !inner_got;
  Alcotest.(check (option int)) "outer dequeue took the second" (Some 2) got;
  Alcotest.(check int) "words of the outer dequeue" 4 words

(* --- Functor / weak cells --- *)

let weak_queue_correct_under_failures () =
  Atomic.set Q1.On_weak_cells.failure_rate 0.3;
  let q = Q1.On_weak_cells.create ~capacity:8 in
  for round = 0 to 99 do
    Alcotest.(check bool) "enq" true (Q1.On_weak_cells.try_enqueue q round);
    Alcotest.(check (option int)) "deq" (Some round)
      (Q1.On_weak_cells.try_dequeue q)
  done;
  Atomic.set Q1.On_weak_cells.failure_rate 0.05

(* Weak counter bumps fail spuriously too; the advance must retry them, or
   a lagging counter would be left behind. *)
let weak_counters_drop_no_bump () =
  Atomic.set Q1.On_weak_cells.failure_rate 0.5;
  let q = Q1.On_weak_cells.create ~capacity:4 in
  Atomic.set Q1.On_weak_cells.failure_rate 0.05;
  let n = 1_000 in
  for i = 1 to n do
    ignore (Q1.On_weak_cells.try_enqueue q i);
    ignore (Q1.On_weak_cells.try_dequeue q)
  done;
  Alcotest.(check int) "tail" n (Q1.On_weak_cells.tail_index q);
  Alcotest.(check int) "head" n (Q1.On_weak_cells.head_index q)

let weak_queue_concurrent () =
  Atomic.set Q1.On_weak_cells.failure_rate 0.2;
  let q = Q1.On_weak_cells.create ~capacity:64 in
  let domains = 4 and per_domain = 1_000 in
  let consumed = Atomic.make 0 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              while not (Q1.On_weak_cells.try_enqueue q ((d * per_domain) + i)) do
                Domain.cpu_relax ()
              done;
              let rec drain () =
                match Q1.On_weak_cells.try_dequeue q with
                | Some _ -> ignore (Atomic.fetch_and_add consumed 1)
                | None ->
                    Domain.cpu_relax ();
                    drain ()
              in
              drain ()
            done))
  in
  List.iter Domain.join workers;
  Atomic.set Q1.On_weak_cells.failure_rate 0.05;
  Alcotest.(check int) "all transferred" (domains * per_domain)
    (Atomic.get consumed);
  Alcotest.(check int) "drained" 0 (Q1.On_weak_cells.length q)

(* --- Blocking wrapper --- *)

module Q1_conc = Intf.Make (Intf.Capability.Bounded (Q1))
module Q1_blocking = Intf.Blocking (Q1_conc)

let blocking_wrapper_ping_pong () =
  let q = Q1_blocking.create ~capacity:2 in
  let n = 2_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Q1_blocking.enqueue q i
        done)
  in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Q1_blocking.dequeue q
  done;
  Domain.join producer;
  Alcotest.(check int) "all items through a 2-slot ring" (n * (n + 1) / 2) !sum

let round_capacity_unit () =
  Alcotest.(check int) "1 -> 2" 2 (Intf.round_capacity 1);
  Alcotest.(check int) "7 -> 8" 8 (Intf.round_capacity 7);
  Alcotest.(check int) "8 -> 8" 8 (Intf.round_capacity 8);
  Alcotest.(check int) "9 -> 16" 16 (Intf.round_capacity 9);
  match Intf.round_capacity 0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Regression: capacities above the largest representable power of two used
   to make the doubling loop overflow into negatives and spin forever. *)
let round_capacity_clamp () =
  Alcotest.(check int) "max power of two accepted" Intf.max_capacity
    (Intf.round_capacity Intf.max_capacity);
  Alcotest.(check int) "rounds up to the max" Intf.max_capacity
    (Intf.round_capacity (Intf.max_capacity - 1));
  (match Intf.round_capacity (Intf.max_capacity + 1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Intf.round_capacity max_int with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Graceful degradation: deadlines and retry budgets --- *)

(* A full 2-slot blocking queue: the raw queue is pre-filled through the
   [queue] view, so the blocking operations below must actually wait. *)
let full_blocking_pair () =
  let q = Q1_blocking.create ~capacity:2 in
  ignore (Q1_conc.try_enqueue (Q1_blocking.queue q) 1);
  ignore (Q1_conc.try_enqueue (Q1_blocking.queue q) 2);
  q

let blocking_deadline_timeout () =
  let q = full_blocking_pair () in
  (match
     Q1_blocking.enqueue_until q ~deadline:(Unix.gettimeofday () +. 0.05) 3
   with
  | `Timeout -> ()
  | `Ok -> Alcotest.fail "full queue must time out");
  let empty = Q1_blocking.create ~capacity:2 in
  match
    Q1_blocking.dequeue_until empty ~deadline:(Unix.gettimeofday () +. 0.05)
  with
  | `Timeout -> ()
  | `Ok _ -> Alcotest.fail "empty queue must time out"

let blocking_deadline_past_still_tries () =
  (* A deadline already in the past still makes one attempt (and never
     parks), so an uncontended operation never spuriously times out. *)
  let q = Q1_blocking.create ~capacity:2 in
  (match Q1_blocking.enqueue_until q ~deadline:0.0 7 with
  | `Ok -> ()
  | `Timeout -> Alcotest.fail "uncontended enqueue must succeed");
  match Q1_blocking.dequeue_until q ~deadline:0.0 with
  | `Ok 7 -> ()
  | `Ok _ | `Timeout -> Alcotest.fail "the item must come back"

let blocking_budget () =
  let q = full_blocking_pair () in
  (match Q1_blocking.enqueue_budget q ~retries:3 9 with
  | `Timeout -> ()
  | `Ok -> Alcotest.fail "full queue must exhaust its budget");
  (match Q1_blocking.dequeue_budget q ~retries:0 with
  | `Ok 1 -> ()
  | `Ok _ | `Timeout -> Alcotest.fail "first attempt must dequeue 1");
  (match Q1_blocking.enqueue_budget q ~retries:0 9 with
  | `Ok -> ()
  | `Timeout -> Alcotest.fail "freed slot must accept without retries");
  let empty = Q1_blocking.create ~capacity:2 in
  match Q1_blocking.dequeue_budget empty ~retries:2 with
  | `Timeout -> ()
  | `Ok _ -> Alcotest.fail "empty queue must exhaust its budget"

let blocking_deadline_cross_domain () =
  let q = full_blocking_pair () in
  let consumer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.01;
        Q1_blocking.dequeue q)
  in
  (match
     Q1_blocking.enqueue_until q ~deadline:(Unix.gettimeofday () +. 10.0) 3
   with
  | `Ok -> ()
  | `Timeout -> Alcotest.fail "slot was freed well before the deadline");
  ignore (Domain.join consumer)

(* --- Amortized batch runs (Evequoz_cas.Batched, DESIGN.md §8) ---------
   The default rows keep loop-of-singles batches; these tests pin the
   opt-in fast runs directly: FIFO through whole runs, wraparound,
   partial accept at capacity, mixing with single ops, and conservation
   plus per-producer order under concurrency. *)

module QB = Q2.Batched

let batch_fifo_roundtrip () =
  let q : int QB.t = Q2.create ~capacity:16 in
  let n = QB.try_enqueue_batch q (Array.init 10 (fun i -> i)) in
  Alcotest.(check int) "all accepted" 10 n;
  Alcotest.(check (list int)) "run in order" [ 0; 1; 2; 3; 4 ]
    (QB.try_dequeue_batch q 5);
  Alcotest.(check (list int)) "remainder in order" [ 5; 6; 7; 8; 9 ]
    (QB.try_dequeue_batch q 99);
  Alcotest.(check (list int)) "empty run" [] (QB.try_dequeue_batch q 4)

let batch_wraparound () =
  let q : int QB.t = Q2.create ~capacity:8 in
  let next = ref 0 in
  (* 25 revolutions of runs sized 5 against capacity 8: every run crosses
     the index wrap repeatedly and the published counters stay ahead of
     the slots they cover. *)
  for _ = 1 to 40 do
    let sent = QB.try_enqueue_batch q (Array.init 5 (fun i -> !next + i)) in
    Alcotest.(check int) "batch fits" 5 sent;
    next := !next + 5;
    let got = QB.try_dequeue_batch q 5 in
    Alcotest.(check (list int)) "drained in order"
      (List.init 5 (fun i -> !next - 5 + i))
      got
  done

let batch_partial_accept () =
  let q : int QB.t = Q2.create ~capacity:8 in
  Alcotest.(check int) "prefix accepted" 8
    (QB.try_enqueue_batch q (Array.init 12 (fun i -> i)));
  Alcotest.(check int) "full rejects rest" 0
    (QB.try_enqueue_batch q [| 99 |]);
  Alcotest.(check (list int)) "accepted prefix only, in order"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (QB.try_dequeue_batch q 12);
  (* Short queue: a dequeue run returns what is there. *)
  Alcotest.(check int) "three more" 3 (QB.try_enqueue_batch q [| 20; 21; 22 |]);
  Alcotest.(check (list int)) "short run" [ 20; 21; 22 ]
    (QB.try_dequeue_batch q 12)

let batch_mixed_with_singles () =
  let q : int QB.t = Q2.create ~capacity:16 in
  assert (Q2.try_enqueue q 0);
  Alcotest.(check int) "run after single" 3
    (QB.try_enqueue_batch q [| 1; 2; 3 |]);
  assert (Q2.try_enqueue q 4);
  Alcotest.(check (option int)) "single sees run items" (Some 0)
    (Q2.try_dequeue q);
  Alcotest.(check (list int)) "run sees single items" [ 1; 2; 3; 4 ]
    (QB.try_dequeue_batch q 4);
  Alcotest.(check (option int)) "drained" None (Q2.try_dequeue q)

let batch_concurrent_conservation () =
  let producers = 2 and consumers = 2 in
  let per_producer = 3_000 in
  let q : int QB.t = Q2.create ~capacity:64 in
  let consumed = Array.make consumers [] in
  let prods =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            let sent = ref 0 in
            while !sent < per_producer do
              let base = (p * 1_000_000) + !sent in
              let k = min 7 (per_producer - !sent) in
              let n =
                QB.try_enqueue_batch q (Array.init k (fun i -> base + i))
              in
              sent := !sent + n;
              if n < k then Domain.cpu_relax ()
            done))
  in
  let total = producers * per_producer in
  let taken = Atomic.make 0 in
  let cons =
    List.init consumers (fun c ->
        Domain.spawn (fun () ->
            let mine = ref [] in
            let continue = ref true in
            while !continue do
              match QB.try_dequeue_batch q 7 with
              | [] ->
                  if Atomic.get taken >= total then continue := false
                  else Domain.cpu_relax ()
              | xs ->
                  ignore (Atomic.fetch_and_add taken (List.length xs));
                  mine := List.rev_append xs !mine
            done;
            consumed.(c) <- List.rev !mine))
  in
  List.iter Domain.join prods;
  List.iter Domain.join cons;
  let all = Array.to_list consumed |> List.concat in
  Alcotest.(check int) "conserved" total (List.length all);
  Alcotest.(check int) "no duplicates" total
    (List.length (List.sort_uniq compare all));
  (* Per-producer order: within one consumer's stream, each producer's
     items must arrive in increasing order (single FIFO, so this also
     holds across batch boundaries). *)
  Array.iter
    (fun stream ->
      let last = Array.make producers (-1) in
      List.iter
        (fun v ->
          let p = v / 1_000_000 in
          Alcotest.(check bool) "per-producer order in stream" true
            (v > last.(p));
          last.(p) <- v)
        stream)
    consumed

(* --- SCQ: the FAA-ticketed ring behind its admission gate --- *)

module Scq = Nbq_scq.Scq.Make (Nbq_primitives.Atomic_intf.Real)

let scq_fifo_and_capacity () =
  let q = Scq.create ~capacity:3 in
  Alcotest.(check int) "capacity rounded" 4 (Scq.capacity q);
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "enqueue %d accepted" i)
      true
      (Scq.try_enqueue q i)
  done;
  (* The admission gate linearizes "full": with nothing in flight the 5th
     item must bounce at once even though the backing ring has 2n = 8
     slots. *)
  Alcotest.(check bool) "5th rejected" false (Scq.try_enqueue q 5);
  Alcotest.(check int) "length at cap" 4 (Scq.length q);
  for i = 1 to 4 do
    Alcotest.(check (option int))
      (Printf.sprintf "dequeue %d in order" i)
      (Some i) (Scq.try_dequeue q)
  done;
  Alcotest.(check (option int)) "then empty" None (Scq.try_dequeue q);
  Alcotest.(check int) "length drained" 0 (Scq.length q)

let scq_empty_fast_path_rearms () =
  (* Failed dequeues burn the threshold down to its negative fast path;
     any later enqueue must re-arm it (reset_threshold) so the queue
     never reports a false empty afterwards. *)
  let q = Scq.create ~capacity:2 in
  for _ = 1 to 50 do
    Alcotest.(check (option int)) "empty" None (Scq.try_dequeue q)
  done;
  Alcotest.(check bool) "enqueue after the burn" true (Scq.try_enqueue q 7);
  Alcotest.(check (option int)) "comes back" (Some 7) (Scq.try_dequeue q);
  Alcotest.(check (option int)) "empty again" None (Scq.try_dequeue q)

let scq_wraparound () =
  (* 100 laps of a 2-slot ring: cycle indices must keep slots unambiguous
     far past the first revolution. *)
  let q = Scq.create ~capacity:2 in
  for i = 1 to 200 do
    Alcotest.(check bool) "accepted" true (Scq.try_enqueue q i);
    Alcotest.(check (option int)) "round-trips" (Some i) (Scq.try_dequeue q)
  done;
  Alcotest.(check int) "length settled" 0 (Scq.length q)

let scq_concurrent_conservation () =
  (* 2 producers + 2 consumers over a 4-slot scq: every accepted item
     comes out exactly once, per-producer order preserved. *)
  let q = Scq.create ~capacity:4 in
  let per = 3_000 in
  let accepted = Array.make 2 [] and got = Array.make 2 [] in
  let producers =
    Array.init 2 (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              let v = (p * per) + i in
              let rec go n =
                if n > 0 && not (Scq.try_enqueue q v) then begin
                  Unix.sleepf 1e-4;
                  go (n - 1)
                end
                else if n > 0 then accepted.(p) <- v :: accepted.(p)
              in
              go 200
            done))
  in
  let stop = Atomic.make 0 in
  let consumers =
    Array.init 2 (fun c ->
        Domain.spawn (fun () ->
            let rec drain idle =
              match Scq.try_dequeue q with
              | Some v ->
                  got.(c) <- v :: got.(c);
                  drain 0
              | None ->
                  if Atomic.get stop < 2 then begin
                    Unix.sleepf 1e-4;
                    drain idle
                  end
                  else if idle < 3 then drain (idle + 1)
            in
            drain 0))
  in
  Array.iter
    (fun d ->
      Domain.join d;
      Atomic.incr stop)
    producers;
  Array.iter Domain.join consumers;
  let all_in = List.sort compare (accepted.(0) @ accepted.(1)) in
  let all_out = List.sort compare (got.(0) @ got.(1)) in
  let rec leftover () =
    match Scq.try_dequeue q with
    | Some v -> v :: leftover ()
    | None -> []
  in
  let all_out = List.sort compare (all_out @ leftover ()) in
  Alcotest.(check int) "conservation" (List.length all_in)
    (List.length all_out);
  Alcotest.(check bool) "same multiset" true (all_in = all_out)

let () =
  Alcotest.run "core"
    [
      ( "indices",
        [
          quick "llsc monotonic across wraps" llsc_indices_monotonic;
          quick "llsc indices on rejection" llsc_indices_stop_on_rejection;
          quick "llsc pair allocates 6 words" llsc_pair_words;
          quick "failed dequeue sc stores one Vacant"
            failed_dequeue_sc_stores_one_vacant;
          quick "cas monotonic across wraps" cas_indices_monotonic;
        ] );
      ( "capacity",
        [
          quick "rounding" capacity_rounding;
          quick "invalid" capacity_invalid;
          quick "round_capacity unit" round_capacity_unit;
          quick "round_capacity overflow clamp" round_capacity_clamp;
        ] );
      ( "handles",
        [
          quick "explicit handles" cas_explicit_handles;
          quick "handle recycling" cas_handle_recycling;
          slow "registry space adaptivity" cas_registry_space_adaptive;
          quick "deregister_domain idempotent" cas_deregister_domain_idempotent;
          quick "interleaved handles, one thread"
            cas_interleaved_handles_one_thread;
        ] );
      ( "peek",
        [
          quick "sequential, llsc queue" peek_sequential_llsc;
          quick "sequential, cas queue" peek_sequential_cas;
          slow "concurrent peeks monotone" peek_concurrent_monotone;
        ] );
      ( "weak-cells",
        [
          quick "sequential under 30% failures" weak_queue_correct_under_failures;
          quick "counters drop no bump at 50% failures"
            weak_counters_drop_no_bump;
          slow "concurrent under 20% failures" weak_queue_concurrent;
        ] );
      ( "batch-runs",
        [
          quick "fifo roundtrip" batch_fifo_roundtrip;
          quick "wraparound x25 revolutions" batch_wraparound;
          quick "partial accept at capacity" batch_partial_accept;
          quick "mixed with single ops" batch_mixed_with_singles;
          slow "concurrent conservation + order" batch_concurrent_conservation;
        ] );
      ( "scq",
        [
          quick "fifo + credit-bounded capacity" scq_fifo_and_capacity;
          quick "empty fast path re-arms" scq_empty_fast_path_rearms;
          quick "wraparound x100 laps" scq_wraparound;
          slow "concurrent conservation" scq_concurrent_conservation;
        ] );
      ( "blocking",
        [
          slow "ping-pong through 2-slot ring" blocking_wrapper_ping_pong;
          quick "deadline times out" blocking_deadline_timeout;
          quick "past deadline still tries once"
            blocking_deadline_past_still_tries;
          quick "retry budgets" blocking_budget;
          slow "deadline met across domains" blocking_deadline_cross_domain;
        ] );
    ]
