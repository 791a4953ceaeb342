(* Tests for the sharded multi-ring front-end (lib/scale): affinity and
   clamping, steal sweeps and their hooks, per-shard FIFO (the order
   guarantee sharding keeps), batch spill, the non-linearizable length
   snapshot, and every concurrent registry implementation behind the
   sharded wrapper at 1 and 4 shards. *)

module Sharded = Nbq_scale.Sharded
open Nbq_harness

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* A bounded reference ring per shard — sequential tests need exact,
   deterministic shard behaviour, not another concurrent queue. *)
let ref_shard capacity _i =
  let q = Queue.create () in
  Sharded.ops_of_singles
    ~enq:(fun x ->
      if Queue.length q < capacity then begin
        Queue.add x q;
        true
      end
      else false)
    ~deq:(fun () -> Queue.take_opt q)
    ~len:(fun () -> Queue.length q)

(* --- construction and affinity --- *)

let rejects_zero_shards () =
  match Sharded.create ~shards:0 (ref_shard 4) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let home_affinity_targets_home_shard () =
  let t = Sharded.create ~home:(fun () -> 2) ~shards:4 (ref_shard 4) in
  Alcotest.(check bool) "enqueue accepted" true (Sharded.try_enqueue t 7);
  Alcotest.(check int) "landed on the home shard" 1 (Sharded.shard_length t 2);
  Alcotest.(check int) "no steal" 0 (Sharded.steal_count t);
  Alcotest.(check (option (pair int int))) "dequeued from home"
    (Some (2, 7))
    (Sharded.try_dequeue_with_source t)

let home_result_is_clamped () =
  (* A wild affinity function must not index out of bounds. *)
  let t = Sharded.create ~home:(fun () -> -5) ~shards:4 (ref_shard 4) in
  Alcotest.(check bool) "enqueue accepted" true (Sharded.try_enqueue t 1);
  Alcotest.(check int) "item is somewhere" 1 (Sharded.length t);
  Alcotest.(check (option int)) "and comes back" (Some 1)
    (Sharded.try_dequeue t)

(* --- steal sweeps --- *)

let enqueue_steals_on_full_home () =
  let steals = ref 0 and windows = ref 0 in
  let t =
    Sharded.create
      ~hook:
        (module struct
          let hit : Nbq_primitives.Hook.point -> unit = function
            | Shard_stolen -> incr steals
            | Shard_steal -> incr windows
            | _ -> ()
        end)
      ~home:(fun () -> 0)
      ~shards:4 (ref_shard 1)
  in
  Alcotest.(check bool) "home takes the first" true (Sharded.try_enqueue t 1);
  Alcotest.(check int) "no window yet" 0 !windows;
  Alcotest.(check bool) "second spills" true (Sharded.try_enqueue t 2);
  Alcotest.(check int) "window fired before the sweep" 1 !windows;
  Alcotest.(check int) "one steal" 1 (Sharded.steal_count t);
  Alcotest.(check int) "Shard_stolen hit" 1 !steals;
  Alcotest.(check int) "spilled to the next shard" 1 (Sharded.shard_length t 1)

let enqueue_full_everywhere_reports_full () =
  let windows = ref 0 in
  let t =
    Sharded.create
      ~hook:
        (module struct
          let hit p = if p = Nbq_primitives.Hook.Shard_steal then incr windows
        end)
      ~home:(fun () -> 0)
      ~shards:3 (ref_shard 1)
  in
  for i = 1 to 3 do
    Alcotest.(check bool) "fills" true (Sharded.try_enqueue t i)
  done;
  Alcotest.(check bool) "full sweep fails" false (Sharded.try_enqueue t 99);
  Alcotest.(check bool) "window fired on the failed sweep too" true
    (!windows >= 1);
  Alcotest.(check int) "nothing lost" 3 (Sharded.length t)

let dequeue_steals_from_foreign_shard () =
  (* Plant an item on a foreign shard via enqueue spill: 1..4 fill home
     shard 0, item 5 spills to shard 1; draining four leaves only the
     spilled item, which the next dequeue must steal. *)
  let t = Sharded.create ~home:(fun () -> 0) ~shards:4 (ref_shard 4) in
  for i = 1 to 5 do
    ignore (Sharded.try_enqueue t i)
  done;
  (* shard0 holds 1..4, shard1 holds 5. *)
  for _ = 1 to 4 do
    ignore (Sharded.try_dequeue t)
  done;
  Alcotest.(check int) "only the spilled item remains" 1 (Sharded.length t);
  (match Sharded.try_dequeue_with_source t with
  | Some (s, v) ->
      Alcotest.(check int) "served by a foreign shard" 1 s;
      Alcotest.(check int) "the spilled value" 5 v
  | None -> Alcotest.fail "false empty with an item planted");
  Alcotest.(check bool) "dequeue steal counted" true
    (Sharded.steal_count t >= 1)

(* --- per-shard FIFO (sequential) --- *)

let per_shard_fifo_sequential () =
  (* Round-robin affinity scatters 0..11 across 3 shards; within every
     shard the dequeued subsequence must be increasing. *)
  let c = ref (-1) in
  let t =
    Sharded.create
      ~home:(fun () ->
        incr c;
        !c)
      ~shards:3 (ref_shard 16)
  in
  for i = 0 to 11 do
    Alcotest.(check bool) "enq" true (Sharded.try_enqueue t i)
  done;
  let last = Array.make 3 (-1) in
  let rec drain n =
    match Sharded.try_dequeue_with_source t with
    | Some (s, v) ->
        Alcotest.(check bool)
          (Printf.sprintf "shard %d FIFO (%d after %d)" s v last.(s))
          true (v > last.(s));
        last.(s) <- v;
        drain (n + 1)
    | None -> n
  in
  Alcotest.(check int) "all items back" 12 (drain 0)

(* --- batches --- *)

let batch_spill_lands_contiguous_runs () =
  let t = Sharded.create ~home:(fun () -> 0) ~shards:4 (ref_shard 2) in
  let accepted = Sharded.try_enqueue_batch t (Array.init 8 Fun.id) in
  Alcotest.(check int) "whole batch accepted across shards" 8 accepted;
  for s = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "shard %d took its pair" s)
      2
      (Sharded.shard_length t s)
  done;
  (* The prefix order is preserved within every shard. *)
  let last = Array.make 4 (-1) in
  let rec drain () =
    match Sharded.try_dequeue_with_source t with
    | Some (s, v) ->
        Alcotest.(check bool) "per-shard batch order" true (v > last.(s));
        last.(s) <- v;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "drained" 0 (Sharded.length t)

let batch_enqueue_partial_when_all_full () =
  let t = Sharded.create ~home:(fun () -> 0) ~shards:2 (ref_shard 2) in
  Alcotest.(check int) "only the aggregate capacity fits" 4
    (Sharded.try_enqueue_batch t (Array.init 10 Fun.id));
  Alcotest.(check int) "nothing more" 0
    (Sharded.try_enqueue_batch t [| 99 |])

let batch_dequeue_sweeps_shards () =
  let t = Sharded.create ~home:(fun () -> 0) ~shards:3 (ref_shard 2) in
  ignore (Sharded.try_enqueue_batch t (Array.init 6 Fun.id));
  let got = Sharded.try_dequeue_batch t 10 in
  Alcotest.(check int) "everything in one batch demand" 6 (List.length got);
  Alcotest.(check (list int)) "each item exactly once"
    (List.init 6 Fun.id)
    (List.sort compare got);
  Alcotest.(check (list int)) "empty facade yields nothing" []
    (Sharded.try_dequeue_batch t 4);
  Alcotest.(check int) "k <= 0 is a no-op" 0
    (List.length (Sharded.try_dequeue_batch t 0))

(* --- length: a non-linearizable sum-of-shards snapshot --- *)

let length_exact_when_quiescent () =
  let t = Sharded.create ~home:(fun () -> 0) ~shards:4 (ref_shard 2) in
  Alcotest.(check int) "empty" 0 (Sharded.length t);
  ignore (Sharded.try_enqueue_batch t (Array.init 7 Fun.id));
  Alcotest.(check int) "counts across shards" 7 (Sharded.length t);
  ignore (Sharded.try_dequeue t);
  Alcotest.(check int) "tracks removals" 6 (Sharded.length t)

let length_bounded_under_concurrency () =
  (* Each worker keeps at most one item in flight, so at any instant the
     true length is at most [workers]; each shard's read is its own
     instantaneous count, so the summed snapshot can never exceed
     [workers * shards] nor go negative — the documented in-flight
     bound.  Exactness returns at quiescence. *)
  let shards = 4 and workers = 2 in
  let impl = Registry.find "evequoz-cas" in
  let t =
    Sharded.create ~shards (fun _ ->
        let q = impl.Registry.create ~capacity:8 in
        Sharded.ops_of_singles
          ~enq:(fun v -> q.Registry.enqueue { Registry.tag = v })
          ~deq:(fun () ->
            Option.map (fun p -> p.Registry.tag) (q.Registry.dequeue ()))
          ~len:(fun () -> q.Registry.length ()))
  in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let doms =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to 5_000 do
              let v = (w * 1_000_000) + i in
              while not (Sharded.try_enqueue t v) do
                Domain.cpu_relax ()
              done;
              let rec drain () =
                match Sharded.try_dequeue t with
                | Some _ -> ()
                | None ->
                    Domain.cpu_relax ();
                    drain ()
              in
              drain ()
            done))
  in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let l = Sharded.length t in
          if l < 0 || l > workers * shards then
            ignore (Atomic.fetch_and_add bad 1);
          Domain.cpu_relax ()
        done)
  in
  List.iter Domain.join doms;
  Atomic.set stop true;
  Domain.join sampler;
  Alcotest.(check int) "snapshot stayed within the in-flight bound" 0
    (Atomic.get bad);
  Alcotest.(check int) "exact at quiescence" 0 (Sharded.length t)

(* --- per-shard FIFO under concurrency --- *)

let per_shard_fifo_concurrent () =
  (* Two producer domains with default (domain) affinity, one consumer
     (this domain) sweeping with source reporting: within every
     (shard, producer) pair the tags must be monotone — the exact order
     guarantee sharding keeps when spills scatter a producer's stream
     across rings (per-shard capacity 8 forces spills). *)
  let impl = Registry.find "evequoz-cas" in
  let t =
    Sharded.create ~shards:4 (fun _ ->
        let q = impl.Registry.create ~capacity:8 in
        Sharded.ops_of_singles
          ~enq:(fun v -> q.Registry.enqueue { Registry.tag = v })
          ~deq:(fun () ->
            Option.map (fun p -> p.Registry.tag) (q.Registry.dequeue ()))
          ~len:(fun () -> q.Registry.length ()))
  in
  let producers = 2 and per = 3_000 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              while not (Sharded.try_enqueue t ((p lsl 20) lor i)) do
                Domain.cpu_relax ()
              done
            done))
  in
  let last : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let got = ref 0 and violations = ref 0 in
  while !got < producers * per do
    match Sharded.try_dequeue_with_source t with
    | Some (shard, v) ->
        incr got;
        let p = v lsr 20 and i = v land 0xFFFFF in
        (match Hashtbl.find_opt last (shard, p) with
        | Some prev when i <= prev -> incr violations
        | _ -> ());
        Hashtbl.replace last (shard, p) i
    | None -> Domain.cpu_relax ()
  done;
  List.iter Domain.join doms;
  Alcotest.(check int) "per-(shard, producer) order held" 0 !violations;
  Alcotest.(check int) "drained" 0 (Sharded.length t)

(* --- functor veneer --- *)

module Shard4 = Sharded.Evequoz_cas (struct
  let shards = 4
end)

let functor_veneer_roundtrip () =
  Alcotest.(check string) "name" "evequoz-cas-shard4" Shard4.name;
  Alcotest.(check bool) "bounded" true Shard4.bounded;
  let q = Shard4.create ~capacity:16 in
  Alcotest.(check int) "shard count visible through the veneer" 4
    (Sharded.shard_count q);
  for i = 1 to 10 do
    Alcotest.(check bool) "enq" true (Shard4.try_enqueue q i)
  done;
  Alcotest.(check int) "length" 10 (Shard4.length q);
  let rec drain acc =
    match Shard4.try_dequeue q with Some v -> drain (v :: acc) | None -> acc
  in
  Alcotest.(check (list int)) "every item exactly once"
    (List.init 10 (fun i -> i + 1))
    (List.sort compare (drain []));
  Alcotest.(check bool) "steal counter readable" true
    (Sharded.steal_count q >= 0)

let probed_registry_row_counts_steals () =
  (* The registered shard4 row wires its probe into the sharding layer:
     spilling past a full home shard must surface as Shard_steal events
     in the hub. *)
  let impl = Registry.find "evequoz-cas-shard4" in
  let metrics = Nbq_obs.Metrics.create () in
  let q = impl.Registry.create_probed ~metrics ~capacity:8 in
  for i = 1 to 8 do
    Alcotest.(check bool) "aggregate capacity holds all" true
      (q.Registry.enqueue { Registry.tag = i })
  done;
  let s = Nbq_obs.Metrics.snapshot metrics in
  Alcotest.(check bool) "Shard_steal events recorded" true
    (Nbq_obs.Metrics.get s Nbq_obs.Event.Shard_steal > 0)

(* --- every concurrent implementation behind the wrapper --- *)

let wrapped_suite (impl : Registry.impl) shards =
  let w = Registry.sharded ~shards impl in
  ( w.Registry.name,
    [
      quick "relaxed drain (multiset)" (Battery.test_relaxed_drain w);
      quick "batch roundtrip" (Battery.test_batch_roundtrip w);
      QCheck_alcotest.to_alcotest (Battery.qcheck_conservation w);
      slow "length bounds under churn" (Battery.test_length_under_churn w);
    ] )

let wrapped_suites =
  Registry.concurrent
  |> List.filter (fun (i : Registry.impl) -> not i.Registry.relaxed_fifo)
  |> List.concat_map (fun impl ->
         [ wrapped_suite impl 1; wrapped_suite impl 4 ])

(* --- Words per operation on evequoz-cas-shard4 ---

   Measured after warm-up with preallocated payloads, on the home shard.
   A 5+5 batch round allocates only its items' own blocks: per item the
   [Item] the enqueue stores (2 words), the fresh [Vacant] the dequeue
   stores (2) and the result's cons cell (3), 7 words, so 35 a round.  An empty facade operation (home probe
   plus a steal sweep over every shard) allocates nothing. *)
let words_per ?(n = 1_000) op =
  for _ = 1 to n do op () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do op () done;
  (Gc.minor_words () -. w0) /. float n

let shard4 () = (Registry.find "evequoz-cas-shard4").Registry.create ~capacity:64

let shard4_batch_round_words () =
  let inst = shard4 () in
  let items = Array.init 5 (fun tag -> { Registry.tag }) in
  let words =
    words_per (fun () ->
        ignore (inst.Registry.enqueue_batch items : int);
        ignore (inst.Registry.dequeue_batch 5 : Registry.payload list))
  in
  Alcotest.(check int) "queue drained" 0 (inst.Registry.length ());
  Alcotest.(check (float 0.01)) "words per 5+5 round" 35. words

let shard4_empty_ops_allocate_nothing () =
  let inst = shard4 () in
  Alcotest.(check (float 0.01)) "words per empty dequeue" 0.
    (words_per (fun () ->
         ignore (inst.Registry.dequeue () : Registry.payload option)));
  Alcotest.(check (float 0.01)) "words per empty dequeue_batch" 0.
    (words_per (fun () ->
         ignore (inst.Registry.dequeue_batch 5 : Registry.payload list)))

let () =
  Alcotest.run "scale"
    (( "sharded",
       [
         quick "rejects zero shards" rejects_zero_shards;
         quick "home affinity" home_affinity_targets_home_shard;
         quick "home clamped" home_result_is_clamped;
         quick "enqueue steals on full home" enqueue_steals_on_full_home;
         quick "full everywhere reports full"
           enqueue_full_everywhere_reports_full;
         quick "dequeue steals from foreign shard"
           dequeue_steals_from_foreign_shard;
         quick "per-shard FIFO (sequential)" per_shard_fifo_sequential;
         quick "batch spill contiguous runs" batch_spill_lands_contiguous_runs;
         quick "batch partial accept at aggregate capacity"
           batch_enqueue_partial_when_all_full;
         quick "batch dequeue sweeps" batch_dequeue_sweeps_shards;
         quick "length exact when quiescent" length_exact_when_quiescent;
         quick "functor veneer roundtrip" functor_veneer_roundtrip;
         quick "probed row counts steals" probed_registry_row_counts_steals;
         quick "shard4 batch round allocates its items only"
           shard4_batch_round_words;
         quick "shard4 empty ops allocate nothing"
           shard4_empty_ops_allocate_nothing;
         slow "length bounded under concurrency"
           length_bounded_under_concurrency;
         slow "per-shard FIFO (concurrent)" per_shard_fifo_concurrent;
       ] )
    :: wrapped_suites)
