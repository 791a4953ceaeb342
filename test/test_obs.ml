(* Tests for the observability layer (nbq_obs): sharded counters under
   real domains, histogram bucket geometry and percentiles, the metrics
   hub + probe plumbing, instrumentation transparency (the full
   conformance battery over an instrumented queue), peek rollback hygiene
   in the tag registry, and the JSON sink. *)

open Nbq_obs
module Registry = Nbq_harness.Registry
module Runner = Nbq_harness.Runner
module Workload = Nbq_harness.Workload

(* --- Padding --- *)

let test_padding_preserves_atomic () =
  let a = Padding.atomic 41 in
  ignore (Atomic.fetch_and_add a 1);
  Alcotest.(check int) "padded atomic still works" 42 (Atomic.get a);
  Alcotest.(check int) "immediates pass through" 7 (Padding.copy_padded 7)

(* --- Sharded counters --- *)

let test_counter_single_domain () =
  let c = Sharded_counter.create () in
  for _ = 1 to 100 do
    Sharded_counter.incr c
  done;
  Sharded_counter.add c 23;
  Sharded_counter.add c 0;
  Alcotest.(check int) "read sums shards" 123 (Sharded_counter.read c);
  Sharded_counter.reset c;
  Alcotest.(check int) "reset zeroes" 0 (Sharded_counter.read c)

let test_counter_across_domains () =
  let c = Sharded_counter.create () in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Sharded_counter.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int)
    "no lost increments across domains" (4 * per_domain)
    (Sharded_counter.read c)

(* --- Histogram geometry --- *)

let test_histogram_buckets_exact_below_8 () =
  for v = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "bucket of %d" v)
      v
      (Histogram.bucket_of_ns v)
  done;
  Alcotest.(check int) "negative clamps to 0" 0 (Histogram.bucket_of_ns (-5))

let test_histogram_bucket_roundtrip () =
  for i = 0 to Histogram.bucket_count - 1 do
    let lo = Histogram.bucket_lower_ns i in
    Alcotest.(check int)
      (Printf.sprintf "lower bound of bucket %d maps back" i)
      i
      (Histogram.bucket_of_ns lo);
    let hi = Histogram.bucket_upper_ns i in
    Alcotest.(check int)
      (Printf.sprintf "upper bound of bucket %d maps back" i)
      i
      (Histogram.bucket_of_ns hi);
    if i < Histogram.bucket_count - 1 then
      Alcotest.(check int)
        (Printf.sprintf "buckets %d/%d contiguous" i (i + 1))
        (hi + 1)
        (Histogram.bucket_lower_ns (i + 1))
  done;
  Alcotest.(check int) "max_int lands in the last bucket"
    (Histogram.bucket_count - 1)
    (Histogram.bucket_of_ns max_int)

let test_histogram_relative_width () =
  (* From bucket 8 on, width/lower <= 1/8: the percentile error bound. *)
  for i = 8 to Histogram.bucket_count - 2 do
    let lo = float_of_int (Histogram.bucket_lower_ns i) in
    let width =
      float_of_int (Histogram.bucket_upper_ns i - Histogram.bucket_lower_ns i + 1)
    in
    if width /. lo > 0.125 +. 1e-9 then
      Alcotest.failf "bucket %d too wide: %f/%f" i width lo
  done

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for _ = 1 to 900 do Histogram.record h 100 done;
  for _ = 1 to 90 do Histogram.record h 1000 done;
  for _ = 1 to 10 do Histogram.record h 10_000 done;
  let s = Histogram.snapshot h in
  Alcotest.(check int) "total" 1000 (Histogram.total s);
  Alcotest.(check (float 1e-9)) "mean exact (sums are exact)" 280.0
    (Histogram.mean_ns s);
  let within q lo =
    let v = Histogram.percentile_ns s q in
    if v < float_of_int lo || v > float_of_int lo *. 1.125 then
      Alcotest.failf "p%g = %f outside [%d, %f]" (q *. 100.0) v lo
        (float_of_int lo *. 1.125)
  in
  within 0.5 100;
  within 0.9 100;
  within 0.95 1000;
  within 0.999 10_000;
  Alcotest.(check bool) "max covers the top bucket" true
    (Histogram.max_ns s >= 10_000.0);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Histogram.percentile_ns Histogram.empty 0.5))

let test_histogram_across_domains () =
  let h = Histogram.create () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Histogram.record h (100 * (d + 1))
            done))
  in
  List.iter Domain.join domains;
  let s = Histogram.snapshot h in
  Alcotest.(check int) "all samples counted" 4000 (Histogram.total s);
  Alcotest.(check int) "sum aggregated" (1000 * (100 + 200 + 300 + 400)) s.sum

(* --- Events and the metrics hub --- *)

let test_event_roundtrip () =
  Alcotest.(check int) "taxonomy size" Event.count (List.length Event.all);
  List.iteri
    (fun i ev ->
      Alcotest.(check int) "index matches position" i (Event.index ev);
      (match Event.of_string (Event.to_string ev) with
      | Some ev' when ev' = ev -> ()
      | _ -> Alcotest.failf "of_string/to_string mismatch for %s" (Event.to_string ev));
      Alcotest.(check bool) "described" true (String.length (Event.describe ev) > 0))
    Event.all;
  Alcotest.(check (option reject)) "unknown name" None (Event.of_string "nope")

let test_metrics_probe () =
  let m = Metrics.create () in
  let module P = (val Metrics.probe m) in
  P.hit Sc_fail;
  P.hit Sc_fail;
  P.hit Tail_help;
  (* Ll_reserved / Tag_reregister are sampled 1-in-64 with weight 64 off a
     shared tick that only Ll_reserved advances: 128 paired calls cross
     exactly two sampling windows, so both count 128. *)
  for _ = 1 to 128 do
    P.hit Ll_reserved;
    P.hit Tag_reregister
  done;
  Metrics.add m Event.Empty_retry 5;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "sc_fail" 2 (Metrics.get s Event.Sc_fail);
  Alcotest.(check int) "tail_help" 1 (Metrics.get s Event.Tail_help);
  Alcotest.(check int) "ll_reserve" 128 (Metrics.get s Event.Ll_reserve);
  Alcotest.(check int) "tag_reregister" 128 (Metrics.get s Event.Tag_reregister);
  Alcotest.(check int) "empty_retry" 5 (Metrics.get s Event.Empty_retry);
  Alcotest.(check int) "untouched" 0 (Metrics.get s Event.Head_help);
  let merged = Metrics.merge s s in
  Alcotest.(check int) "merge doubles" 4 (Metrics.get merged Event.Sc_fail)

(* --- Instrumentation transparency: full battery on an instrumented queue --- *)

let instrumented_impl =
  let base = Registry.find "evequoz-cas" in
  let metrics = Metrics.create () in
  {
    base with
    Registry.name = "evequoz-cas-obs";
    create = (fun ~capacity -> base.Registry.create_probed ~metrics ~capacity);
  }

(* --- Instrumented run produces believable counts --- *)

let test_instrumented_run_counts () =
  let m = Metrics.create () in
  let workload = { Workload.iterations = 200; enqueue_batch = 5; dequeue_batch = 5 } in
  let cfg = { Runner.threads = 4; runs = 1; workload; capacity = None } in
  let meas = Runner.measure ~metrics:m (Registry.find "evequoz-cas") cfg in
  let s =
    match meas.Runner.metrics with
    | Some s -> s
    | None -> Alcotest.fail "measurement carries no snapshot"
  in
  let ops = 4 * 200 * 10 in
  (* ll_reserve / tag_reregister fire once per operation but are sampled
     1-in-64 (weight 64) on racy shared ticks, so the counts are
     statistical: well above half the operations, not far above all of
     them. *)
  let sampled_sane count =
    count > ops / 2 && count <= (ops * 3 / 2) + (64 * 5)
  in
  Alcotest.(check bool) "operations reserve cells (sampled count sane)" true
    (sampled_sane (Metrics.get s Event.Ll_reserve));
  Alcotest.(check bool) "each domain registered a handle" true
    (Metrics.get s Event.Tag_register >= 4);
  Alcotest.(check bool) "operations re-register tags (sampled count sane)"
    true
    (sampled_sane (Metrics.get s Event.Tag_reregister));
  Alcotest.(check int) "full retries mirrored from snapshot"
    (Metrics.get s Event.Full_retry)
    meas.Runner.full_retries;
  Alcotest.(check int) "empty retries mirrored from snapshot"
    (Metrics.get s Event.Empty_retry)
    meas.Runner.empty_retries;
  (* Latency sampling: 1 in 64 of ~8000 successful ops per kind. *)
  Alcotest.(check bool) "enqueue latency sampled" true
    (Histogram.total s.Metrics.enq > 0);
  Alcotest.(check bool) "dequeue latency sampled" true
    (Histogram.total s.Metrics.deq > 0)

(* --- peek rollback leaves the tag registry at its baseline --- *)

let test_peek_rollback_registry () =
  let module Q = Nbq_core.Evequoz_cas in
  let q = Q.create ~capacity:8 in
  Alcotest.(check bool) "enqueue" true (Q.try_enqueue q 1);
  Alcotest.(check bool) "enqueue" true (Q.try_enqueue q 2);
  (* The implicit handle now exists: exactly one owned tag variable. *)
  let baseline_owned = Q.owned_count q in
  let baseline_size = Q.registry_size q in
  Alcotest.(check int) "one live handle after ops" 1 baseline_owned;
  for _ = 1 to 100 do
    Alcotest.(check (option int)) "peek sees the front" (Some 1) (Q.try_peek q)
  done;
  Alcotest.(check int) "peek rollback: owned refcounts at baseline"
    baseline_owned (Q.owned_count q);
  Alcotest.(check int) "peek allocates no tag variables" baseline_size
    (Q.registry_size q);
  (* After a peek, the slot must hold a plain value again (the reservation
     was rolled back), so a dequeue through a fresh handle succeeds. *)
  let h = Q.register q in
  Alcotest.(check (option int)) "dequeue after rollback" (Some 1)
    (Q.dequeue_with q h);
  Q.deregister h;
  Alcotest.(check int) "explicit handle released" baseline_owned
    (Q.owned_count q);
  Q.deregister_domain q;
  Alcotest.(check int) "implicit handle released" 0 (Q.owned_count q)

(* --- Sink --- *)

let test_sink_json_escaping () =
  Alcotest.(check string) "escaping"
    {|{"a\"b":"x\ny","n":null}|}
    (Sink.json_to_string
       (Sink.Obj [ ("a\"b", Sink.String "x\ny"); ("n", Sink.Null) ]));
  Alcotest.(check string) "nan is null" "null" (Sink.json_to_string (Sink.Float nan));
  Alcotest.(check string) "infinity is null" "null"
    (Sink.json_to_string (Sink.Float infinity));
  Alcotest.(check string) "list" "[1,2.5,true]"
    (Sink.json_to_string (Sink.List [ Sink.Int 1; Sink.Float 2.5; Sink.Bool true ]))

let test_sink_jsonl_writes () =
  let m = Metrics.create () in
  Metrics.emit m Event.Sc_fail;
  Metrics.record_enq_ns m 500;
  let path = Filename.temp_file "nbq-metrics" ".jsonl" in
  let sink = Sink.open_jsonl path in
  Sink.write_snapshot sink ~meta:[ ("queue", Sink.String "test") ]
    (Metrics.snapshot m);
  Sink.close sink;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  let has needle =
    let rec go i =
      i + String.length needle <= String.length line
      && (String.sub line i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "object line" true
    (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}');
  Alcotest.(check bool) "meta present" true (has {|"queue":"test"|});
  Alcotest.(check bool) "event count serialized" true (has {|"sc_fail":1|});
  Alcotest.(check bool) "latency serialized" true (has {|"enq_latency"|})

let () =
  Alcotest.run "nbq-obs"
    [
      ( "padding-counters",
        [
          Alcotest.test_case "padding preserves atomics" `Quick
            test_padding_preserves_atomic;
          Alcotest.test_case "counter single domain" `Quick
            test_counter_single_domain;
          Alcotest.test_case "counter across domains" `Quick
            test_counter_across_domains;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact buckets below 8" `Quick
            test_histogram_buckets_exact_below_8;
          Alcotest.test_case "bucket bounds round-trip" `Quick
            test_histogram_bucket_roundtrip;
          Alcotest.test_case "relative width bound" `Quick
            test_histogram_relative_width;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "across domains" `Quick
            test_histogram_across_domains;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "event round-trip" `Quick test_event_roundtrip;
          Alcotest.test_case "probe feeds counters" `Quick test_metrics_probe;
          Alcotest.test_case "instrumented run counts" `Quick
            test_instrumented_run_counts;
          Alcotest.test_case "peek rollback registry hygiene" `Quick
            test_peek_rollback_registry;
        ] );
      ("instrumented-battery", Battery.cases instrumented_impl);
      ( "sink",
        [
          Alcotest.test_case "json escaping" `Quick test_sink_json_escaping;
          Alcotest.test_case "jsonl writes" `Quick test_sink_jsonl_writes;
        ] );
    ]
