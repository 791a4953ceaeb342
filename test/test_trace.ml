(* Tests for the flight-recorder layer (nbq_trace) and its satellites:
   ring wraparound and publish ordering, recorder sampling/full modes,
   span lifecycle across disarm, Chrome trace-event export + validation,
   dump-on-fault through a real torture round, the bench-summary JSON
   trajectory, and the histogram batch-attribution path it reports from. *)

module Ring = Nbq_trace.Ring
module Record = Nbq_trace.Record
module Recorder = Nbq_trace.Recorder
module Export = Nbq_trace.Export
module Histogram = Nbq_obs.Histogram
module Registry = Nbq_harness.Registry
module Runner = Nbq_harness.Runner
module Workload = Nbq_harness.Workload
module Bench_summary = Nbq_harness.Bench_summary
module Stats = Nbq_harness.Stats

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --- Histogram.record_n: batched attribution ---------------------------- *)

let test_histogram_record_n () =
  let h = Histogram.create () in
  Histogram.record_n h 100 5;
  Histogram.record_n h 100 0;
  Histogram.record_n h 100 (-3);
  let s = Histogram.snapshot h in
  Alcotest.(check int) "five samples, non-positive n ignored" 5
    (Histogram.total s);
  let b = Histogram.bucket_of_ns 100 in
  let in_bucket =
    List.fold_left
      (fun acc (lo, hi, n) ->
        if lo <= 100 && 100 <= hi then acc + n
        else (
          ignore lo;
          ignore hi;
          acc))
      0 (Histogram.nonempty s)
  in
  ignore b;
  Alcotest.(check int) "all five land in the bucket of 100ns" 5 in_bucket

let test_histogram_snapshot_under_concurrent_record () =
  let h = Histogram.create () in
  let per_domain = 20_000 in
  let writers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Histogram.record h (((d * per_domain) + i) land 1023)
            done))
  in
  (* Reader races the writers: totals observed mid-flight only grow. *)
  let last = ref 0 in
  for _ = 1 to 50 do
    let t = Histogram.total (Histogram.snapshot h) in
    if t < !last then Alcotest.fail "snapshot total went backwards";
    last := t
  done;
  List.iter Domain.join writers;
  Alcotest.(check int) "no lost samples" (3 * per_domain)
    (Histogram.total (Histogram.snapshot h))

(* --- Ring wraparound ---------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Ring.create ~dom:7 ~bits:2 in
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  for i = 1 to 10 do
    Ring.write r ~tag:(Record.span_begin_tag Record.Enq) ~ts:i ~span:i ~arg:i
  done;
  Alcotest.(check int) "written counts every record" 10 (Ring.written r);
  let snap = Ring.snapshot r in
  Alcotest.(check int) "retains only capacity" 4 (Array.length snap);
  Array.iteri
    (fun i (rec_ : Ring.record) ->
      Alcotest.(check int)
        (Printf.sprintf "oldest-first slot %d" i)
        (7 + i) rec_.Ring.ts)
    snap;
  let tail = Ring.snapshot ~last:2 r in
  Alcotest.(check int) "last=2 truncates" 2 (Array.length tail);
  Alcotest.(check int) "last=2 keeps the newest" 10 tail.(1).Ring.ts

(* --- Recorder sampling -------------------------------------------------- *)

let count_kind pred tr =
  List.fold_left
    (fun acc ring ->
      Array.fold_left
        (fun acc (r : Ring.record) ->
          match Record.kind_of_tag r.Ring.tag with
          | Some k when pred k -> acc + 1
          | _ -> acc)
        acc (Ring.snapshot ring))
    0 (Recorder.rings tr)

let is_begin = function Record.Span_begin _ -> true | _ -> false
let is_end = function Record.Span_end _ -> true | _ -> false

let test_recorder_full_mode_records_every_span () =
  let tr = Recorder.create ~sample:1 () in
  Recorder.arm tr;
  for i = 1 to 100 do
    Recorder.span_begin tr Record.Enq ~arg:i;
    Recorder.event tr Nbq_obs.Event.Sc_fail;
    Recorder.span_end tr Record.Enq ~arg:1
  done;
  Recorder.disarm tr;
  Alcotest.(check int) "100 begins" 100 (count_kind is_begin tr);
  Alcotest.(check int) "100 ends" 100 (count_kind is_end tr);
  Alcotest.(check int) "events recorded in full mode" 100
    (count_kind (function Record.Obs _ -> true | _ -> false) tr)

let test_recorder_sampling_thins_spans () =
  let tr = Recorder.create ~sample:8 () in
  Recorder.arm tr;
  for _ = 1 to 800 do
    Recorder.span_begin tr Record.Deq ~arg:0;
    Recorder.span_end tr Record.Deq ~arg:1
  done;
  Recorder.disarm tr;
  let begins = count_kind is_begin tr in
  Alcotest.(check int) "1-in-8 sampling" 100 begins;
  Alcotest.(check int) "ends pair with begins" begins (count_kind is_end tr)

let test_recorder_disarmed_records_nothing () =
  let tr = Recorder.create ~sample:1 () in
  Recorder.span_begin tr Record.Enq ~arg:0;
  Recorder.event tr Nbq_obs.Event.Sc_fail;
  Recorder.span_end tr Record.Enq ~arg:1;
  Alcotest.(check int) "no records while disarmed" 0
    (List.fold_left
       (fun acc r -> acc + Ring.written r)
       0 (Recorder.rings tr))

let test_recorder_span_closes_across_disarm () =
  let tr = Recorder.create ~sample:1 () in
  Recorder.arm tr;
  Recorder.span_begin tr Record.Enq ~arg:0;
  Recorder.disarm tr;
  (* The operation finishes after disarm: its end must still be written so
     the exporter can pair the span. *)
  Recorder.span_end tr Record.Enq ~arg:1;
  Alcotest.(check int) "begin recorded" 1 (count_kind is_begin tr);
  Alcotest.(check int) "end recorded post-disarm" 1 (count_kind is_end tr)

(* --- Chrome export + validation ---------------------------------------- *)

let test_export_chrome_validates () =
  let tr = Recorder.create ~sample:1 () in
  let impl = Registry.find "evequoz-cas" in
  let workload = Workload.scaled_config ~scale:0.002 in
  let cfg = { Runner.threads = 2; runs = 1; workload; capacity = None } in
  Recorder.arm tr;
  ignore (Runner.measure ~tracer:tr impl cfg : Runner.measurement);
  Recorder.disarm tr;
  let path = tmp "nbq_test_trace.json" in
  Export.write_chrome ~process_name:"test" ~path tr;
  (match Export.validate_chrome_file path with
  | Error e -> Alcotest.fail ("validation rejected our own export: " ^ e)
  | Ok s ->
      Alcotest.(check bool)
        "one track per worker domain" true
        (s.Export.tracks >= 2);
      Alcotest.(check bool) "has spans" true (s.Export.spans > 0));
  Sys.remove path

let test_export_validation_rejects_garbage () =
  let path = tmp "nbq_test_trace_bad.json" in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": 42}";
  close_out oc;
  (match Export.validate_chrome_file path with
  | Ok _ -> Alcotest.fail "validator accepted garbage"
  | Error _ -> ());
  Sys.remove path

(* --- Dump on fault ------------------------------------------------------ *)

let test_dump_on_fault () =
  let t =
    match Nbq_fault.Torture.find "evequoz-cas" with
    | Some t -> t
    | None -> Alcotest.fail "torture target evequoz-cas missing"
  in
  let tracer = Recorder.create ~sample:1 () in
  let o =
    Nbq_fault.Torture.run ~workers:2 ~target_ops:200 ~trigger_after:20
      ~timeout:20.0 ~tracer t ~point:Nbq_primitives.Hook.Sc_attempt
      ~action:Nbq_fault.Injector.Stall
  in
  Alcotest.(check bool) "round triggered" true o.Nbq_fault.Torture.triggered;
  let path = tmp "nbq_test_dump.txt" in
  let oc = open_out path in
  Export.dump tracer oc;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dump has per-domain sections" true
    (contains "--- trace: domain");
  Alcotest.(check bool) "dump shows the armed fault window" true
    (contains "sc-attempt")

(* --- Bench summary ------------------------------------------------------ *)

let row ~queue ~domains ~mops =
  {
    Bench_summary.bench = "test";
    queue;
    variant = "v";
    domains;
    runs = 1;
    items = 1000;
    mitems_per_s = mops;
    p50_ns = 10.0;
    p99_ns = 20.0;
    p999_ns = nan;
  }

let test_bench_summary_roundtrip () =
  let path = tmp "nbq_test_summary.json" in
  if Sys.file_exists path then Sys.remove path;
  let n = Bench_summary.write ~path [ row ~queue:"a" ~domains:1 ~mops:1.5 ] in
  Alcotest.(check int) "one row" 1 n;
  let n =
    Bench_summary.write ~path
      [ row ~queue:"a" ~domains:1 ~mops:2.5; row ~queue:"b" ~domains:4 ~mops:3.0 ]
  in
  Alcotest.(check int) "merge supersedes same key" 2 n;
  (match Bench_summary.read path with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      Alcotest.(check int) "read back both" 2 (List.length rows);
      let a =
        List.find (fun r -> r.Bench_summary.queue = "a") rows
      in
      Alcotest.(check (float 1e-9)) "newest wins" 2.5
        a.Bench_summary.mitems_per_s;
      Alcotest.(check bool) "nan survives as nan" true
        (Float.is_nan a.Bench_summary.p999_ns));
  Sys.remove path

let test_bench_summary_within_batch_dedup () =
  let path = tmp "nbq_test_summary2.json" in
  if Sys.file_exists path then Sys.remove path;
  let n =
    Bench_summary.write ~path
      [ row ~queue:"a" ~domains:1 ~mops:1.0; row ~queue:"a" ~domains:1 ~mops:9.0 ]
  in
  Alcotest.(check int) "same-key rows collapse" 1 n;
  (match Bench_summary.read path with
  | Error e -> Alcotest.fail e
  | Ok [ r ] ->
      Alcotest.(check (float 1e-9)) "last row of the batch wins" 9.0
        r.Bench_summary.mitems_per_s
  | Ok _ -> Alcotest.fail "expected exactly one row");
  Sys.remove path

(* --- Stats p999 --------------------------------------------------------- *)

let test_stats_p999 () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "p999 at the tail" true (s.Stats.p999 >= s.Stats.p99);
  Alcotest.(check bool) "p999 below max" true (s.Stats.p999 <= 1000.0);
  Alcotest.(check bool) "p999 near the 999th sample" true
    (s.Stats.p999 >= 998.0)

let () =
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "record_n attribution" `Quick
            test_histogram_record_n;
          Alcotest.test_case "snapshot under concurrent record" `Quick
            test_histogram_snapshot_under_concurrent_record;
        ] );
      ( "ring",
        [ Alcotest.test_case "wraparound" `Quick test_ring_wraparound ] );
      ( "recorder",
        [
          Alcotest.test_case "full mode records every span" `Quick
            test_recorder_full_mode_records_every_span;
          Alcotest.test_case "sampling thins spans" `Quick
            test_recorder_sampling_thins_spans;
          Alcotest.test_case "disarmed records nothing" `Quick
            test_recorder_disarmed_records_nothing;
          Alcotest.test_case "span closes across disarm" `Quick
            test_recorder_span_closes_across_disarm;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json validates" `Quick
            test_export_chrome_validates;
          Alcotest.test_case "validator rejects garbage" `Quick
            test_export_validation_rejects_garbage;
        ] );
      ( "fault",
        [ Alcotest.test_case "dump on fault" `Quick test_dump_on_fault ] );
      ( "bench-summary",
        [
          Alcotest.test_case "json roundtrip + merge" `Quick
            test_bench_summary_roundtrip;
          Alcotest.test_case "within-batch dedup" `Quick
            test_bench_summary_within_batch_dedup;
        ] );
      ( "stats",
        [ Alcotest.test_case "p999" `Quick test_stats_p999 ] );
    ]
