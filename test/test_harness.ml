(* Tests for the benchmark harness: registry, stats, tables, workload,
   runner. *)

open Nbq_harness

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let feq = Alcotest.float 1e-9

(* --- Registry --- *)

let registry_names_unique () =
  let names = Registry.names () in
  Alcotest.(check int) "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let registry_find_roundtrip () =
  List.iter
    (fun (impl : Registry.impl) ->
      let found = Registry.find impl.Registry.name in
      Alcotest.(check string) "found itself" impl.Registry.name
        found.Registry.name)
    Registry.all

let registry_find_unknown () =
  match Registry.find "no-such-queue" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let registry_concurrent_excludes_sequential () =
  Alcotest.(check bool) "seq-ring not in concurrent" false
    (List.exists
       (fun (i : Registry.impl) -> i.Registry.name = "seq-ring")
       Registry.concurrent);
  Alcotest.(check int) "all = concurrent + seq"
    (List.length Registry.all)
    (List.length Registry.concurrent + 1);
  Alcotest.(check int) "twenty-one implementations" 21
    (List.length Registry.all)

let registry_instances_independent () =
  let impl = Registry.find "evequoz-cas" in
  let a = impl.Registry.create ~capacity:8 in
  let b = impl.Registry.create ~capacity:8 in
  ignore (a.Registry.enqueue { Registry.tag = 1 });
  Alcotest.(check int) "b unaffected" 0 (b.Registry.length ());
  Alcotest.(check int) "a has one" 1 (a.Registry.length ())

(* The exact row list, in registry order: a deleted row cannot come back
   unnoticed, and a new row must be listed here. *)
let registry_expected_members () =
  Alcotest.(check (list string)) "registry rows"
    [
      "evequoz-llsc"; "evequoz-cas"; "evequoz-cas-shard4"; "evequoz-cas-shard8";
      "evequoz-llsc-weak"; "shann"; "valois-dcas"; "ms-gc"; "ms-hp-sorted";
      "ms-hp-unsorted"; "ms-doherty"; "herlihy-wing"; "two-lock"; "lock-ring";
      "evequoz-seg"; "evequoz-seg-shard1"; "evequoz-seg-shard4"; "scq";
      "scq-shard4"; "scq-blocking"; "seq-ring";
    ]
    (Registry.names ())

(* --- Stats --- *)

let stats_known_values () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.check feq "mean" 2.5 s.Stats.mean;
  Alcotest.check feq "min" 1.0 s.Stats.min;
  Alcotest.check feq "max" 4.0 s.Stats.max;
  Alcotest.check feq "median" 2.5 s.Stats.median;
  Alcotest.check (Alcotest.float 1e-6) "stddev" 1.2909944487 s.Stats.stddev;
  Alcotest.check feq "p95" 4.0 s.Stats.p95;
  Alcotest.check feq "p99" 4.0 s.Stats.p99;
  Alcotest.(check int) "n" 4 s.Stats.n

let stats_percentiles () =
  (* 1..100: nearest-rank on the sorted array (rank = round(q * (n-1))). *)
  let s = Stats.summarize (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "p95" 95.0 s.Stats.p95;
  Alcotest.check feq "p99" 99.0 s.Stats.p99;
  (* Order must not matter: Float.compare sorts, not polymorphic compare. *)
  let r = Stats.summarize (List.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check feq "p95 order-independent" 95.0 r.Stats.p95

let stats_single_sample () =
  let s = Stats.summarize [ 7.0 ] in
  Alcotest.check feq "mean" 7.0 s.Stats.mean;
  Alcotest.check feq "stddev" 0.0 s.Stats.stddev;
  Alcotest.check feq "median" 7.0 s.Stats.median

let stats_odd_median () =
  let s = Stats.summarize [ 5.0; 1.0; 3.0 ] in
  Alcotest.check feq "median" 3.0 s.Stats.median

let stats_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize []))

let stats_normalize () =
  Alcotest.check feq "normalize" 2.0 (Stats.normalize ~base:2.0 4.0);
  Alcotest.(check bool) "zero base is nan" true
    (Float.is_nan (Stats.normalize ~base:0.0 1.0))

let qcheck_stats_invariants =
  QCheck.Test.make ~count:300 ~name:"summary invariants"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.n = List.length xs
      && s.Stats.min <= s.Stats.median
      && s.Stats.median <= s.Stats.max
      && s.Stats.min <= s.Stats.mean +. 1e-9
      && s.Stats.mean <= s.Stats.max +. 1e-9
      && s.Stats.median <= s.Stats.p95
      && s.Stats.p95 <= s.Stats.p99
      && s.Stats.p99 <= s.Stats.max
      && s.Stats.stddev >= 0.0)

let qcheck_stats_shift =
  QCheck.Test.make ~count:300 ~name:"mean is shift-equivariant, stddev invariant"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 2 30) (float_range (-100.0) 100.0))
        (float_range (-50.0) 50.0))
    (fun (xs, delta) ->
      let a = Stats.summarize xs in
      let b = Stats.summarize (List.map (fun x -> x +. delta) xs) in
      Float.abs (b.Stats.mean -. (a.Stats.mean +. delta)) < 1e-6
      && Float.abs (b.Stats.stddev -. a.Stats.stddev) < 1e-6)

(* --- Table --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "threads"; "a"; "b" ] in
  Table.add_row t [ "1"; "0.5"; "0.25" ];
  Table.add_row t [ "2"; "1.5"; "1.25" ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length out > 4 && String.sub out 0 4 = "demo");
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %s" needle)
        true (contains out needle))
    [ "threads"; "0.25"; "1.5" ]

let table_csv () =
  let t = Table.create ~title:"demo" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "a,b"; "c" ];
  let csv = Table.render_csv t in
  Alcotest.(check string) "csv with quoting" "x,y\n\"a,b\",c\n" csv

let table_cell_count_checked () =
  let t = Table.create ~title:"demo" ~columns:[ "x"; "y" ] in
  match Table.add_row t [ "only-one" ] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Ascii_plot --- *)

let plot_basic () =
  let out =
    Ascii_plot.render ~title:"demo plot" ~x_label:"threads" ~y_label:"s"
      [
        { Ascii_plot.label = "alpha"; points = [ (1.0, 0.1); (2.0, 0.4) ] };
        { Ascii_plot.label = "beta"; points = [ (1.0, 0.3); (2.0, 0.2) ] };
      ]
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("plot contains " ^ needle) true (contains out needle))
    [ "demo plot"; "alpha"; "beta"; "threads"; "*"; "+" ]

let plot_no_data () =
  let out =
    Ascii_plot.render ~title:"empty" ~x_label:"x" ~y_label:"y"
      [ { Ascii_plot.label = "nothing"; points = [] } ]
  in
  Alcotest.(check bool) "placeholder" true (contains out "(no data)")

let plot_single_point () =
  (* Degenerate spans must not divide by zero. *)
  let out =
    Ascii_plot.render ~title:"dot" ~x_label:"x" ~y_label:"y"
      [ { Ascii_plot.label = "p"; points = [ (5.0, 5.0) ] } ]
  in
  Alcotest.(check bool) "marker drawn" true (contains out "*")

let plot_too_small () =
  match
    Ascii_plot.render ~width:3 ~height:2 ~title:"t" ~x_label:"x" ~y_label:"y"
      []
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let plot_marker_cycle () =
  let series =
    List.init 10 (fun i ->
        { Ascii_plot.label = Printf.sprintf "s%d" i; points = [ (float_of_int i, 1.0) ] })
  in
  let out = Ascii_plot.render ~title:"many" ~x_label:"x" ~y_label:"y" series in
  (* 10 series with an 8-marker alphabet: markers cycle, legend lists all. *)
  Alcotest.(check bool) "legend has s9" true (contains out "s9")

(* --- Workload --- *)

let workload_paper_config () =
  let c = Workload.paper_config in
  Alcotest.(check int) "iterations" 100_000 c.Workload.iterations;
  Alcotest.(check int) "enq batch" 5 c.Workload.enqueue_batch;
  Alcotest.(check int) "deq batch" 5 c.Workload.dequeue_batch

let workload_scaled () =
  let c = Workload.scaled_config ~scale:0.01 in
  Alcotest.(check int) "scaled iterations" 1_000 c.Workload.iterations;
  let tiny = Workload.scaled_config ~scale:0.0 in
  Alcotest.(check int) "never below 1" 1 tiny.Workload.iterations

let workload_min_capacity () =
  let c = Workload.paper_config in
  let cap = Workload.min_capacity c ~threads:4 in
  Alcotest.(check bool) "covers in-flight items" true (cap >= 40);
  Alcotest.(check int) "power of two" 0 (cap land (cap - 1))

let workload_runs_to_completion () =
  let impl = Registry.find "lock-ring" in
  let q = impl.Registry.create ~capacity:64 in
  let cfg = { Workload.iterations = 200; enqueue_batch = 5; dequeue_batch = 5 } in
  let r = Workload.run_thread cfg ~thread:0 q in
  Alcotest.(check bool) "nonnegative time" true (r.Workload.seconds >= 0.0);
  Alcotest.(check int) "queue drained" 0 (q.Registry.length ());
  Alcotest.(check int) "no empty retries single-threaded" 0
    r.Workload.empty_retries

let workload_batched_matches_single_accounting () =
  let impl = Registry.find "lock-ring" in
  let q = impl.Registry.create ~capacity:64 in
  let cfg =
    { Workload.iterations = 200; enqueue_batch = 5; dequeue_batch = 5 }
  in
  Alcotest.(check int) "ledger = iterations * (eb + db)" 2_000
    (Workload.items_per_thread cfg);
  let batched = Workload.run_thread_batched cfg ~thread:0 q in
  Alcotest.(check int) "batched items pinned"
    (Workload.items_per_thread cfg)
    batched.Workload.items;
  Alcotest.(check int) "queue drained" 0 (q.Registry.length ());
  let single = Workload.run_thread cfg ~thread:0 q in
  Alcotest.(check int) "same ledger as single-op run" single.Workload.items
    batched.Workload.items

(* --- Runner --- *)

let runner_measures () =
  let impl = Registry.find "evequoz-cas" in
  let cfg =
    {
      Runner.threads = 3;
      runs = 2;
      workload = { Workload.iterations = 300; enqueue_batch = 5; dequeue_batch = 5 };
      capacity = None;
    }
  in
  let m = Runner.measure impl cfg in
  Alcotest.(check string) "name" "evequoz-cas" m.Runner.impl_name;
  Alcotest.(check int) "runs recorded" 2 (List.length m.Runner.per_run_seconds);
  Alcotest.(check bool) "positive time" true (m.Runner.summary.Stats.mean > 0.0)

let runner_batched_item_accounting () =
  let impl = Registry.find "evequoz-cas" in
  let cfg =
    {
      Runner.threads = 2;
      runs = 2;
      workload = { Workload.iterations = 50; enqueue_batch = 3; dequeue_batch = 3 };
      capacity = None;
    }
  in
  let m = Runner.measure ~batched:true impl cfg in
  Alcotest.(check int) "items = runs * threads * iterations * (eb + db)"
    (2 * 2 * 50 * (3 + 3))
    m.Runner.items

(* One timed batch call must account k histogram samples — totals count
   items, never calls — so batched and single-op latency totals stay
   comparable.  Single-threaded with ample capacity, the counts are
   exact. *)
let runner_batched_histogram_counts_items () =
  let impl = Registry.find "evequoz-cas" in
  let metrics = Nbq_obs.Metrics.create () in
  let iterations = 100 and eb = 4 and db = 4 in
  let cfg =
    {
      Runner.threads = 1;
      runs = 1;
      workload = { Workload.iterations; enqueue_batch = eb; dequeue_batch = db };
      capacity = None;
    }
  in
  let m = Runner.measure ~metrics ~batched:true impl cfg in
  match m.Runner.metrics with
  | None -> Alcotest.fail "expected a metrics snapshot"
  | Some s ->
      Alcotest.(check int) "enq histogram total = items enqueued"
        (iterations * eb)
        (Nbq_obs.Histogram.total s.Nbq_obs.Metrics.enq);
      Alcotest.(check int) "deq histogram total = items dequeued"
        (iterations * db)
        (Nbq_obs.Histogram.total s.Nbq_obs.Metrics.deq)

let runner_rejects_zero_threads () =
  let impl = Registry.find "evequoz-cas" in
  let cfg =
    {
      Runner.threads = 0;
      runs = 1;
      workload = Workload.scaled_config ~scale:0.001;
      capacity = None;
    }
  in
  match Runner.measure impl cfg with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let runner_all_concurrent_impls_smoke () =
  (* Every concurrent implementation completes a small multi-domain run. *)
  let cfg =
    {
      Runner.threads = 4;
      runs = 1;
      workload = { Workload.iterations = 100; enqueue_batch = 5; dequeue_batch = 5 };
      capacity = None;
    }
  in
  List.iter
    (fun impl ->
      let m = Runner.measure impl cfg in
      Alcotest.(check bool)
        (impl.Registry.name ^ " ran")
        true
        (m.Runner.summary.Stats.mean >= 0.0))
    Registry.concurrent

(* --- Words per operation ---

   Minor words per call of [op], averaged over [n] calls after as many
   warm-up calls (handles registered, segments recycled). *)
let words_per ?(n = 1_000) op =
  for _ = 1 to n do op () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do op () done;
  (Gc.minor_words () -. w0) /. float n

let plain_pair_words inst p =
  words_per (fun () ->
      ignore (inst.Registry.enqueue p : bool);
      ignore (inst.Registry.dequeue () : Registry.payload option))

(* An [enqueue_until] + [dequeue_until] pair on a queue that is neither
   full nor empty allocates what a plain pair does: the item's own blocks.
   The wait layer and the registry's until path add nothing, and neither
   does a "-blocking" row's plain pair (a zero-retry budget builds no
   backoff).  An empty plain [dequeue] allocates nothing. *)
let until_pair_words name () =
  let inst = (Registry.find name).Registry.create ~capacity:64 in
  let p = { Registry.tag = 1 } and deadline = Unix.gettimeofday () +. 60. in
  Alcotest.(check (float 0.01)) "words per empty dequeue" 0.
    (words_per (fun () ->
         ignore (inst.Registry.dequeue () : Registry.payload option)));
  ignore (inst.Registry.enqueue p : bool);
  let plain = plain_pair_words inst p
  and until =
    words_per (fun () ->
        ignore (inst.Registry.enqueue_until ~deadline p : bool);
        ignore (inst.Registry.dequeue_until ~deadline : Registry.payload option))
  in
  if Float.abs (until -. plain) > 0.5 then
    Alcotest.failf "%s: until pair %.2f words, plain pair %.2f" name until
      plain

(* A ring row's plain pair allocates the [Item] and the [Vacant] its two
   slot stores install and the returned [Some], 6 words: no box, no
   closure.  On the tag protocol (evequoz-cas) the reservation marker is
   the slot's own [Reserved] constructor, allocated once per
   registration.  A segment's take stores the immediate [Consumed] and
   its recycle the immediate [Empty], so evequoz-seg pays the [Item] and
   the [Some], 4 words, plus its chain's share.  Every segment shares the
   queue's tag registry and the hazard slot holds a sentinel, so a
   segment lap adds only the chain's own links, the successor [Next] and
   the pool's cons cell (5 words).  Over the 1000 measured pairs that is
   0.080 words a pair at 64-slot segments and 0.158 at handoff-burst's
   32-slot ones (which lap boundaries and recycling scans the window
   holds sets the exact figure). *)
let llsc_plain_pair_words ?(capacity = 64) name words () =
  let inst = (Registry.find name).Registry.create ~capacity in
  Alcotest.(check (float 0.)) "words per plain pair" words
    (plain_pair_words inst { Registry.tag = 1 })

(* A row without native batches runs its batches as loops of its singles:
   an empty [dequeue_batch] allocates nothing, and a 5+5 round allocates
   five plain pairs' blocks plus the result's five cons cells (3 words
   each), nothing per call. *)
let singles_batch_words name () =
  let inst = (Registry.find name).Registry.create ~capacity:64 in
  let p = { Registry.tag = 1 } in
  let items = Array.make 5 p in
  Alcotest.(check (float 0.01)) "words per empty dequeue_batch" 0.
    (words_per (fun () ->
         ignore (inst.Registry.dequeue_batch 5 : Registry.payload list)));
  let round =
    words_per (fun () ->
        ignore (inst.Registry.enqueue_batch items : int);
        ignore (inst.Registry.dequeue_batch 5 : Registry.payload list))
  in
  let pair = plain_pair_words inst p in
  Alcotest.(check int) "queue drained" 0 (inst.Registry.length ());
  if Float.abs (round -. ((5. *. pair) +. 15.)) > 0.5 then
    Alcotest.failf "%s: 5+5 round %.2f words, plain pair %.2f" name round pair

let () =
  Alcotest.run "harness"
    [
      ( "registry",
        [
          quick "unique names" registry_names_unique;
          quick "find roundtrip" registry_find_roundtrip;
          quick "find unknown" registry_find_unknown;
          quick "concurrent excludes sequential"
            registry_concurrent_excludes_sequential;
          quick "instances independent" registry_instances_independent;
          quick "expected members present" registry_expected_members;
        ] );
      ( "words",
        List.map
          (fun name ->
            quick (name ^ " until pair allocates as a plain pair")
              (until_pair_words name))
          [
            "evequoz-seg"; "evequoz-llsc"; "evequoz-cas-shard4"; "scq-blocking";
          ]
        @ List.map
            (fun (name, words) ->
              quick
                (Printf.sprintf "%s plain pair allocates %g words" name words)
                (llsc_plain_pair_words name words))
            [ ("evequoz-llsc", 6.); ("evequoz-cas", 6.); ("evequoz-seg", 4.080) ]
        @ [
            quick "evequoz-seg plain pair at 32-slot segments allocates 4.158 \
                   words"
              (llsc_plain_pair_words ~capacity:32 "evequoz-seg" 4.158);
          ]
        @ List.map
            (fun name ->
              quick (name ^ " batch of singles allocates its items only")
                (singles_batch_words name))
            [ "evequoz-llsc"; "evequoz-cas"; "evequoz-seg" ] );
      ( "stats",
        [
          quick "known values" stats_known_values;
          quick "single sample" stats_single_sample;
          quick "odd median" stats_odd_median;
          quick "percentiles" stats_percentiles;
          quick "empty raises" stats_empty_raises;
          quick "normalize" stats_normalize;
          QCheck_alcotest.to_alcotest qcheck_stats_invariants;
          QCheck_alcotest.to_alcotest qcheck_stats_shift;
        ] );
      ( "table",
        [
          quick "render" table_render;
          quick "csv quoting" table_csv;
          quick "cell count checked" table_cell_count_checked;
        ] );
      ( "ascii-plot",
        [
          quick "basic render" plot_basic;
          quick "no data" plot_no_data;
          quick "single point" plot_single_point;
          quick "too small" plot_too_small;
          quick "marker cycle" plot_marker_cycle;
        ] );
      ( "workload",
        [
          quick "paper config" workload_paper_config;
          quick "scaled config" workload_scaled;
          quick "min capacity" workload_min_capacity;
          quick "runs to completion" workload_runs_to_completion;
          quick "batched run matches single-op accounting"
            workload_batched_matches_single_accounting;
        ] );
      ( "runner",
        [
          slow "measures" runner_measures;
          slow "batched item accounting" runner_batched_item_accounting;
          slow "batch histograms count items"
            runner_batched_histogram_counts_items;
          quick "rejects zero threads" runner_rejects_zero_threads;
          slow "all concurrent impls smoke" runner_all_concurrent_impls_smoke;
        ] );
    ]
