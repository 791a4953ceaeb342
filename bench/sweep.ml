(* The bench driver's core: one declarative sweep spec, the five loops
   that measure it, and one shared output path (table, summary rows,
   metrics pass, trace pass, ratio gate, minor-heap re-exec).  The named
   presets live in [Presets]; bench/bench.ml is the command line. *)

open Nbq_harness
module Metrics = Nbq_obs.Metrics
module Recorder = Nbq_trace.Recorder

(* What a cell measures, built at run time from the workload's minimum
   capacity (ablation knobs build custom rows or size the ring from it). *)
type built = {
  impl : Registry.impl;
  capacity : int option;  (* None: the workload's minimum *)
  variant : string option;  (* overrides the preset's variant *)
  note : unit -> string;  (* knob counters, read after the cell *)
}

type cell = {
  label : string;  (* table column (or row) *)
  batched : bool;  (* closed loop through the batch entry points *)
  batch : int;  (* items per batch operation; the paper's 5 *)
  make : int -> built;
}

let of_impl ?capacity ?variant impl =
  { impl; capacity; variant; note = (fun () -> "") }

let cell ?(batched = false) ?(batch = 5) label make =
  { label; batched; batch; make }

let named ?batched queue =
  cell ?batched queue (fun _ -> of_impl (Registry.find queue))

type opts = {
  runs : int option;
  scale : float option;
  max_threads : int option;
  queues : string list;  (* [] keeps the preset's cells *)
  domains : int list;  (* [] keeps the preset's domains *)
  csv : bool;
  plot : bool;
  metrics : bool;
  trace : bool;
}

let default_opts =
  { runs = None; scale = None; max_threads = None; queues = []; domains = [];
    csv = false; plot = false; metrics = false; trace = false }

type arm = Probes | Recorder
type mode = Spin | Park

type loop =
  | Closed of arm option
      (* [Runner.measure] over cells x domains; [Some arm] runs the plain
         vs armed ratio gate instead (bound 1.10) *)
  | Burst  (* burst lockstep + steady pair blocks, fixed vs segmented *)
  | Handoff of mode list * int
      (* producer/consumer cells per mode; the per-domain op floor *)
  | Latency  (* full-capture per-op latency *)
  | Space  (* space-adaptivity counts and scan cost *)

type t = {
  name : string;
  title : string;
  bench : string;  (* Bench_summary bench; "" writes no rows *)
  variant : string;
  cells : cell list;
  domains : int list;
  loop : loop;
  runs : int;
  scale : float;
  base : string option;  (* the cell label ratio columns divide by *)
  metered : bool;  (* always run the closed loop with the metrics hub *)
  big_heap : bool;  (* needs the 8M-word minor heap *)
}

let preset ?(bench = "") ?(variant = "") ?(domains = [ 1; 2; 4; 8 ])
    ?(loop = Closed None) ?(runs = 3) ?(scale = 0.02) ?base
    ?(metered = false) ?(big_heap = false) name title cells =
  { name; title; bench; variant; cells; domains; loop; runs; scale; base;
    metered; big_heap }

(* The command-line overrides, then the domain clamp; a sweep clamped to
   nothing runs at the clamp itself, and replacement queues without the
   base cell drop the ratio columns. *)
let apply (o : opts) (p : t) =
  let domains = if o.domains = [] then p.domains else o.domains in
  let domains =
    match o.max_threads with
    | None -> domains
    | Some m -> (
        match List.filter (fun d -> d <= m) domains with
        | [] -> [ m ]
        | ds -> ds)
  in
  let cells = if o.queues = [] then p.cells else List.map named o.queues in
  let has label = List.exists (fun c -> c.label = label) cells in
  { p with
    domains;
    cells;
    base = Option.bind p.base (fun b -> if has b then Some b else None);
    runs = Option.value o.runs ~default:p.runs;
    scale = Option.value o.scale ~default:p.scale }

let say fmt = Printf.eprintf (fmt ^^ "\n%!")
let prefix p = if p.bench = "" then p.name else p.bench
let iterations p = (Workload.scaled_config ~scale:p.scale).Workload.iterations

let emit (o : opts) t =
  print_string (if o.csv then Table.render_csv t else Table.render t);
  if not o.csv then print_newline ()

let row p ~variant ~queue ~domains ~items ~seconds =
  { Bench_summary.bench = p.bench; queue; variant; domains; runs = 1; items;
    mitems_per_s = float_of_int items /. seconds /. 1e6;
    p50_ns = nan; p99_ns = nan; p999_ns = nan }

(* Pin the per-domain minor heap to 8M words so oversubscribed sweeps
   measure the queues rather than the stop-the-world minor-GC rendezvous.
   The runtime reserves the arena at startup (a late [Gc.set] does not
   grow it), so a too-small reservation re-execs the process once with
   OCAMLRUNPARAM extended. *)
let ensure_big_heap () =
  let words = 8_388_608 in
  if (Gc.get ()).Gc.minor_heap_size < words then begin
    let param = Printf.sprintf "s=%d" words in
    Unix.putenv "OCAMLRUNPARAM"
      (match Sys.getenv_opt "OCAMLRUNPARAM" with
      | None | Some "" -> param
      | Some cur -> cur ^ "," ^ param);
    Unix.execv Sys.executable_name Sys.argv
  end

(* The interleaved-block ratio gate: [blocks] pairs of [measure false]
   (the base) and [measure true] (the variant), alternating which runs
   first, each block giving variant/base cost.  The verdict is the median
   block ratio, so a minority of unlucky (or lucky) blocks cannot drive
   it. *)
let ratio_gate ~label ~bound ~blocks measure =
  let ratios =
    List.init blocks (fun i ->
        let x = measure (i mod 2 = 1) in
        let y = measure (i mod 2 = 0) in
        if i mod 2 = 0 then y /. x else x /. y)
  in
  let median = (Stats.summarize ratios).Stats.median in
  let ok = Float.is_finite median && median <= bound in
  say "%s\n  block ratios: %s\n  median ratio: %.3fx [bound %.2fx]  %s" label
    (String.concat " " (List.map (Printf.sprintf "%.3f") ratios))
    median bound
    (if ok then "PASS" else "FAIL");
  ok

let verdicts label checks =
  List.iter
    (fun (what, ok) -> say "  %-58s %s" what (if ok then "ok" else "FAIL"))
    checks;
  let ok = List.for_all snd checks in
  say "%s: %s" label (if ok then "OK" else "FAIL");
  ok

(* --- closed loop ------------------------------------------------------ *)

let measure ?metrics ?tracer p c threads =
  let workload =
    { (Workload.scaled_config ~scale:p.scale) with
      Workload.enqueue_batch = c.batch;
      dequeue_batch = c.batch }
  in
  let b = c.make (Workload.min_capacity workload ~threads) in
  let cfg =
    { Runner.threads; runs = p.runs; workload; capacity = b.capacity }
  in
  (b, Runner.measure ?metrics ?tracer ~batched:c.batched b.impl cfg)

let mean (_, (_, m)) = m.Runner.summary.Stats.mean

(* Each cell's mean over the base cell's mean at the same domain count. *)
let ratio p cells =
  match p.base with
  | None -> fun _ -> None
  | Some b -> (
      match List.find_opt (fun (c, _) -> c.label = b) cells with
      | None -> invalid_arg ("base not among the cells: " ^ b)
      | Some base -> fun x -> Some (mean x /. mean base))

(* One domain count: a row per cell, with its ratio to the base and its
   knob note.  Otherwise a row per domain count and a column per cell,
   plus one ratio column per non-base cell. *)
let closed_table p grid =
  let title =
    Printf.sprintf "%s  [%d iterations/thread, mean of %d runs, seconds]"
      p.title (iterations p) p.runs
  in
  let f = Table.cell_float in
  let base_col = Option.to_list (Option.map (( ^ ) "/") p.base) in
  match grid with
  | [ (d, cells) ] ->
      let ratio = ratio p cells in
      let notes = List.map (fun (_, ((b : built), _)) -> b.note ()) cells in
      let notes_col =
        if List.for_all (( = ) "") notes then [] else [ "notes" ]
      in
      let t =
        Table.create ~title:(Printf.sprintf "%s, %d domains" title d)
          ~columns:(("cell" :: "seconds" :: base_col) @ notes_col)
      in
      List.iter2
        (fun ((c, _) as x) note ->
          Table.add_row t
            ((c.label :: f (mean x) :: Option.to_list (Option.map f (ratio x)))
            @ List.map (fun _ -> note) notes_col))
        cells notes;
      t
  | _ ->
      let others =
        List.filter (fun c -> Some c.label <> p.base) p.cells
      in
      let t =
        Table.create ~title
          ~columns:
            (("domains" :: List.map (fun c -> c.label) p.cells)
            @ List.concat_map (fun c -> List.map (( ^ ) c.label) base_col)
                others)
      in
      List.iter
        (fun (d, cells) ->
          let ratio = ratio p cells in
          Table.add_row t
            ((string_of_int d :: List.map (fun x -> f (mean x)) cells)
            @ List.filter_map
                (fun ((c, _) as x) ->
                  if Some c.label = p.base then None
                  else Option.map f (ratio x))
                cells))
        grid;
      t

let plot p grid =
  let curve i (c : cell) =
    let point (d, cells) =
      let x = List.nth cells i in
      (float_of_int d, Option.value (ratio p cells x) ~default:(mean x))
    in
    { Ascii_plot.label = c.label; points = List.map point grid }
  in
  print_string
    (Ascii_plot.render ~title:p.title ~x_label:"domains"
       ~y_label:(Option.fold ~none:"seconds" ~some:(( ^ ) "time / ") p.base)
       (List.mapi curve p.cells));
  print_newline ()

(* The metrics pass: event counts per thousand items and the p99 enqueue
   latency per cell, and one JSON line per cell in
   results/metrics-<bench>-*.jsonl. *)
let metrics_report o p grid rows =
  let open Nbq_obs in
  let sink = Sink.open_jsonl (Sink.default_path ~prefix:(prefix p) ()) in
  let t =
    Table.create ~title:(p.title ^ ": contention events")
      ~columns:
        [ "cell"; "domains"; "Mitems/s"; "sc-fail/kop"; "rereg/kop";
          "helps/kop"; "steals/kop"; "p99-enq-ns" ]
  in
  List.iter2
    (fun (c, (_, m)) (r : Bench_summary.row) ->
      let s = Option.value ~default:Metrics.empty_snapshot m.Runner.metrics in
      let per_kop evs =
        let n = List.fold_left (fun n e -> n + Metrics.get s e) 0 evs in
        1000.0 *. float_of_int n /. float_of_int (max 1 m.Runner.items)
      in
      Table.add_row t
        (c.label :: string_of_int r.domains
        :: List.map Table.cell_float
             [ r.mitems_per_s; per_kop [ Event.Sc_fail ];
               per_kop [ Event.Tag_reregister ];
               per_kop [ Event.Tail_help; Event.Head_help ];
               per_kop [ Event.Shard_steal ];
               Histogram.percentile_ns s.Metrics.enq 0.99 ]);
      Sink.write_snapshot sink
        ~meta:
          [ ("queue", Sink.String r.queue); ("threads", Sink.Int r.domains);
            ("variant", Sink.String r.variant); ("runs", Sink.Int r.runs);
            ("iterations", Sink.Int (iterations p));
            ("mean_seconds", Sink.Float m.Runner.summary.Stats.mean);
            ("mops", Sink.Float r.mitems_per_s) ]
        s)
    (List.concat_map snd grid) rows;
  emit o t;
  Option.iter (say "metrics written to %s") (Sink.path sink);
  Sink.close sink

let closed o p =
  let metered = p.metered || o.metrics in
  let grid =
    List.map
      (fun d ->
        ( d,
          List.map
            (fun c ->
              say "# %s: %s @ %d domains" p.name c.label d;
              let metrics =
                if metered then Some (Metrics.create ()) else None
              in
              (c, measure ?metrics p c d))
            p.cells ))
      p.domains
  in
  let rows =
    List.concat_map
      (fun (_, cells) ->
        List.map
          (fun (_, ((b : built), m)) ->
            Bench_summary.row_of_measurement ~bench:p.bench
              ~variant:(Option.value b.variant ~default:p.variant) m)
          cells)
      grid
  in
  emit o (closed_table p grid);
  if o.plot && List.length grid > 1 then plot p grid;
  if metered then metrics_report o p grid rows;
  (rows, true)

(* Plain vs armed (metrics hub, or flight recorder sampling 1/64 spans)
   on one queue at one domain count.  Each side's cost is its best run:
   scheduler noise only ever slows a run down. *)
let overhead_gate p arm =
  let c = List.hd p.cells and d = List.hd p.domains in
  let cost armed =
    let metrics =
      if armed && arm = Probes then Some (Metrics.create ()) else None
    and tracer =
      if armed && arm = Recorder then Some (Recorder.create ~sample:64 ())
      else None
    in
    Option.iter Recorder.arm tracer;
    let _, m = measure ?metrics ?tracer p c d in
    Option.iter Recorder.disarm tracer;
    m.Runner.summary.Stats.min
  in
  let label =
    Printf.sprintf "%s: %s @ %d domains, %d runs x 10 blocks, %d \
                    iterations/thread"
      p.title c.label d p.runs (iterations p)
  in
  ([], ratio_gate ~label ~bound:1.10 ~blocks:10 cost)

(* Re-run each cell at the largest domain count with the flight recorder
   armed and write results/trace-<bench>-<queue>.json (Chrome trace-event
   JSON, one Perfetto track per domain); an export that fails its own
   validation fails the run. *)
let trace_pass p =
  let d = List.fold_left max 1 p.domains and prefix = prefix p in
  List.for_all
    (fun c ->
      let tracer = Recorder.create () in
      Recorder.arm tracer;
      let b, _ = measure ~tracer p c d in
      Recorder.disarm tracer;
      let name = b.impl.Registry.name in
      let path = Printf.sprintf "results/trace-%s-%s.json" prefix name in
      let open Nbq_trace.Export in
      write_chrome ~process_name:(prefix ^ ":" ^ name) ~path tracer;
      match validate_chrome_file path with
      | Ok s ->
          say "trace written to %s (%d domain tracks, %d spans, %d instants)"
            path s.tracks s.spans s.instants;
          true
      | Error e ->
          say "trace validation failed: %s" e;
          false)
    p.cells

(* --- handoff: producer/consumer cells, spinning or parked -------------- *)

(* A match, not [<> None]: polymorphic compare is a C call per item. *)
let got = function Some _ -> true | None -> false

let drain (q : Registry.instance) =
  let n = ref 0 in
  while got (q.dequeue ()) do incr n done;
  !n

(* Parked attempts carry a 50 ms deadline: long enough that a blocked
   worker really parks, short enough that the stop flag is honoured
   promptly.  Consumers keep draining until the stop flag meets an empty
   queue. *)
let worker ~produce ~mode ~stop (q : Registry.instance) () =
  let item = { Registry.tag = 1 } and n = ref 0 and running = ref true in
  let deadline () = Unix.gettimeofday () +. 0.05 in
  while !running do
    let ok =
      match (mode, produce) with
      | Park, true -> q.enqueue_until ~deadline:(deadline ()) item
      | Park, false -> got (q.dequeue_until ~deadline:(deadline ()))
      | Spin, true -> q.enqueue item
      | Spin, false -> got (q.dequeue ())
    in
    if ok then incr n
    else if Atomic.get stop then running := false
    else if mode = Spin then Domain.cpu_relax ();
    if produce && Atomic.get stop then running := false
  done;
  !n

(* [domains / 2] producers and the rest consumers for [seconds] on a
   capacity-64 queue (a single domain alternates the roles).  Returns the
   items produced and consumed, the drained leftover, the slowest
   worker's operation count and the elapsed time. *)
let handoff_cell (impl : Registry.impl) ~domains ~mode ~seconds =
  let q = impl.create ~capacity:64 in
  let t0 = Unix.gettimeofday () in
  let per =
    if domains < 2 then begin
      let p = ref 0 and c = ref 0 and item = { Registry.tag = 1 } in
      while Unix.gettimeofday () < t0 +. seconds do
        if q.enqueue item then incr p;
        if got (q.dequeue ()) then incr c
      done;
      [ (true, !p); (false, !c) ]
    end
    else begin
      let stop = Atomic.make false in
      let spawn i =
        let produce = i < domains / 2 in
        (produce, Domain.spawn (worker ~produce ~mode ~stop q))
      in
      let ds = List.init domains spawn in
      Unix.sleepf seconds;
      Atomic.set stop true;
      List.map (fun (p, d) -> (p, Domain.join d)) ds
    end
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let sum p = List.fold_left (fun n (p', k) -> if p = p' then n + k else n) 0 in
  let slowest = List.fold_left (fun m (_, k) -> min m k) max_int per in
  (sum true per, sum false per, drain q, slowest, elapsed)

(* Cells last 100 x scale seconds (2 s at the default scale).  All spin
   cells run before the first park cell: the first real park starts the
   wait layer's ticker domain for the rest of the process, and its
   wakeups would preempt later spinners. *)
let handoff o p modes min_ops =
  let seconds = 100.0 *. p.scale in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%s  [%.1f s per cell, capacity 64]" p.title seconds)
      ~columns:
        [ "queue"; "domains"; "mode"; "produced"; "consumed"; "Mitems/s";
          "min-domain-ops"; "conserved" ]
  in
  let cell mode c domains =
    let impl = (c.make 64).impl in
    let variant = if mode = Spin then "spin" else "park" in
    say "# %s: %s @ %d domains, %s" p.name c.label domains variant;
    let pr, co, left, slowest, seconds =
      handoff_cell impl ~domains ~mode ~seconds
    in
    let r = row p ~variant ~queue:impl.name ~domains ~items:co ~seconds in
    Table.add_row t
      [ impl.name; string_of_int domains; variant; string_of_int pr;
        string_of_int co; Printf.sprintf "%.4f" r.mitems_per_s;
        string_of_int slowest; (if pr = co + left then "yes" else "NO") ];
    (r, pr = co + left, slowest >= min_ops)
  in
  let results =
    List.concat_map
      (fun mode ->
        List.concat_map (fun c -> List.map (cell mode c) p.domains) p.cells)
      modes
  in
  emit o t;
  let ok =
    verdicts p.title
      [ ("item conservation in every cell",
         List.for_all (fun (_, c, _) -> c) results);
        (Printf.sprintf "every domain completes >= %d operations" min_ops,
         List.for_all (fun (_, _, g) -> g) results) ]
  in
  (List.map (fun (r, _, _) -> r) results, ok)

(* --- burst: lockstep burst absorption + steady cost ------------------- *)

let capacity = 64 and mult = 10 and bursts = 3

(* Each tick offers [mult] items through [enqueue_until] with an expired
   deadline (one attempt, never a park, so a full ring sheds the item)
   and drains one; after [capacity] ticks the producer stops and the
   consumer drains at the same rate until empty.  Offered load integrates
   to the drain rate but arrives [mult]x compressed.  Returns offered,
   delivered, consumed, the longest queue seen and the elapsed time. *)
let run_burst (impl : Registry.impl) =
  let q = impl.create ~capacity in
  let expired = Unix.gettimeofday () -. 1.0 in
  let offered = ref 0 and delivered = ref 0 and consumed = ref 0 in
  let max_len = ref 0 and t0 = Unix.gettimeofday () in
  let consume () = if got (q.dequeue ()) then incr consumed in
  for _ = 1 to bursts do
    for tick = 1 to capacity do
      for _ = 1 to mult do
        incr offered;
        if q.enqueue_until ~deadline:expired { Registry.tag = tick } then
          incr delivered
      done;
      max_len := max !max_len (q.length ());
      consume ()
    done;
    (* The backlog is at most [capacity * (mult - 1)]: the bound only
       trips if the queue miscounts (and conservation then fails). *)
    let gap = ref 0 in
    while q.length () > 0 && !gap <= capacity * mult * 2 do
      incr gap;
      consume ()
    done
  done;
  (!offered, !delivered, !consumed, !max_len, Unix.gettimeofday () -. t0)

(* Enqueue/dequeue pairs on one domain for [seconds]: the sustainable
   regime, the queue near empty, the chain in one segment.  The clock is
   read once per 10 000 pairs. *)
let run_steady (impl : Registry.impl) seconds =
  let q = impl.create ~capacity in
  let item = { Registry.tag = 1 } and produced = ref 0 and consumed = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () < t0 +. seconds do
    for _ = 1 to 10_000 do
      if q.enqueue item then incr produced;
      if got (q.dequeue ()) then incr consumed
    done
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (!consumed, elapsed, !produced = !consumed + drain q)

let burst o p =
  let fixed, seg =
    match List.map (fun c -> (c.make capacity).impl) p.cells with
    | [ f; s ] -> (f, s)
    | _ -> invalid_arg "burst: needs a fixed and a segmented queue"
  in
  let absorbed = List.map (fun i -> (i, run_burst i)) [ fixed; seg ] in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%s  [capacity %d, %dx bursts x%d]" p.title capacity
           mult bursts)
      ~columns:
        [ "queue"; "offered"; "delivered"; "shed"; "consumed"; "max_len";
          "seconds" ]
  in
  List.iter
    (fun ((i : Registry.impl), (off, del, con, len, s)) ->
      Table.add_row t
        ((i.name :: List.map string_of_int [ off; del; off - del; con; len ])
        @ [ Printf.sprintf "%.4f" s ]))
    absorbed;
  emit o t;
  (* Steady cost: segmented per-item cost over fixed, the median of 10
     interleaved blocks of 0.2 s; each queue's blocks also sum into its
     steady row and conservation verdict. *)
  let steady = Hashtbl.create 2 in
  let cost use_seg =
    let impl = if use_seg then seg else fixed in
    let n, s, ok = run_steady impl 0.2 in
    let n0, s0, ok0 =
      Option.value (Hashtbl.find_opt steady impl.name) ~default:(0, 0.0, true)
    in
    Hashtbl.replace steady impl.name (n0 + n, s0 +. s, ok0 && ok);
    s /. float_of_int n
  in
  let ratio_ok =
    ratio_gate ~bound:1.25 ~blocks:10 cost
      ~label:
        (Printf.sprintf "steady cost %s / %s, 10 x 0.2 s blocks" seg.name
           fixed.name)
  in
  let shed i = let off, del, _, _, _ = List.assq i absorbed in off - del in
  let burst_ok i = let _, del, con, _, _ = List.assq i absorbed in del = con in
  let steady_ok (i : Registry.impl) =
    let _, _, ok = Hashtbl.find steady i.name in ok
  in
  let ok =
    verdicts p.title
      [ (Printf.sprintf "fixed ring sheds under a %dx burst (%d shed)" mult
           (shed fixed), shed fixed > 0);
        (Printf.sprintf "segmented absorbs the whole burst (%d shed)"
           (shed seg), shed seg = 0);
        ("burst conservation (fixed)", burst_ok fixed);
        ("burst conservation (segmented)", burst_ok seg);
        ("steady conservation (fixed)", steady_ok fixed);
        ("steady conservation (segmented)", steady_ok seg);
        ("steady cost ratio <= 1.25", ratio_ok) ]
  in
  let rows (i : Registry.impl) =
    let _, del, _, _, bs = List.assq i absorbed
    and n, s, _ = Hashtbl.find steady i.name in
    [ row p ~variant:"burst" ~queue:i.name ~domains:1 ~items:del ~seconds:bs;
      row p ~variant:"steady" ~queue:i.name ~domains:1 ~items:n ~seconds:s ]
  in
  (List.concat_map rows [ fixed; seg ], ok)

(* --- latency: full capture -------------------------------------------- *)

(* Every domain times each of its operations (an enqueue and a dequeue
   per round, spinning on full/empty): ten operations per paper iteration
   per domain, so the load follows [scale]. *)
let latency_cell (impl : Registry.impl) ~threads ~ops =
  let q = impl.create ~capacity:(max 64 (threads * 16)) in
  let barrier = Nbq_primitives.Barrier.create ~parties:threads in
  let recs = List.init threads (fun _ -> Latency.recorder ~capacity:ops) in
  let t0 = Unix.gettimeofday () in
  let work w r () =
    Nbq_primitives.Barrier.await barrier;
    for i = 1 to ops / 2 do
      Latency.time r (fun () ->
          while not (q.enqueue { Registry.tag = (w lsl 40) lor i }) do
            Domain.cpu_relax ()
          done);
      Latency.time r (fun () ->
          while not (got (q.dequeue ())) do Domain.cpu_relax () done)
    done
  in
  List.iter Domain.join (List.mapi (fun w r -> Domain.spawn (work w r)) recs);
  (Latency.summarize recs, Unix.gettimeofday () -. t0)

let latency o p =
  let ops = 10 * iterations p in
  let us x = Printf.sprintf "%.2f" (x *. 1e6) in
  let t =
    Table.create
      ~title:(Printf.sprintf "%s  [%d ops/domain, microseconds]" p.title ops)
      ~columns:[ "queue"; "domains"; "mean"; "p50"; "p99"; "p99.9"; "max" ]
  in
  let cell threads c =
    let impl = (c.make 64).impl in
    say "# %s: %s @ %d domains" p.name c.label threads;
    let (s : Latency.summary), seconds = latency_cell impl ~threads ~ops in
    Table.add_row t
      [ impl.name; string_of_int threads; us s.mean; us s.p50; us s.p99;
        us s.p999; us s.max ];
    { (row p ~variant:p.variant ~queue:impl.name ~domains:threads
         ~items:(threads * (ops / 2) * 2) ~seconds)
      with
      p50_ns = s.p50 *. 1e9;
      p99_ns = s.p99 *. 1e9;
      p999_ns = s.p999 *. 1e9 }
  in
  let rows =
    List.concat_map (fun d -> List.map (cell d) p.cells) p.domains
  in
  emit o t;
  (rows, true)

(* --- space: adaptivity counts and Herlihy-Wing scan cost -------------- *)

module Q2 = Nbq_core.Evequoz_cas
module Hw = Nbq_baselines.Herlihy_wing
module Mshp = Nbq_baselines.Ms_hazard
module Lms = Nbq_baselines.Ladan_mozes_shavit

(* [threads] domains, released together, each running [ops] pairs and
   then [finish]. *)
let wave ?(finish = ignore) threads ops enq deq =
  let barrier = Nbq_primitives.Barrier.create ~parties:threads in
  List.init threads (fun _ ->
      Domain.spawn (fun () ->
          Nbq_primitives.Barrier.await barrier;
          for i = 1 to ops do enq i; ignore (deq ()) done;
          finish ()))
  |> List.iter Domain.join

let pair_us n enq deq =
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do enq i; ignore (deq ()) done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n

(* After 5 000 pairs per domain the auxiliary structures must track the
   domain count, not the operation count (paper §1/§4); Herlihy-Wing's
   dequeue cost grows with completed enqueues while the circular array's
   stays flat (§2). *)
let space o p =
  let ops = 5_000 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%s: auxiliary structures after %d ops/domain \
                         (bounds track domains, not ops)" p.title ops)
      ~columns:
        [ "domains"; "evequoz-cas tagvars"; "ms-hp records"; "ms-hp nodes";
          "lms fixups" ]
  in
  List.iter
    (fun threads ->
      let q2 = Q2.create ~capacity:(max 16 (threads * 4)) in
      wave threads ops
        ~finish:(fun () -> Q2.deregister_domain q2)
        (fun i -> ignore (Q2.try_enqueue q2 i))
        (fun () -> Q2.try_dequeue q2);
      let hp = Mshp.create () and lms = Lms.create () in
      wave threads ops (Mshp.enqueue hp) (fun () -> Mshp.try_dequeue hp);
      wave threads ops (Lms.enqueue lms) (fun () -> Lms.try_dequeue lms);
      Table.add_row t
        (List.map string_of_int
           [ threads; Q2.registry_size q2;
             Nbq_reclaim.Hazard_pointer.participants (Mshp.hp_manager hp);
             Nbq_baselines.Ms_node.allocated (Mshp.allocator hp);
             Lms.fix_list_runs lms ]))
    p.domains;
  emit o t;
  let t =
    Table.create
      ~title:"Herlihy-Wing dequeue cost vs completed enqueues (paper §2)"
      ~columns:
        [ "completed enqueues"; "hw us/op-pair"; "evequoz-cas us/op-pair" ]
  in
  List.iter
    (fun history ->
      let hw = Hw.create () and q2 = Q2.create ~capacity:16 in
      let hw_deq () = Hw.try_dequeue hw and q2_deq () = Q2.try_dequeue q2 in
      let q2_enq i = ignore (Q2.try_enqueue q2 i) in
      ignore (pair_us history (Hw.enqueue hw) hw_deq);
      ignore (pair_us history q2_enq q2_deq);
      Table.add_row t
        [ string_of_int history;
          Printf.sprintf "%.3f" (pair_us 2_000 (Hw.enqueue hw) hw_deq);
          Printf.sprintf "%.3f" (pair_us 2_000 q2_enq q2_deq) ])
    [ 0; 1_000; 4_000; 16_000; 64_000 ];
  emit o t;
  ([], true)

(* --- entry ------------------------------------------------------------- *)

(* Run one preset under the command-line overrides; returns its summary
   rows (the caller writes them) and whether every check passed. *)
let run o p =
  let p = apply o p in
  let rows, ok =
    match p.loop with
    | Closed None -> closed o p
    | Closed (Some arm) -> overhead_gate p arm
    | Burst -> burst o p
    | Handoff (modes, min_ops) -> handoff o p modes min_ops
    | Latency -> latency o p
    | Space -> space o p
  in
  ((if p.bench = "" then [] else rows), ok && ((not o.trace) || trace_pass p))
