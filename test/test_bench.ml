(* The bench driver's presets and shared gate: every queue a preset names
   resolves, the fig6 preset emits the committed row keys, and the ratio
   gate follows the median block. *)

open Nbq_harness
open Nbq_bench

(* Building a cell resolves its queue: named cells through
   [Registry.find] (which raises on an unknown name), knob cells through
   the registry rows or constructors they wrap. *)
let test_presets_resolve () =
  List.iter
    (fun (p : Sweep.t) ->
      List.iter
        (fun (c : Sweep.cell) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s resolves" p.name c.label)
            true
            ((c.make 16).impl.Registry.name <> ""))
        p.cells)
    Presets.all

let test_fig6_smoke () =
  let p = Option.get (Presets.find "fig6-a") in
  let o =
    { Sweep.default_opts with
      runs = Some 1; scale = Some 0.0005; max_threads = Some 2 }
  in
  let rows, ok = Sweep.run o p in
  Alcotest.(check bool) "checks pass" true ok;
  List.iter
    (fun d ->
      let at =
        List.filter (fun (r : Bench_summary.row) -> r.domains = d) rows
      in
      Alcotest.(check int)
        (Printf.sprintf "rows at %d domains" d)
        5 (List.length at))
    [ 1; 2 ];
  List.iter
    (fun (r : Bench_summary.row) ->
      Alcotest.(check string) "bench" "fig6" r.bench;
      Alcotest.(check string) "variant" "llsc-suite" r.variant;
      Alcotest.(check bool)
        (Printf.sprintf "%s throughput finite and positive" r.queue)
        true
        (Float.is_finite r.mitems_per_s && r.mitems_per_s > 0.0))
    rows

(* Canned costs: the base always costs 1, the variant's k-th call costs
   the k-th entry, whichever side of its block runs first. *)
let gate variant_costs =
  let k = ref 0 in
  Sweep.ratio_gate ~label:"canned" ~bound:1.10
    ~blocks:(List.length variant_costs)
    (fun armed ->
      if armed then begin
        incr k;
        List.nth variant_costs (!k - 1)
      end
      else 1.0)

let test_ratio_gate_median () =
  let ok, median = gate [ 1.0; 1.0; 1.5; 1.5; 1.5 ] in
  Alcotest.(check bool) "median over the bound fails, 2 blocks passing" false
    ok;
  Alcotest.(check (float 1e-9)) "the median it returns" 1.5 median;
  Alcotest.(check bool) "median under the bound passes, 2 blocks failing" true
    (fst (gate [ 1.5; 1.5; 1.0; 1.0; 1.0 ]))

let () =
  Alcotest.run "bench"
    [
      ( "bench-presets",
        [
          Alcotest.test_case "every preset queue resolves" `Quick
            test_presets_resolve;
          Alcotest.test_case "fig6 llsc-suite smoke rows" `Quick
            test_fig6_smoke;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "ratio gate follows the median" `Quick
            test_ratio_gate_median;
        ] );
    ]
