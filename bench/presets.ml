(* Every benchmark the repository runs, as a value over one sweep spec
   ([Sweep.t]).  The [bench]/[variant] strings are the Bench_summary row
   keys the committed trajectory (results/bench_summary.json) is built
   from. *)

open Nbq_harness
open Sweep

let names = List.map (fun q -> named q)

(* Series orders follow the paper's legends: (a)/(c) the PowerPC (LL/SC)
   suite, (b)/(d) the AMD (CAS) suite with Shann in place of the LL/SC
   queue; (c)/(d) divide by the CAS-based array queue. *)
let suite_a =
  names
    [ "ms-doherty"; "evequoz-cas"; "ms-hp-unsorted"; "ms-hp-sorted";
      "evequoz-llsc" ]

let suite_b =
  names
    [ "ms-doherty"; "ms-hp-unsorted"; "ms-hp-sorted"; "evequoz-cas"; "shann" ]

let threads_a = [ 1; 2; 4; 8; 12; 16; 20; 24; 28; 32 ]
let threads_b = [ 1; 4; 8; 12; 16; 20; 24; 28; 32; 40; 48; 56; 64 ]

let fig6 ?base fig variant title domains cells =
  preset ("fig6-" ^ fig)
    (Printf.sprintf "Figure 6(%s): %s" fig title)
    ~bench:"fig6" ~variant ~domains ?base cells

(* Ablation knobs: each cell sets one knob, builds a custom row, or sizes
   the ring from the workload's minimum capacity. *)
let weak rate =
  let label = Printf.sprintf "rate=%.2f" rate in
  cell label (fun _ ->
      Atomic.set Nbq_core.Evequoz_llsc.On_weak_cells.failure_rate rate;
      of_impl ~variant:("weak-llsc:" ^ label)
        (Registry.find "evequoz-llsc-weak"))

(* A link-based queue built with one knob value; its note reads the
   reclamation counters of the instance the cell last created. *)
let custom name create (enqueue, dequeue, length) note =
  cell name (fun _ ->
      let last = ref None in
      let impl =
        Registry.custom ~name ~family:Registry.Link_based (fun ~capacity:_ ->
            let q = create () in
            last := Some q;
            Registry.basic_instance
              ~enqueue:(fun p -> enqueue q p; true)
              ~dequeue:(fun () -> dequeue q)
              ~length:(fun () -> length q)
              ())
      in
      { (of_impl impl) with
        note = (fun () -> Option.fold ~none:"" ~some:note !last) })

let hp factor =
  let open Nbq_baselines.Ms_hazard in
  custom (Printf.sprintf "ms-hp-f%d" factor)
    (fun () -> create ~retire_factor:factor ())
    (enqueue, try_dequeue, length)
    (fun q ->
      let m = hp_manager q in
      Printf.sprintf "scans=%d freed=%d"
        (Nbq_reclaim.Hazard_pointer.total_scans m)
        (Nbq_reclaim.Hazard_pointer.total_freed m))

let ring_capacity mult =
  cell (Printf.sprintf "min*%d" mult) (fun min ->
      let cap = min * mult in
      of_impl (Registry.find "evequoz-cas") ~capacity:cap
        ~variant:(Printf.sprintf "capacity:cap=%d" cap))

(* The ring's amortized batch runs (one ReRegister and one counter CAS per
   run) behind the runner's batched demand loop. *)
let cas_batched =
  let module C =
    Nbq_core.Queue_intf.Make
      (Nbq_core.Queue_intf.Capability.Bounded_batch
         (Nbq_core.Evequoz_cas.Batched))
  in
  cell "cas-batched" ~batched:true (fun _ ->
      of_impl
        (Registry.of_conc ~name:"evequoz-cas-batched"
           ~family:Registry.Array_based (module C)))

let shard_cell shards batch batched =
  let label =
    Printf.sprintf "shards=%d,batch=%d,%s" shards batch
      (if batched then "batched" else "single")
  in
  cell label ~batch ~batched (fun _ ->
      of_impl ~variant:label
        (if shards = 1 then Registry.find "evequoz-cas"
         else Registry.sharded_evequoz_cas ~shards))

let ablation ?(domains = [ 8 ]) ?base knob title cells =
  preset ("ablation-" ^ knob) ("Ablation: " ^ title) ~bench:"ablation"
    ~variant:knob ~domains ?base cells

let cores = Domain.recommended_domain_count ()
let ring_vs_scq = names [ "evequoz-cas"; "scq" ]
let fixed_vs_segmented = names [ "evequoz-cas"; "evequoz-seg" ]

let all =
  [
    fig6 "a" "llsc-suite" "actual time, LL/SC suite" threads_a suite_a;
    fig6 "b" "cas-suite" "actual time, CAS suite" threads_b suite_b;
    fig6 "c" "llsc-suite" "normalized time, LL/SC suite" threads_a suite_a
      ~base:"evequoz-cas";
    fig6 "d" "cas-suite" "normalized time, CAS suite" threads_b suite_b
      ~base:"evequoz-cas";
    (* Beyond the paper: the 2008 ring against Nikolaev's SCQ
       (arXiv:1908.04511) on the same workload. *)
    fig6 "s" "scq-suite" "2008 ring vs SCQ" [ 1; 2; 4; 8 ] ~base:"evequoz-cas"
      ring_vs_scq;
    (* E5: one thread against the unsynchronized ring (paper: LL/SC
       +12 %, CAS +50 % / +90 %). *)
    preset "overhead" "E5: single-thread overhead vs the unsynchronized ring"
      ~bench:"overhead" ~domains:[ 1 ] ~runs:5 ~scale:0.1 ~base:"seq-ring"
      (List.map
         (fun q -> cell q (fun _ -> of_impl ~capacity:64 (Registry.find q)))
         [ "seq-ring"; "evequoz-llsc"; "evequoz-cas"; "shann"; "ms-gc";
           "ms-hp-sorted"; "ms-hp-unsorted"; "ms-doherty"; "two-lock";
           "lock-ring" ]);
    (* E6: the paper measures its CAS queue ~5 % slower than Shann's on a
       machine where CAS64 cost ~4.5x CAS32; here both are single-word. *)
    preset "shann-vs-cas" "E6: Shann (simulated CAS64) vs the CAS queue"
      ~bench:"shann_vs_cas" ~domains:[ 1; 2; 4; 8; 12; 16 ] ~base:"shann"
      (names [ "shann"; "evequoz-cas" ]);
    ablation "weak-llsc" "spurious SC failure rate, evequoz-llsc-weak"
      ~base:"rate=0.00"
      (List.map weak [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.4 ]);
    ablation "hp-threshold" "hazard-pointer retire threshold factor (paper: 4)"
      (List.map hp [ 1; 2; 4; 8; 16; 64 ]);
    ablation "capacity" "ring capacity, evequoz-cas (min = 2 x in-flight)"
      (List.map ring_capacity [ 1; 2; 8; 64 ]);
    ablation "reclamation" "reclamation schemes on the same MS queue"
      ~domains:[ 1; 2; 4; 8; 16 ]
      (names [ "ms-gc"; "ms-hp-sorted"; "ms-doherty" ]);
    (* The tag protocol's singles against its amortized batch runs (one
       ReRegister and one counter CAS per run). *)
    ablation "backends" "LL/SC backend under the ring functor"
      ~domains:[ 1; 2; 4; 8 ] ~base:"evequoz-cas"
      [ named "evequoz-cas"; cas_batched ];
    (* SC failures, helping, re-registrations and steals per thousand
       items as the domain count grows: the mechanism behind the Figure 6
       slowdowns. *)
    preset "contend" "Contention profile" ~bench:"contend" ~metered:true
      (names [ "evequoz-cas" ]);
    (* The sharded front-end over shards x domains, single and batched:
       with shards >= domains each domain owns a ring. *)
    preset "shard-sweep" "Sharded evequoz-cas" ~bench:"shard_sweep"
      ~scale:0.4 ~big_heap:true
      (List.concat_map
         (fun shards ->
           List.concat_map
             (fun batch ->
               [ shard_cell shards batch false; shard_cell shards batch true ])
             [ 5; 64 ])
         [ 1; 2; 4; 8 ]);
    (* Spinning vs parked blocking at 1x/2x/4x the cores: a spinner burns
       the timeslice its counterpart needs. *)
    preset "park-sweep" "Parked vs spinning under oversubscription"
      ~bench:"park_sweep" ~loop:(Handoff ([ Spin; Park ], 0))
      ~domains:[ cores; 2 * cores; 4 * cores ] ~big_heap:true
      (names [ "evequoz-cas" ]);
    preset "gate-park" "park gate: 16 parked domains"
      ~loop:(Handoff ([ Park ], 100)) ~domains:[ 16 ] ~runs:1 ~big_heap:true
      (names [ "evequoz-cas" ]);
    preset "burst-sweep" "10x burst absorption: segmented vs fixed ring"
      ~bench:"burst_sweep" ~loop:Burst ~domains:[ 1 ] fixed_vs_segmented;
    preset "gate-burst" "burst gate" ~loop:Burst ~domains:[ 1 ]
      fixed_vs_segmented;
    (* E11: a preempted lock holder shows up in the tail. *)
    preset "latency" "E11: per-operation latency under preemption"
      ~bench:"latency" ~loop:Latency ~domains:[ 8 ]
      (names
         [ "evequoz-llsc"; "evequoz-cas"; "ms-hp-sorted"; "two-lock";
           "lock-ring" ]);
    preset "space" "E9: space adaptivity" ~loop:Space [];
    preset "gate-obs" "obs overhead" ~loop:(Closed (Some Probes))
      ~domains:[ 4 ] ~runs:3 ~scale:0.5 (names [ "evequoz-cas" ]);
    (* Single domain: on a core-starved box a multi-domain run measures
       the scheduler, not the recorder.  One run per side and block, so
       30 blocks: block ratios on 2 cores spread over tens of percent,
       and only a median over many blocks resolves a 10 % bound. *)
    preset "gate-trace" "trace overhead" ~loop:(Closed (Some Recorder))
      ~domains:[ 1 ] ~runs:1 ~scale:1.0 (names [ "evequoz-cas" ]);
  ]

let find name = List.find_opt (fun p -> p.name = name) all
