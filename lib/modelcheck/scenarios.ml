module H = Nbq_lincheck.History
module C = Nbq_lincheck.Checker
module E = Nbq_obs.Event

type op = Enq of int | Deq | Peek | Enq_batch of int list | Deq_batch of int

type scenario = unit -> (unit -> unit) array * (unit -> unit)

(* --- protocol-event sink for counterexample dumps ------------------------ *)

(* The simulated queues are built with this hook, so the same counted
   events the real flight recorder captures (SC failures, helping, tag
   registry traffic, parks/wakes) are available under simulation.  During
   exploration the sink is [None] and every hit is a no-op; [dump_schedule]
   installs a sink to rebuild the merged timeline of a counterexample. *)
let trace_sink : (E.t -> unit) option ref = ref None

let emit ev = match !trace_sink with None -> () | Some f -> f ev

module Trace_hook : Nbq_primitives.Hook.S = struct
  let hit p = match E.of_point p with Some ev -> emit ev | None -> ()
end

(* --- recording ----------------------------------------------------------- *)

let record recorder ~thread ~enq ~deq ?peek ?enq_batch ?deq_batch op =
  (match op with
  | Enq v ->
      ignore
        (H.record recorder ~thread (H.Enqueue v) (fun () ->
             if enq v then H.Accepted else H.Rejected))
  | Deq ->
      ignore
        (H.record recorder ~thread H.Dequeue (fun () ->
             match deq () with Some v -> H.Got v | None -> H.Observed_empty))
  | Peek -> (
      match peek with
      | None -> invalid_arg "Scenarios: this algorithm has no peek"
      | Some peek ->
          ignore
            (H.record recorder ~thread H.Peek (fun () ->
                 match peek () with
                 | Some v -> H.Got v
                 | None -> H.Observed_empty)))
  | Enq_batch vs -> (
      match enq_batch with
      | None -> invalid_arg "Scenarios: this algorithm has no batch enqueue"
      | Some enq_batch ->
          ignore
            (H.record_call recorder ~thread (fun () ->
                 let n = enq_batch (Array.of_list vs) in
                 (* record_call convention: accepted prefix, then one
                    Rejected for the first refused item. *)
                 List.concat
                   (List.mapi
                      (fun i v ->
                        if i < n then [ (H.Enqueue v, H.Accepted) ]
                        else if i = n then [ (H.Enqueue v, H.Rejected) ]
                        else [])
                      vs))))
  | Deq_batch k -> (
      match deq_batch with
      | None -> invalid_arg "Scenarios: this algorithm has no batch dequeue"
      | Some deq_batch ->
          ignore
            (H.record_call recorder ~thread (fun () ->
                 let xs = deq_batch k in
                 List.map (fun v -> (H.Dequeue, H.Got v)) xs
                 @
                 if List.length xs < k then [ (H.Dequeue, H.Observed_empty) ]
                 else []))));
  (* Feed the liveness layer: each recorded queue operation is one unit of
     progress (not a scheduling point). *)
  Sim.op_completed ()

let lin_check ~capacity recorder () =
  match C.check_linearizable ~capacity (H.events recorder) with
  | C.Ok -> ()
  | C.Violation msg -> failwith msg

(* Generic builder over any (enq, deq[, peek]) triple on fresh state. *)
let generic ~make_queue ~spec_capacity ~prefill threads () =
  let nthreads = List.length threads in
  let enq, deq, peek = make_queue () in
  let recorder = H.recorder ~threads:(nthreads + 1) in
  Sim.run_sequential (fun () ->
      List.iter
        (fun v ->
          record recorder ~thread:nthreads ~enq ~deq:(fun () -> None) (Enq v))
        prefill);
  let task i ops () =
    List.iter (record recorder ~thread:i ~enq ~deq ?peek) ops
  in
  ( Array.of_list (List.mapi task threads),
    lin_check ~capacity:spec_capacity recorder )

module SimCell = Nbq_primitives.Llsc.Make_probed (Sim.Atomic) (Trace_hook)
module SimQ1 = Nbq_core.Evequoz_llsc.Make_probed (SimCell) (Trace_hook)
module SimQ2 = Nbq_core.Evequoz_cas.Make_probed (Sim.Atomic) (Trace_hook)
module SimBW = Nbq_core.Evequoz_bw.Make_probed (Sim.Atomic) (Trace_hook)
module SimShann = Nbq_baselines.Shann.Make (Sim.Atomic)
module SimTz = Nbq_baselines.Tsigas_zhang.Make (Sim.Atomic)
module SimMs = Nbq_baselines.Michael_scott.Make (Sim.Atomic)
module SimHw = Nbq_baselines.Herlihy_wing.Make (Sim.Atomic)
module SimLms = Nbq_baselines.Ladan_mozes_shavit.Make (Sim.Atomic)
module SimValois = Nbq_baselines.Valois.Make (Sim.Atomic)

(* The segmented unbounded queue (PR 9) with ideal LL/SC cells inside each
   segment, so the explored state space is dominated by the chain protocol
   — append, retire, hazard hand-off, recycle — rather than by the cell
   backend already verified above. *)
module SimSegBackend = Nbq_primitives.Llsc_backend.Of_cell (SimCell)

module SimSeg =
  Nbq_segmented.Segmented.Make_backend (Sim.Atomic) (SimSegBackend)
    (Trace_hook)

(* Nikolaev's SCQ (PR 10): the FAA-ticketed ring, with and without the
   wCQ-style helping enqueue.  The no-threshold variant disables the
   retry-budget counter — the seeded livelock the checker must convict:
   without it an empty-side dequeuer's slot bumps and the enqueuer's
   fresh tickets can chase each other forever. *)
module SimScq = Nbq_scq.Scq.Make_probed (Sim.Atomic) (Trace_hook)
module SimScqW = Nbq_scq.Scq.Make_wcq_probed (Sim.Atomic) (Trace_hook)

module SimScqNothresh =
  Nbq_scq.Scq.Make_full
    (struct
      include Nbq_scq.Scq.Default_config

      let threshold = false
    end)
    (Sim.Atomic)
    (Trace_hook)

let algorithms =
  [
    "evequoz-llsc"; "evequoz-cas"; "evequoz-bw"; "evequoz-seg"; "shann";
    "tsigas-zhang"; "ms-gc"; "herlihy-wing"; "lms-optimistic"; "valois-dcas";
    "scq"; "scq-d"; "scq-wcq";
  ]

let build ~algorithm ~capacity ~prefill threads =
  match algorithm with
  | "evequoz-llsc" ->
      generic ~spec_capacity:capacity ~prefill threads ~make_queue:(fun () ->
          let q = SimQ1.create ~capacity in
          ( (fun v -> SimQ1.try_enqueue q v),
            (fun () -> SimQ1.try_dequeue q),
            Some (fun () -> SimQ1.try_peek q) ))
  | "evequoz-cas" ->
      (* Explicit handles: registration runs inside the explored schedule,
         once per simulated thread, like a fresh paper thread would. *)
      fun () ->
        let q = SimQ2.create ~capacity in
        let nthreads = List.length threads in
        let recorder = H.recorder ~threads:(nthreads + 1) in
        Sim.run_sequential (fun () ->
            let h = SimQ2.register q in
            List.iter
              (fun v ->
                record recorder ~thread:nthreads
                  ~enq:(fun v -> SimQ2.enqueue_with q h v)
                  ~deq:(fun () -> None)
                  (Enq v))
              prefill;
            SimQ2.deregister h);
        let task i ops () =
          let h = SimQ2.register q in
          List.iter
            (record recorder ~thread:i
               ~enq:(fun v -> SimQ2.enqueue_with q h v)
               ~deq:(fun () -> SimQ2.dequeue_with q h)
               ~peek:(fun () -> SimQ2.peek_with q h))
            ops;
          SimQ2.deregister h
        in
        ( Array.of_list (List.mapi task threads),
          lin_check ~capacity recorder )
  | "evequoz-bw" ->
      (* Same ring, Blelloch–Wei cells: handles are announcement slots, so
         registration runs inside the explored schedule like the tag
         protocol's — but per-operation reregistration is a no-op. *)
      fun () ->
        let q = SimBW.create ~capacity in
        let nthreads = List.length threads in
        let recorder = H.recorder ~threads:(nthreads + 1) in
        Sim.run_sequential (fun () ->
            let h = SimBW.register q in
            List.iter
              (fun v ->
                record recorder ~thread:nthreads
                  ~enq:(fun v -> SimBW.enqueue_with q h v)
                  ~deq:(fun () -> None)
                  (Enq v))
              prefill;
            SimBW.deregister h);
        let task i ops () =
          let h = SimBW.register q in
          List.iter
            (record recorder ~thread:i
               ~enq:(fun v -> SimBW.enqueue_with q h v)
               ~deq:(fun () -> SimBW.dequeue_with q h)
               ~peek:(fun () -> SimBW.peek_with q h))
            ops;
          SimBW.deregister h
        in
        ( Array.of_list (List.mapi task threads),
          lin_check ~capacity recorder )
  | "evequoz-seg" ->
      (* The segmented unbounded queue: [capacity] is the *segment*
         capacity, the queue itself never rejects, so the linearizability
         spec runs unbounded.  Explicit handles (one hazard record each)
         register inside the explored schedule. *)
      fun () ->
        let q = SimSeg.create ~retire_threshold:1 ~capacity () in
        let nthreads = List.length threads in
        let recorder = H.recorder ~threads:(nthreads + 1) in
        Sim.run_sequential (fun () ->
            let h = SimSeg.register q in
            List.iter
              (fun v ->
                record recorder ~thread:nthreads
                  ~enq:(fun v -> SimSeg.enqueue_with q h v)
                  ~deq:(fun () -> None)
                  (Enq v))
              prefill;
            SimSeg.deregister q h);
        let task i ops () =
          let h = SimSeg.register q in
          List.iter
            (record recorder ~thread:i
               ~enq:(fun v -> SimSeg.enqueue_with q h v)
               ~deq:(fun () -> SimSeg.dequeue_with q h))
            ops;
          SimSeg.deregister q h
        in
        ( Array.of_list (List.mapi task threads),
          lin_check ~capacity:max_int recorder )
  | "shann" ->
      generic ~spec_capacity:capacity ~prefill threads ~make_queue:(fun () ->
          let q = SimShann.create ~capacity in
          ( (fun v -> SimShann.try_enqueue q v),
            (fun () -> SimShann.try_dequeue q),
            None ))
  | "tsigas-zhang" ->
      generic ~spec_capacity:capacity ~prefill threads ~make_queue:(fun () ->
          let q = SimTz.create ~capacity in
          ( (fun v -> SimTz.try_enqueue q v),
            (fun () -> SimTz.try_dequeue q),
            None ))
  | "ms-gc" ->
      generic ~spec_capacity:max_int ~prefill threads ~make_queue:(fun () ->
          let q = SimMs.create () in
          ( (fun v ->
              SimMs.enqueue q v;
              true),
            (fun () -> SimMs.try_dequeue q),
            None ))
  | "herlihy-wing" ->
      generic ~spec_capacity:max_int ~prefill threads ~make_queue:(fun () ->
          let q = SimHw.create () in
          ( (fun v ->
              SimHw.enqueue q v;
              true),
            (fun () -> SimHw.try_dequeue q),
            None ))
  | "valois-dcas" ->
      generic ~spec_capacity:capacity ~prefill threads ~make_queue:(fun () ->
          let q = SimValois.create ~capacity in
          ( (fun v -> SimValois.try_enqueue q v),
            (fun () -> SimValois.try_dequeue q),
            None ))
  | "lms-optimistic" ->
      generic ~spec_capacity:max_int ~prefill threads ~make_queue:(fun () ->
          let q = SimLms.create () in
          ( (fun v ->
              SimLms.enqueue q v;
              true),
            (fun () -> SimLms.try_dequeue q),
            None ))
  | "scq" ->
      generic ~spec_capacity:capacity ~prefill threads ~make_queue:(fun () ->
          let q = SimScq.Scq.create ~capacity in
          ( (fun v -> SimScq.Scq.try_enqueue q v),
            (fun () -> SimScq.Scq.try_dequeue q),
            None ))
  | "scq-d" ->
      generic ~spec_capacity:capacity ~prefill threads ~make_queue:(fun () ->
          let q = SimScq.Scqd.create ~capacity in
          ( (fun v -> SimScq.Scqd.try_enqueue q v),
            (fun () -> SimScq.Scqd.try_dequeue q),
            None ))
  | "scq-wcq" ->
      generic ~spec_capacity:capacity ~prefill threads ~make_queue:(fun () ->
          let q = SimScqW.Scq.create ~capacity in
          ( (fun v -> SimScqW.Scq.try_enqueue q v),
            (fun () -> SimScqW.Scq.try_dequeue q),
            None ))
  | other ->
      invalid_arg
        (Printf.sprintf "Scenarios.build: unknown algorithm %S (know: %s)"
           other
           (String.concat ", " algorithms))

let standard_matrix =
  [
    ("enq|enq", 2, [], [ [ Enq 1 ]; [ Enq 2 ] ]);
    ("enq|deq empty", 2, [], [ [ Enq 1 ]; [ Deq ] ]);
    ("enq|deq nonempty", 2, [ 100 ], [ [ Enq 1 ]; [ Deq ] ]);
    ("deq|deq", 4, [ 100; 200 ], [ [ Deq ]; [ Deq ] ]);
    ("enq|deq at full", 2, [ 100; 200 ], [ [ Enq 1 ]; [ Deq ] ]);
    ("2 ops each", 2, [], [ [ Enq 1; Deq ]; [ Enq 2; Deq ] ]);
  ]

(* ========================================================================= *)
(* The spec catalog: scenarios as data, for the DPOR pass.                   *)
(* ========================================================================= *)

type spec = {
  algorithm : string;
  scenario : string;  (* slug, stable across sessions: the repro-line key *)
  descr : string;
  progress : Props.progress;
  expect : [ `Pass | `Violation ];
  build_instance : unit -> Dpor.instance;
}

let slug name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    name

(* The paper's progress claims, per algorithm.  Algorithm 2 simulates
   LL/SC with CAS + tags: a reservation can be stolen and retaken forever
   under mutual interference, so its guarantee is obstruction freedom, not
   lock freedom (DESIGN.md §12 — the exhaustive pass finds no livelock
   under the *fair* continuation, but the adversarial one is real).
   Herlihy–Wing's dequeue is total (waits for an enqueuer), hence
   blocking.  The Blelloch–Wei backend restores lock freedom from plain
   CAS: its SC fails only when a competing SC succeeded, so [evequoz-bw]
   falls under the default claim. *)
let progress_of_algorithm = function
  | "evequoz-cas" -> Props.Obstruction_free
  | "herlihy-wing" -> Props.Blocking
  (* SCQ's threshold counter bounds the dequeuers' retry budget, but an
     enqueuer's ticket can still be invalidated by each bump the budget
     pays for, so on the adversarial continuation we only claim progress
     in isolation; the exhaustive pass must come back clean under the
     step budget regardless (the conviction belongs to scq-nothreshold,
     which waives the counter and claims lock freedom). *)
  | "scq" | "scq-d" | "scq-wcq" -> Props.Obstruction_free
  | _ -> Props.Lock_free

(* Multiset of items that must still be in the queue when every recorded
   operation has responded: accepted enqueues minus dequeued gets. *)
let remaining_of_history events =
  let enq =
    List.filter_map
      (fun e ->
        match (e.H.op, e.H.outcome) with
        | H.Enqueue v, H.Accepted -> Some v
        | _ -> None)
      events
  in
  let got =
    List.filter_map
      (fun e ->
        match (e.H.op, e.H.outcome) with
        | H.Dequeue, H.Got v -> Some v
        | _ -> None)
      events
  in
  let remove_one x l =
    let rec go acc = function
      | [] ->
          failwith
            (Printf.sprintf "conservation: dequeued %d was never enqueued" x)
      | y :: tl -> if y = x then List.rev_append acc tl else go (y :: acc) tl
    in
    go [] l
  in
  List.sort compare (List.fold_left (fun l x -> remove_one x l) enq got)

let drain_all deq =
  let rec go acc =
    match deq () with Some v -> go (v :: acc) | None -> List.rev acc
  in
  go []

(* Conservation, checked by draining: what is left in the queue must be
   exactly what the history says is left.  (Order of the remainder can be
   ambiguous when concurrent enqueues raced, so multisets are compared;
   FIFO order itself is the linearizability check's job.) *)
let conservation_check recorder deq () =
  Sim.run_sequential (fun () ->
      let expected = remaining_of_history (H.events recorder) in
      let drained = List.sort compare (drain_all deq) in
      if drained <> expected then
        failwith
          (Printf.sprintf "conservation: drained [%s] but history left [%s]"
             (String.concat ";" (List.map string_of_int drained))
             (String.concat ";" (List.map string_of_int expected))))

(* --- strengthened per-algorithm instances -------------------------------- *)

(* Algorithm 1 (LL/SC), with conservation-by-drain and a per-step index
   invariant on top of the linearizability check. *)
let llsc_instance ~capacity ~prefill threads () =
  let nthreads = List.length threads in
  let q = SimQ1.create ~capacity in
  let cap = Nbq_core.Queue_intf.round_capacity capacity in
  let recorder = H.recorder ~threads:(nthreads + 1) in
  let enq v = SimQ1.try_enqueue q v in
  let deq () = SimQ1.try_dequeue q in
  let peek () = SimQ1.try_peek q in
  Sim.run_sequential (fun () ->
      List.iter
        (fun v ->
          record recorder ~thread:nthreads ~enq ~deq:(fun () -> None) (Enq v))
        prefill);
  let task i ops () = List.iter (record recorder ~thread:i ~enq ~deq ~peek) ops in
  {
    Dpor.tasks = Array.of_list (List.mapi task threads);
    check =
      (fun () ->
        lin_check ~capacity recorder ();
        conservation_check recorder deq ());
    invariant =
      Some
        (fun () ->
          Sim.run_sequential (fun () ->
              let l = SimQ1.tail_index q - SimQ1.head_index q in
              if l < 0 || l > cap then
                failwith
                  (Printf.sprintf "index invariant: tail-head = %d not in [0,%d]"
                     l cap)));
  }

(* Algorithm 2 (CAS-simulated LL/SC) with explicit handles; optionally
   exercising the batch-run paths.  On top of linearizability:
   conservation by drain, tag-registry hygiene at quiescence (owned
   reservations return to the post-registration baseline; the registry
   never outgrows the thread high-water mark), and the registry bound as a
   per-step invariant. *)
let cas_instance ~capacity ~prefill threads () =
  let nthreads = List.length threads in
  let q = SimQ2.create ~capacity in
  let recorder = H.recorder ~threads:(nthreads + 1) in
  let baseline_owned = ref 0 in
  Sim.run_sequential (fun () ->
      let h = SimQ2.register q in
      List.iter
        (fun v ->
          record recorder ~thread:nthreads
            ~enq:(fun v -> SimQ2.enqueue_with q h v)
            ~deq:(fun () -> None)
            (Enq v))
        prefill;
      SimQ2.deregister h;
      baseline_owned := SimQ2.owned_count q);
  let registry_cap () =
    (* Every simulated thread plus the prologue/drain handle; the registry
       tracks the high-water mark of concurrently registered threads
       (paper §5's space adaptivity), so it may never exceed this. *)
    nthreads + 1
  in
  let task i ops () =
    let h = SimQ2.register q in
    let enq v = SimQ2.enqueue_with q h v in
    let deq () = SimQ2.dequeue_with q h in
    let peek () = SimQ2.peek_with q h in
    List.iter
      (record recorder ~thread:i ~enq ~deq ~peek
         ~enq_batch:(fun a -> SimQ2.enqueue_batch_with q h a)
         ~deq_batch:(fun k -> SimQ2.dequeue_batch_with q h k))
      ops;
    SimQ2.deregister h
  in
  {
    Dpor.tasks = Array.of_list (List.mapi task threads);
    check =
      (fun () ->
        lin_check ~capacity recorder ();
        Sim.run_sequential (fun () ->
            let h = SimQ2.register q in
            let drained =
              List.sort compare
                (drain_all (fun () -> SimQ2.dequeue_with q h))
            in
            let expected = remaining_of_history (H.events recorder) in
            if drained <> expected then
              failwith
                (Printf.sprintf
                   "conservation: drained [%s] but history left [%s]"
                   (String.concat ";" (List.map string_of_int drained))
                   (String.concat ";" (List.map string_of_int expected)));
            SimQ2.deregister h;
            let owned = SimQ2.owned_count q in
            if owned > !baseline_owned then
              failwith
                (Printf.sprintf
                   "registry hygiene: %d tag vars still owned at quiescence \
                    (baseline %d)"
                   owned !baseline_owned);
            let size = SimQ2.registry_size q in
            if size > registry_cap () then
              failwith
                (Printf.sprintf
                   "registry hygiene: %d tag vars allocated for %d threads"
                   size (registry_cap ()))));
    invariant =
      Some
        (fun () ->
          Sim.run_sequential (fun () ->
              let size = SimQ2.registry_size q in
              if size > registry_cap () then
                failwith
                  (Printf.sprintf
                     "registry invariant: %d tag vars allocated for %d threads"
                     size (registry_cap ()))));
  }

(* The Blelloch–Wei backend under the same ring, with the hygiene checks
   reshaped for announcement-based reclamation: on top of linearizability
   and conservation by drain, no deregistered handle may leave a published
   announcement behind, every handle record recycles through [active]
   (the chain never outgrows the thread high-water mark), and the retired
   pile stays below the amortization threshold at quiescence — the
   bounded-space claim of the constant-time construction. *)
let bw_instance ~capacity ~prefill threads () =
  let nthreads = List.length threads in
  let q = SimBW.create ~capacity in
  let recorder = H.recorder ~threads:(nthreads + 1) in
  let baseline_owned = ref 0 in
  Sim.run_sequential (fun () ->
      let h = SimBW.register q in
      List.iter
        (fun v ->
          record recorder ~thread:nthreads
            ~enq:(fun v -> SimBW.enqueue_with q h v)
            ~deq:(fun () -> None)
            (Enq v))
        prefill;
      SimBW.deregister h;
      baseline_owned := SimBW.owned_count q);
  let registry_cap () = nthreads + 1 in
  let task i ops () =
    let h = SimBW.register q in
    let enq v = SimBW.enqueue_with q h v in
    let deq () = SimBW.dequeue_with q h in
    let peek () = SimBW.peek_with q h in
    List.iter
      (record recorder ~thread:i ~enq ~deq ~peek
         ~enq_batch:(fun a -> SimBW.enqueue_batch_with q h a)
         ~deq_batch:(fun k -> SimBW.dequeue_batch_with q h k))
      ops;
    SimBW.deregister h
  in
  {
    Dpor.tasks = Array.of_list (List.mapi task threads);
    check =
      (fun () ->
        lin_check ~capacity recorder ();
        Sim.run_sequential (fun () ->
            let h = SimBW.register q in
            let drained =
              List.sort compare
                (drain_all (fun () -> SimBW.dequeue_with q h))
            in
            let expected = remaining_of_history (H.events recorder) in
            if drained <> expected then
              failwith
                (Printf.sprintf
                   "conservation: drained [%s] but history left [%s]"
                   (String.concat ";" (List.map string_of_int drained))
                   (String.concat ";" (List.map string_of_int expected)));
            SimBW.deregister h;
            let owned = SimBW.owned_count q in
            if owned > !baseline_owned then
              failwith
                (Printf.sprintf
                   "handle hygiene: %d records still owned at quiescence \
                    (baseline %d)"
                   owned !baseline_owned);
            let size = SimBW.registry_size q in
            if size > registry_cap () then
              failwith
                (Printf.sprintf
                   "handle hygiene: %d records allocated for %d threads" size
                   (registry_cap ()));
            let sp = SimBW.space q in
            if sp.Nbq_primitives.Llsc_bw.announced <> 0 then
              failwith
                (Printf.sprintf
                   "announcement hygiene: %d slots still announced at \
                    quiescence"
                   sp.Nbq_primitives.Llsc_bw.announced)));
    invariant =
      Some
        (fun () ->
          Sim.run_sequential (fun () ->
              let size = SimBW.registry_size q in
              if size > registry_cap () then
                failwith
                  (Printf.sprintf
                     "handle invariant: %d records allocated for %d threads"
                     size (registry_cap ()))));
  }

(* The seeded Blelloch–Wei bug: reclamation that ignores the announcement
   scan (threshold 1, so every SC recycles immediately) hands a delayed
   enqueuer's reserved buffer back into the cell it came from.  Its SC
   then succeeds against the recycled pointer — the exact ABA the
   announcement exists to close — and an accepted item vanishes, which
   conservation-by-drain convicts. *)
module SimBWBug_backend =
  Nbq_primitives.Llsc_bw.Make_config
    (struct
      let scan_announcements = false
      let retire_threshold = 1
    end)
    (Sim.Atomic)
    (Trace_hook)

module SimBWBug =
  Nbq_core.Evequoz_ring.Make_probed (SimBWBug_backend) (Trace_hook)

let bw_noscan_instance () =
  let q = SimBWBug.create ~capacity:2 in
  let recorder = H.recorder ~threads:2 in
  let task i ops () =
    let h = SimBWBug.register q in
    List.iter
      (record recorder ~thread:i
         ~enq:(fun v -> SimBWBug.enqueue_with q h v)
         ~deq:(fun () -> SimBWBug.dequeue_with q h))
      ops;
    SimBWBug.deregister h
  in
  let tasks = Array.of_list (List.mapi task [ [ Enq 1 ]; [ Enq 2; Deq ] ]) in
  {
    Dpor.tasks = tasks;
    check =
      (fun () ->
        lin_check ~capacity:2 recorder ();
        Sim.run_sequential (fun () ->
            let h = SimBWBug.register q in
            let drained =
              List.sort compare
                (drain_all (fun () -> SimBWBug.dequeue_with q h))
            in
            SimBWBug.deregister h;
            let expected = remaining_of_history (H.events recorder) in
            if drained <> expected then
              failwith
                (Printf.sprintf
                   "conservation: drained [%s] but history left [%s]"
                   (String.concat ";" (List.map string_of_int drained))
                   (String.concat ";" (List.map string_of_int expected)))));
    invariant = None;
  }

(* The segmented unbounded queue: [capacity] is the segment capacity, the
   linearizability spec is unbounded, and [retire_threshold 1] makes every
   retire scan immediately so recycling happens inside the explored
   window.  [direct_free] is the seeded bug (evequoz-seg-noretire): the
   head-advance winner frees the drained segment without the hazard scan.

   Strengthened checks on top of linearizability:
   - conservation by drain, with reclamation hygiene at quiescence: after
     every record has been reacquired and released once, no retired
     segment may still be pending (nothing protects them anymore);
   - as a per-step invariant, the memory bound — segment k exists only
     after segments 0..k-1 each accepted a full complement, so the live
     chain never exceeds total_items/capacity + 1 — and the per-segment
     index windows lap_base <= head <= tail <= lap_base + capacity, the
     FIFO-across-segments witness. *)
let seg_instance ?(direct_free = false) ~capacity ~prefill threads () =
  let nthreads = List.length threads in
  let q = SimSeg.create ~direct_free ~retire_threshold:1 ~capacity () in
  let cap = Nbq_core.Queue_intf.round_capacity capacity in
  let total_items =
    List.length prefill
    + List.fold_left
        (List.fold_left (fun acc op ->
             match op with
             | Enq _ -> acc + 1
             | Enq_batch items -> acc + List.length items
             | Deq | Deq_batch _ | Peek -> acc))
        0 threads
  in
  let max_chain = (total_items / cap) + 1 in
  let recorder = H.recorder ~threads:(nthreads + 1) in
  Sim.run_sequential (fun () ->
      let h = SimSeg.register q in
      List.iter
        (fun v ->
          record recorder ~thread:nthreads
            ~enq:(fun v -> SimSeg.enqueue_with q h v)
            ~deq:(fun () -> None)
            (Enq v))
        prefill;
      SimSeg.deregister q h);
  let task i ops () =
    let h = SimSeg.register q in
    List.iter
      (record recorder ~thread:i
         ~enq:(fun v -> SimSeg.enqueue_with q h v)
         ~deq:(fun () -> SimSeg.dequeue_with q h))
      ops;
    SimSeg.deregister q h
  in
  {
    Dpor.tasks = Array.of_list (List.mapi task threads);
    check =
      (fun () ->
        lin_check ~capacity:max_int recorder ();
        Sim.run_sequential (fun () ->
            let h = SimSeg.register q in
            let drained =
              List.sort compare (drain_all (fun () -> SimSeg.dequeue_with q h))
            in
            let expected = remaining_of_history (H.events recorder) in
            if drained <> expected then
              failwith
                (Printf.sprintf
                   "conservation: drained [%s] but history left [%s]"
                   (String.concat ";" (List.map string_of_int drained))
                   (String.concat ";" (List.map string_of_int expected)));
            SimSeg.deregister q h;
            (* Acquire every hazard record at once, then release each:
               every release rescans its record's parked retirees, and
               with no hazard held anything still pending is a leak. *)
            let flush =
              List.init (nthreads + 2) (fun _ -> SimSeg.register q)
            in
            List.iter (fun h -> SimSeg.deregister q h) flush;
            let st = SimSeg.stats q in
            if st.Nbq_segmented.Segmented.retired_pending <> 0 then
              failwith
                (Printf.sprintf
                   "reclamation hygiene: %d segments still retired at \
                    quiescence"
                   st.Nbq_segmented.Segmented.retired_pending)));
    invariant =
      Some
        (fun () ->
          Sim.run_sequential (fun () ->
              let rec walk n seg =
                let r = seg.SimSeg.ring in
                let base = SimSeg.Ring.lap_base r in
                let hd = SimSeg.Ring.head_index r in
                let tl = SimSeg.Ring.tail_index r in
                if not (base <= hd && hd <= tl && tl <= base + cap) then
                  failwith
                    (Printf.sprintf
                       "index window: segment %d has base %d head %d tail %d \
                        (capacity %d)"
                       (SimSeg.seg_id seg) base hd tl cap);
                match Sim.Atomic.get seg.SimSeg.next with
                | SimSeg.Nil -> n
                | SimSeg.Next ns -> walk (n + 1) ns
              in
              let chain = walk 1 (Sim.Atomic.get q.SimSeg.head_seg) in
              if chain > max_chain then
                failwith
                  (Printf.sprintf
                     "segment bound: %d live segments for %d items of \
                      capacity %d (max %d)"
                     chain total_items cap max_chain)));
  }

(* SCQ family (PR 10): linearizability plus conservation-by-drain.  No
   per-step invariant: the size counter settles apart from the ring and
   the admission gate, so even length <= capacity is transiently false
   mid-step by design — only quiescent properties are sound, and the
   drain checks those. *)
let scq_instance ~make ~capacity ~prefill threads () =
  let nthreads = List.length threads in
  let enq, deq = make ~capacity in
  let recorder = H.recorder ~threads:(nthreads + 1) in
  Sim.run_sequential (fun () ->
      List.iter
        (fun v ->
          record recorder ~thread:nthreads ~enq ~deq:(fun () -> None) (Enq v))
        prefill);
  let task i ops () = List.iter (record recorder ~thread:i ~enq ~deq) ops in
  {
    Dpor.tasks = Array.of_list (List.mapi task threads);
    check =
      (fun () ->
        lin_check ~capacity recorder ();
        conservation_check recorder deq ());
    invariant = None;
  }

let scq_make ~capacity =
  let q = SimScq.Scq.create ~capacity in
  ((fun v -> SimScq.Scq.try_enqueue q v), fun () -> SimScq.Scq.try_dequeue q)

let scqd_make ~capacity =
  let q = SimScq.Scqd.create ~capacity in
  ((fun v -> SimScq.Scqd.try_enqueue q v), fun () -> SimScq.Scqd.try_dequeue q)

let scq_wcq_make ~capacity =
  let q = SimScqW.Scq.create ~capacity in
  ((fun v -> SimScqW.Scq.try_enqueue q v), fun () -> SimScqW.Scq.try_dequeue q)

(* Other algorithms: the linearizability check as before, no extra
   invariant (their internals are baselines, not the paper's claims). *)
let generic_instance ~algorithm ~capacity ~prefill threads () =
  let tasks, check = build ~algorithm ~capacity ~prefill threads () in
  { Dpor.tasks; check; invariant = None }

let matrix_instance ~algorithm ~capacity ~prefill threads =
  match algorithm with
  | "evequoz-llsc" -> llsc_instance ~capacity ~prefill threads
  | "evequoz-cas" -> cas_instance ~capacity ~prefill threads
  | "evequoz-bw" -> bw_instance ~capacity ~prefill threads
  | "evequoz-seg" -> seg_instance ~capacity ~prefill threads
  | "scq" -> scq_instance ~make:scq_make ~capacity ~prefill threads
  | "scq-d" -> scq_instance ~make:scqd_make ~capacity ~prefill threads
  | "scq-wcq" -> scq_instance ~make:scq_wcq_make ~capacity ~prefill threads
  | _ -> generic_instance ~algorithm ~capacity ~prefill threads

(* --- post-paper scenarios: sharded facade, batched runs ------------------ *)

module Sh = Nbq_scale.Sharded

(* 2 shards x capacity 2 over Algorithm 1, task affinity pinned so the
   steal-sweep window is open from the first step: shard 0 starts full, the
   enqueuer's home is shard 0 (must sweep to shard 1), the dequeuer's home
   is shard 1 (must steal from shard 0).  The facade is *not* linearizable
   against a single FIFO (per-shard FIFO only), so the check is
   conservation plus outcome sanity, not lincheck. *)
let sharded_instance () =
  let home () = match Sim.current_task () with -1 -> 0 | t -> t mod 2 in
  let f =
    Sh.create ~hook:(module Trace_hook) ~home ~shards:2
      (fun _ ->
        let q = SimQ1.create ~capacity:2 in
        Sh.ops_of_singles
          ~enq:(fun v -> SimQ1.try_enqueue q v)
          ~deq:(fun () -> SimQ1.try_dequeue q)
          ~len:(fun () -> SimQ1.length q))
  in
  Sim.run_sequential (fun () ->
      if not (Sh.try_enqueue f 100 && Sh.try_enqueue f 101) then
        failwith "sharded prefill failed");
  let enq_ok = ref false and got = ref None in
  let tasks =
    [|
      (fun () ->
        enq_ok := Sh.try_enqueue f 1;
        Sim.op_completed ());
      (fun () ->
        got := Sh.try_dequeue f;
        Sim.op_completed ());
    |]
  in
  let check () =
    Sim.run_sequential (fun () ->
        (* Shard 1 is only ever written by the enqueuer's sweep, so the
           sweep always finds room: the enqueue must succeed.  Shard 0
           holds >= 1 item until the single dequeuer takes one, so the
           dequeue must succeed too. *)
        if not !enq_ok then failwith "sharded: enqueue failed with free slots";
        let taken =
          match !got with
          | None -> failwith "sharded: dequeue failed with items present"
          | Some v -> v
        in
        let drained = List.sort compare (drain_all (fun () -> Sh.try_dequeue f)) in
        let expected =
          List.sort compare
            (List.filter (fun v -> v <> taken) [ 100; 101; 1 ])
        in
        if drained <> expected then
          failwith
            (Printf.sprintf "sharded conservation: drained [%s], expected [%s]"
               (String.concat ";" (List.map string_of_int drained))
               (String.concat ";" (List.map string_of_int expected))))
  in
  { Dpor.tasks; check; invariant = None }

(* --- seeded-bug scenarios: the liveness checker's own test dummies ------- *)

(* A "queue" whose dequeue spins on a flag nobody ever sets: blocking by
   construction, declared lock-free, so the checker must convict it
   (Stuck { spinning }). *)
let toy_blocking_instance () =
  let flag = Sim.Atomic.make false in
  let tasks =
    [|
      (fun () ->
        while not (Sim.Atomic.get flag) do () done;
        Sim.op_completed ());
      (fun () -> Sim.op_completed ());
    |]
  in
  { Dpor.tasks; check = (fun () -> ()); invariant = None }

(* --- wait-layer scenarios: the eventcount under simulation --------------- *)

module SimConc1 =
  Nbq_core.Queue_intf.Make (Nbq_core.Queue_intf.Capability.Bounded (SimQ1))

(* The production blocking wrapper (Queue_intf.Blocking_ec) over the
   production eventcount protocol (Eventcount_core), both running on
   simulated atomics and the cooperative parker.  A consumer blocks on an
   empty queue; a producer enqueues (which issues the wake).  Lock-free
   here means: no schedule may strand the parked consumer — the exhaustive
   no-lost-wakeup check. *)
let sim_wait_instance () =
  let module W = Sim_wait.Make () in
  let module BQ =
    Nbq_core.Queue_intf.Blocking_ec (W.EC) (Trace_hook) (SimConc1)
  in
  let bq = BQ.create ~capacity:2 in
  let got = ref None in
  let tasks =
    [|
      (fun () ->
        got := Some (BQ.dequeue bq);
        Sim.op_completed ());
      (fun () ->
        BQ.enqueue bq 42;
        Sim.op_completed ());
    |]
  in
  let check () =
    if !got <> Some 42 then failwith "sim-wait: consumer finished empty-handed"
  in
  { Dpor.tasks; check; invariant = None }

(* The same shape with the Dekker handshake deliberately broken: the
   consumer publishes its waiter and commits WITHOUT re-checking the
   condition.  The producer's wake_one can then hit the empty-stack fast
   path (condition made true before the waiter published) and skip both
   the seq bump and the signal — the consumer parks forever.  The checker
   must convict this as Stuck { parked } with a replayable schedule. *)
let lost_wakeup_instance () =
  let module W = Sim_wait.Make () in
  let q = SimQ1.create ~capacity:2 in
  let not_empty = W.EC.create () in
  let got = ref None in
  let tasks =
    [|
      (fun () ->
        let rec deq () =
          match SimQ1.try_dequeue q with
          | Some v ->
              got := Some v;
              Sim.op_completed ()
          | None -> (
              let w = W.EC.prepare_wait not_empty in
              (* BUG under test: no condition re-check between publish and
                 commit — the second half of the Dekker handshake is
                 missing. *)
              match W.EC.commit_wait not_empty w with
              | `Woken | `Timeout -> deq ())
        in
        deq ());
      (fun () ->
        ignore (SimQ1.try_enqueue q 42 : bool);
        ignore (W.EC.wake_one not_empty : bool);
        Sim.op_completed ());
    |]
  in
  let check () =
    if !got <> Some 42 then failwith "lost-wakeup: consumer finished empty"
  in
  { Dpor.tasks; check; invariant = None }

(* The seeded SCQ livelock ([Scq.CONFIG.threshold = false]): the miss
   path has no retry budget, so a dequeuer that lost the slot race goes
   again unconditionally — it bumps the slot cycle (invalidating the
   enqueuer's ticket), the enqueuer FAAs a fresh ticket, and the chase
   repeats; once the enqueuer is done the dequeuer keeps chasing its own
   bumps, never conceding emptiness.  The scenario runs one more dequeue
   than there are items ([Enq 1] | [Deq; Deq]) so the ring ends up drained
   with a dequeue still in flight: that dequeue bumps slots and drags tail
   via catchup forever — shared-state writes with no completion, which the
   fair-continuation probe classifies as a livelock witness, violating the
   claimed lock freedom.  (With one item per dequeue even the seeded
   variant quiesces under the fair probe: the enqueuer eventually installs
   and the chase consumes it — the adversarial mutual chase is real but no
   round-robin continuation sustains it.)  With the counter armed the
   budget expires and the same shape terminates, which the scq matrix
   above runs to exhaustion.  No conservation drain here: draining the
   seeded variant would itself never return on the emptied queue. *)
let scq_nothreshold_instance () =
  let q = SimScqNothresh.Scq.create ~capacity:1 in
  let recorder = H.recorder ~threads:2 in
  let enq v = SimScqNothresh.Scq.try_enqueue q v in
  let deq () = SimScqNothresh.Scq.try_dequeue q in
  let task i ops () = List.iter (record recorder ~thread:i ~enq ~deq) ops in
  let tasks = Array.of_list (List.mapi task [ [ Enq 1 ]; [ Deq; Deq ] ]) in
  {
    Dpor.tasks;
    check = lin_check ~capacity:2 recorder;
    invariant = None;
  }

(* --- the catalog --------------------------------------------------------- *)

let matrix_specs algorithm =
  List.map
    (fun (name, capacity, prefill, threads) ->
      {
        algorithm;
        scenario = slug name;
        descr =
          Printf.sprintf "%s, capacity %d, %d threads" name capacity
            (List.length threads);
        progress = progress_of_algorithm algorithm;
        expect = `Pass;
        build_instance = matrix_instance ~algorithm ~capacity ~prefill threads;
      })
    standard_matrix

let extra_specs =
  [
    {
      algorithm = "sharded-llsc";
      scenario = "steal-sweep-2x2";
      descr = "2 shards x capacity 2, forced steal-sweep race (PR 3 facade)";
      progress = Props.Lock_free;
      expect = `Pass;
      build_instance = sharded_instance;
    };
    {
      algorithm = "evequoz-cas";
      scenario = "batch-commit";
      descr = "batch-run enqueue commit vs concurrent dequeue";
      progress = Props.Obstruction_free;
      expect = `Pass;
      build_instance =
        cas_instance ~capacity:2 ~prefill:[] [ [ Enq_batch [ 1; 2 ] ]; [ Deq ] ];
    };
    {
      algorithm = "evequoz-cas";
      scenario = "batch-drain";
      descr = "batch-run dequeue vs concurrent enqueue at the full boundary";
      progress = Props.Obstruction_free;
      expect = `Pass;
      build_instance =
        cas_instance ~capacity:2 ~prefill:[ 7; 8 ] [ [ Deq_batch 2 ]; [ Enq 1 ] ];
    };
    {
      algorithm = "evequoz-bw";
      scenario = "batch-commit";
      descr = "batch-run enqueue commit vs concurrent dequeue (BW cells)";
      progress = Props.Lock_free;
      expect = `Pass;
      build_instance =
        bw_instance ~capacity:2 ~prefill:[] [ [ Enq_batch [ 1; 2 ] ]; [ Deq ] ];
    };
    {
      algorithm = "evequoz-bw";
      scenario = "batch-drain";
      descr =
        "batch-run dequeue vs concurrent enqueue at the full boundary (BW \
         cells)";
      progress = Props.Lock_free;
      expect = `Pass;
      build_instance =
        bw_instance ~capacity:2 ~prefill:[ 7; 8 ] [ [ Deq_batch 2 ]; [ Enq 1 ] ];
    };
    {
      algorithm = "evequoz-seg";
      scenario = "grow-during-drain";
      descr =
        "segmented: appends (pool reuse included) raced against the \
         drain-retire hand-off on capacity-2 segments";
      progress = Props.Lock_free;
      expect = `Pass;
      build_instance =
        seg_instance ~capacity:2 ~prefill:[ 1; 2 ]
          [ [ Deq; Deq; Deq ]; [ Enq 3; Enq 4 ] ];
    };
    {
      algorithm = "evequoz-seg-noretire";
      scenario = "recycled-segment-read";
      descr =
        "seeded bug: retire skips the hazard hand-off, so a stalled \
         dequeuer observes the drained segment's recycled state";
      progress = Props.Lock_free;
      expect = `Violation;
      build_instance =
        seg_instance ~direct_free:true ~capacity:2 ~prefill:[ 1; 2; 3; 4 ]
          [ [ Deq ]; [ Deq; Deq; Deq ] ];
    };
    {
      algorithm = "scq-nothreshold";
      scenario = "deq-chase-livelock";
      descr =
        "seeded bug: no threshold budget, so a missed dequeue retries \
         unconditionally — slot bumps chase fresh tickets forever";
      progress = Props.Lock_free;
      expect = `Violation;
      build_instance = scq_nothreshold_instance;
    };
    {
      algorithm = "evequoz-bw-noscan";
      scenario = "recycled-buffer-aba";
      descr =
        "seeded bug: reclamation without the announcement scan recycles a \
         reserved buffer (pointer ABA loses an item)";
      progress = Props.Lock_free;
      expect = `Violation;
      build_instance = bw_noscan_instance;
    };
    {
      algorithm = "sim-wait";
      scenario = "park-wake";
      descr = "Blocking_ec dequeue parks; enqueue wakes (no lost wakeup)";
      progress = Props.Lock_free;
      expect = `Pass;
      build_instance = sim_wait_instance;
    };
    {
      algorithm = "sim-wait";
      scenario = "lost-wakeup";
      descr = "seeded bug: commit without the Dekker re-check strands waiter";
      progress = Props.Lock_free;
      expect = `Violation;
      build_instance = lost_wakeup_instance;
    };
    {
      algorithm = "toy-blocking";
      scenario = "spin-on-dead-flag";
      descr = "seeded bug: spin on a flag nobody sets, claimed lock-free";
      progress = Props.Lock_free;
      expect = `Violation;
      build_instance = toy_blocking_instance;
    };
  ]

let specs () =
  List.concat_map matrix_specs algorithms @ extra_specs

let spec_algorithms =
  algorithms
  @ [
      "sharded-llsc"; "evequoz-bw-noscan"; "evequoz-seg-noretire";
      "scq-nothreshold"; "sim-wait"; "toy-blocking";
    ]

let find ~algorithm ~scenario =
  List.find_opt
    (fun s -> s.algorithm = algorithm && s.scenario = scenario)
    (specs ())

let scenario_of_spec s () =
  let i = s.build_instance () in
  (i.Dpor.tasks, i.Dpor.check)

(* --- counterexample dump ------------------------------------------------- *)

let describe_foot = function
  | Sim.Exec.Access { Sim.loc; kind } ->
      Printf.sprintf "%s loc#%d"
        (match kind with `Read -> "read " | `Write -> "write")
        loc
  | Sim.Exec.Pure -> "yield"
  | Sim.Exec.Unstarted -> "start"

(* Re-execute a (counterexample) schedule printing every step's task and
   access, then a short fair continuation so liveness counterexamples show
   the loop they are stuck in, then the merged timeline of protocol events
   (probe hooks) in Nbq_trace's flight-recorder rendering — task index as
   the "domain", step number as the timestamp. *)
let dump_schedule spec schedule oc =
  Sim.reset_locations ();
  let inst = spec.build_instance () in
  let ex = Sim.Exec.start inst.Dpor.tasks in
  let stepno = ref 0 and cur = ref (-1) in
  let events = ref [] in
  trace_sink :=
    Some
      (fun ev ->
        events :=
          ( !cur,
            {
              Nbq_trace.Ring.tag = Nbq_trace.Record.obs_tag ev;
              ts = !stepno;
              span = 0;
              arg = 0;
            } )
          :: !events);
  Fun.protect
    ~finally:(fun () -> trace_sink := None)
    (fun () ->
      let buf = Buffer.create 512 in
      let do_step c =
        cur := c;
        let foot = Sim.Exec.pending ex c in
        ignore (Sim.Exec.step ex c : Sim.Exec.step_info);
        Buffer.add_string buf
          (Printf.sprintf "  step %-4d task %d  %s\n" !stepno c
             (describe_foot foot));
        incr stepno
      in
      Printf.fprintf oc "interleaving for %s/%s (%d scheduled steps):\n"
        spec.algorithm spec.scenario (List.length schedule);
      List.iter
        (fun c -> if List.mem c (Sim.Exec.enabled ex) then do_step c)
        schedule;
      if Sim.Exec.enabled ex <> [] then begin
        Buffer.add_string buf "  --- fair continuation (first 48 steps) ---\n";
        let cursor = ref 0 in
        (try
           for _ = 1 to 48 do
             match Sim.Exec.enabled ex with
             | [] -> raise Exit
             | en ->
                 let t =
                   match List.find_opt (fun i -> i >= !cursor) en with
                   | Some t -> t
                   | None -> List.hd en
                 in
                 cursor := t + 1;
                 do_step t
           done
         with Exit -> ())
      end;
      output_string oc (Buffer.contents buf);
      match List.rev !events with
      | [] -> ()
      | evs ->
          output_string oc
            "  protocol events (task as dom, step as timestamp):\n";
          output_string oc (Nbq_trace.Export.timeline_of ~time_unit:"st" evs);
          flush oc)
