module H = Nbq_lincheck.History
module C = Nbq_lincheck.Checker
module E = Nbq_obs.Event

type op = Enq of int | Deq | Peek | Enq_batch of int list | Deq_batch of int

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

(* One simulated thread's view of a queue: the calls its ops make.
   Handle-based queues register when the session opens (inside the
   explored schedule, like a fresh paper thread) and deregister on
   [close]. *)
type session = {
  enq : int -> bool;
  deq : unit -> int option;
  peek : (unit -> int option) option;
  enq_batch : (int array -> int) option;
  deq_batch : (int -> int list) option;
  close : unit -> unit;
}

let plain ?peek enq deq () =
  { enq; deq; peek; enq_batch = None; deq_batch = None; close = ignore }

let missing what = invalid_arg ("Scenarios: this algorithm has no " ^ what)

let record recorder ~thread s op =
  (match op with
  | Enq v ->
      ignore
        (H.record recorder ~thread (H.Enqueue v) (fun () ->
             if s.enq v then H.Accepted else H.Rejected))
  | Deq ->
      ignore
        (H.record recorder ~thread H.Dequeue (fun () ->
             match s.deq () with Some v -> H.Got v | None -> H.Observed_empty))
  | Peek -> (
      match s.peek with
      | None -> missing "peek"
      | Some peek ->
          ignore
            (H.record recorder ~thread H.Peek (fun () ->
                 match peek () with
                 | Some v -> H.Got v
                 | None -> H.Observed_empty)))
  | Enq_batch vs -> (
      match s.enq_batch with
      | None -> missing "batch enqueue"
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
      match s.deq_batch with
      | None -> missing "batch dequeue"
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

let lin_check ~capacity recorder =
  match C.check_linearizable ~capacity (H.events recorder) with
  | C.Ok -> ()
  | C.Violation msg -> failwith msg

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

let ints l = String.concat ";" (List.map string_of_int l)

(* Conservation, checked by draining (under [Sim.run_sequential]): what is
   left in the queue must be exactly what the history says is left.
   (Order of the remainder can be ambiguous when concurrent enqueues
   raced, so multisets are compared; FIFO order itself is the
   linearizability check's job.) *)
let conservation_check recorder deq =
  let expected = remaining_of_history (H.events recorder) in
  let drained = List.sort compare (drain_all deq) in
  if drained <> expected then
    failwith
      (Printf.sprintf "conservation: drained [%s] but history left [%s]"
         (ints drained) (ints expected))

(* --- the scenario shape -------------------------------------------------- *)

(* Every queue scenario: the prefill runs as a prologue recorded under one
   extra thread, then one task per op list, each in its own session.  A
   completed schedule must be linearizable against the FIFO spec of
   [spec_capacity] and conserve items (drained in a fresh session);
   [quiescent] adds the queue's own hygiene checks after the drain, and
   [invariant] is checked after every step. *)
let queue_instance ~spec_capacity ~session ?(quiescent = ignore) ?invariant
    ~prefill threads =
  let nthreads = List.length threads in
  let recorder = H.recorder ~threads:(nthreads + 1) in
  Sim.run_sequential (fun () ->
      let s = session () in
      List.iter (fun v -> record recorder ~thread:nthreads s (Enq v)) prefill;
      s.close ());
  let task i ops () =
    let s = session () in
    List.iter (record recorder ~thread:i s) ops;
    s.close ()
  in
  {
    Dpor.tasks = Array.of_list (List.mapi task threads);
    check =
      (fun () ->
        lin_check ~capacity:spec_capacity recorder;
        Sim.run_sequential (fun () ->
            let s = session () in
            conservation_check recorder s.deq;
            s.close ();
            quiescent ()));
    invariant = Option.map (fun f () -> Sim.run_sequential f) invariant;
  }

(* A queue driven through plain operations on fresh state: no handles, no
   internal invariant.  [make capacity] returns (enqueue, dequeue); an
   [unbounded] queue is checked against the unbounded FIFO spec. *)
let simple ?(unbounded = false) make ~capacity ~prefill threads () =
  let enq, deq = make capacity in
  queue_instance
    ~spec_capacity:(if unbounded then max_int else capacity)
    ~session:(plain enq deq) ~prefill threads

(* Algorithm 1 on the fresh-store cells it ships with. *)
module SimCell =
  Nbq_primitives.Llsc.Make_fresh_probed (Sim.Atomic) (Trace_hook)

module SimQ1 = Nbq_core.Evequoz_llsc.Make_probed (SimCell) (Trace_hook)
module SimQ2 = Nbq_core.Evequoz_cas.Make_probed (Sim.Atomic) (Trace_hook)
module SimShann = Nbq_baselines.Shann.Make (Sim.Atomic)
module SimMs = Nbq_baselines.Michael_scott.Make (Sim.Atomic)
module SimHw = Nbq_baselines.Herlihy_wing.Make (Sim.Atomic)
module SimValois = Nbq_baselines.Valois.Make (Sim.Atomic)

(* The segmented unbounded queue with ideal LL/SC cells inside each
   segment, so the explored state space is dominated by the chain protocol
   — append, retire, hazard hand-off, recycle — rather than by the cell
   backend already verified above. *)
module SimSegBackend = Nbq_primitives.Llsc_backend.Of_cell (SimCell)

module SimSeg =
  Nbq_segmented.Segmented.Make_backend (Sim.Atomic) (SimSegBackend)
    (Trace_hook)

(* Nikolaev's SCQ: the FAA-ticketed ring behind its admission gate.  The
   no-threshold variant disables the retry-budget counter — the seeded
   livelock the checker must convict: without it an empty-side
   dequeuer's slot bumps and the enqueuer's fresh tickets can chase each
   other forever. *)
module SimScq = Nbq_scq.Scq.Make_probed (Sim.Atomic) (Trace_hook)

module SimScqNothresh =
  Nbq_scq.Scq.Make_full
    (struct
      let threshold = false
    end)
    (Sim.Atomic)
    (Trace_hook)

(* The seeded null-ABA bug: fresh-store cells that claim to box their
   stores, so the ring vacates with the shared immediate [Empty].  An
   enqueuer stalled between its ll of a vacant slot and its sc then
   survives an enqueue and a dequeue of that slot: the sc finds [Empty]
   again and lands the item behind Head, where no dequeue will find it. *)
module SimQ1SharedEmpty =
  Nbq_core.Evequoz_llsc.Make_probed
    (struct
      include SimCell

      let fresh_stores = false
    end)
    (Trace_hook)

(* The same seeded bug on Algorithm 2: the tag protocol's cells store the
   ring's own blocks but claim to box their stores, so the ring vacates
   with the shared immediate [Empty].  A stale sc still fails (it expects
   its thread's marker, which any later ll replaces), but the batch
   path's commit expects the block it observed: an enqueuer stalled
   between observing a vacant slot and committing survives an enqueue
   and a dequeue of that slot and lands its item behind Head. *)
module SimQ2SharedEmpty =
  Nbq_core.Evequoz_ring.Make_probed
    (struct
      include Nbq_primitives.Llsc_cas.Backend (Sim.Atomic) (Trace_hook)

      let fresh_stores = false
    end)
    (Trace_hook)

(* --- per-algorithm instances --------------------------------------------- *)

(* Algorithm 1 (LL/SC), with a per-step index invariant. *)
module Llsc_instance (Q : Nbq_core.Evequoz_llsc.QUEUE) = struct
  let make ~capacity ~prefill threads () =
    let q = Q.create ~capacity in
    let cap = Nbq_core.Queue_intf.round_capacity capacity in
    queue_instance ~spec_capacity:capacity ~prefill threads
      ~session:
        (plain
           ~peek:(fun () -> Q.try_peek q)
           (Q.try_enqueue q)
           (fun () -> Q.try_dequeue q))
      ~invariant:(fun () ->
        let l = Q.tail_index q - Q.head_index q in
        if l < 0 || l > cap then
          failwith
            (Printf.sprintf "index invariant: tail-head = %d not in [0,%d]" l
               cap))
end

let llsc_instance = let module I = Llsc_instance (SimQ1) in I.make

(* The paper's ring behind explicit handles (Algorithm 2's tag protocol),
   with the batch-run paths.  Registration hygiene at quiescence: owned
   tag variables return to the post-prologue baseline, and the registry
   never outgrows the thread high-water mark (every simulated thread plus
   the prologue/drain handle — paper §5's space adaptivity), which is also
   a per-step invariant. *)
module Ring_instance (Q : Nbq_core.Evequoz_cas.CORE) = struct
  let make ~capacity ~prefill threads () =
    let q = Q.create ~capacity in
    let registry_cap = List.length threads + 1 in
    let registry_bound check =
      let size = Q.registry_size q in
      if size > registry_cap then
        failwith
          (Printf.sprintf "registry %s: %d tag vars allocated for %d threads"
             check size registry_cap)
    in
    let baseline_owned = ref 0 in
    let session () =
      let h = Q.register q in
      {
        enq = Q.enqueue_with q h;
        deq = (fun () -> Q.dequeue_with q h);
        peek = Some (fun () -> Q.peek_with q h);
        enq_batch = Some (Q.enqueue_batch_with q h);
        deq_batch = Some (Q.dequeue_batch_with q h);
        close = (fun () -> Q.deregister h);
      }
    in
    let inst =
      queue_instance ~spec_capacity:capacity ~session ~prefill threads
        ~quiescent:(fun () ->
          let owned = Q.owned_count q in
          if owned > !baseline_owned then
            failwith
              (Printf.sprintf
                 "registry hygiene: %d tag vars still owned at quiescence \
                  (baseline %d)"
                 owned !baseline_owned);
          registry_bound "hygiene")
        ~invariant:(fun () -> registry_bound "invariant")
    in
    (* The prologue has run: what it left owned is the baseline. *)
    baseline_owned := Sim.run_sequential (fun () -> Q.owned_count q);
    inst
end

module Cas_instance = Ring_instance (SimQ2)
module Cas_shared_empty_instance = Ring_instance (SimQ2SharedEmpty)

let cas_instance = Cas_instance.make

(* The segmented unbounded queue: [capacity] is the segment capacity, the
   linearizability spec is unbounded, and [retire_threshold 1] makes every
   retire scan immediately so recycling happens inside the explored
   window.  [direct_free] is the seeded bug (evequoz-seg-noretire): the
   head-advance winner frees the drained segment without the hazard scan.

   Strengthened checks on top of linearizability and conservation:
   - reclamation hygiene at quiescence: after every record has been
     reacquired and released once, no retired segment may still be
     pending (nothing protects them anymore);
   - as a per-step invariant, the memory bound — segment k exists only
     after segments 0..k-1 each accepted a full complement, so the live
     chain never exceeds total_items/capacity + 1 — and the per-segment
     index windows lap_base <= head <= tail <= lap_base + capacity, the
     FIFO-across-segments witness. *)
let seg_instance ~direct_free ~capacity ~prefill threads () =
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
  let session () =
    let h = SimSeg.register q in
    {
      (plain (SimSeg.enqueue_with q h) (fun () -> SimSeg.dequeue_with q h) ())
      with
      close = (fun () -> SimSeg.deregister q h);
    }
  in
  queue_instance ~spec_capacity:max_int ~session ~prefill threads
    ~quiescent:(fun () ->
      (* Acquire every hazard record at once, then release each: every
         release rescans its record's parked retirees, and with no hazard
         held anything still pending is a leak. *)
      let flush =
        List.init (List.length threads + 2) (fun _ -> SimSeg.register q)
      in
      List.iter (fun h -> SimSeg.deregister q h) flush;
      let pending = (SimSeg.stats q).Nbq_segmented.Segmented.retired_pending in
      if pending <> 0 then
        failwith
          (Printf.sprintf
             "reclamation hygiene: %d segments still retired at quiescence"
             pending))
    ~invariant:(fun () ->
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
             "segment bound: %d live segments for %d items of capacity %d \
              (max %d)"
             chain total_items cap max_chain))

(* --- the algorithms ------------------------------------------------------ *)

(* One entry per algorithm that runs on simulated atomics: its name, its
   declared progress guarantee and its instance builder.  The catalog is
   these entries × [standard_matrix], plus the extra specs below. *)
type entry = {
  name : string;
  progress : Props.progress;
  instance :
    capacity:int -> prefill:int list -> op list list -> unit -> Dpor.instance;
}

(* The paper's progress claims.  Algorithm 2 simulates LL/SC with CAS +
   tags: a reservation can be stolen and retaken forever under mutual
   interference, so its guarantee is obstruction freedom, not lock
   freedom (DESIGN.md §12 — the exhaustive pass finds no livelock under
   the *fair* continuation, but the adversarial one is real). *)
let llsc =
  {
    name = "evequoz-llsc";
    progress = Props.Lock_free;
    instance = llsc_instance;
  }

let cas =
  {
    name = "evequoz-cas";
    progress = Props.Obstruction_free;
    instance = cas_instance;
  }

let seg =
  {
    name = "evequoz-seg";
    progress = Props.Lock_free;
    instance = seg_instance ~direct_free:false;
  }

let shann =
  {
    name = "shann";
    progress = Props.Lock_free;
    instance =
      simple (fun capacity ->
          let q = SimShann.create ~capacity in
          (SimShann.try_enqueue q, fun () -> SimShann.try_dequeue q));
  }

(* SCQ's threshold counter bounds the dequeuers' retry budget, but an
   enqueuer's ticket can still be invalidated by each bump the budget
   pays for, so on the adversarial continuation we only claim progress in
   isolation; the exhaustive pass must come back clean under the step
   budget regardless (the conviction belongs to scq-nothreshold, which
   waives the counter and claims lock freedom). *)
let scq =
  {
    name = "scq";
    progress = Props.Obstruction_free;
    instance =
      simple (fun capacity ->
          let q = SimScq.create ~capacity in
          (SimScq.try_enqueue q, fun () -> SimScq.try_dequeue q));
  }

let entries =
  [
    llsc;
    cas;
    seg;
    shann;
    {
      name = "ms-gc";
      progress = Props.Lock_free;
      instance =
        simple ~unbounded:true (fun _ ->
            let q = SimMs.create () in
            ( (fun v ->
                SimMs.enqueue q v;
                true),
              fun () -> SimMs.try_dequeue q ));
    };
    (* Herlihy–Wing's dequeue is total (it waits for an enqueuer): blocking. *)
    {
      name = "herlihy-wing";
      progress = Props.Blocking;
      instance =
        simple ~unbounded:true (fun _ ->
            let q = SimHw.create () in
            ( (fun v ->
                SimHw.enqueue q v;
                true),
              fun () -> SimHw.try_dequeue q ));
    };
    {
      name = "valois-dcas";
      progress = Props.Lock_free;
      instance =
        simple (fun capacity ->
            let q = SimValois.create ~capacity in
            (SimValois.try_enqueue q, fun () -> SimValois.try_dequeue q));
    };
    scq;
  ]

let standard_matrix =
  [
    ("enq|enq", 2, [], [ [ Enq 1 ]; [ Enq 2 ] ]);
    ("enq|deq empty", 2, [], [ [ Enq 1 ]; [ Deq ] ]);
    ("enq|deq nonempty", 2, [ 100 ], [ [ Enq 1 ]; [ Deq ] ]);
    ("deq|deq", 4, [ 100; 200 ], [ [ Deq ]; [ Deq ] ]);
    ("enq|deq at full", 2, [ 100; 200 ], [ [ Enq 1 ]; [ Deq ] ]);
    ("2 ops each", 2, [], [ [ Enq 1; Deq ]; [ Enq 2; Deq ] ]);
  ]

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
               (ints drained) (ints expected)))
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

(* Two writers ping-ponging one cell forever, no operation ever completing:
   the fair probe cannot resolve them, so the divergence is a livelock
   witness, which convicts a lock-free claim (and is tolerated under an
   obstruction-free one). *)
let toy_livelock_instance () =
  let c = Sim.Atomic.make 0 in
  let spin i () =
    while true do
      Sim.Atomic.set c i
    done
  in
  { Dpor.tasks = [| spin 1; spin 2 |]; check = ignore; invariant = None }

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
  let q = SimScqNothresh.create ~capacity:1 in
  let recorder = H.recorder ~threads:2 in
  let s =
    plain (SimScqNothresh.try_enqueue q)
      (fun () -> SimScqNothresh.try_dequeue q)
      ()
  in
  let task i ops () = List.iter (record recorder ~thread:i s) ops in
  {
    Dpor.tasks = Array.of_list (List.mapi task [ [ Enq 1 ]; [ Deq; Deq ] ]);
    check = (fun () -> lin_check ~capacity:2 recorder);
    invariant = None;
  }

(* --- the catalog --------------------------------------------------------- *)

type spec = {
  algorithm : string;
  scenario : string;  (* slug, stable across sessions: the repro-line key *)
  descr : string;
  progress : Props.progress;
  expect :
    [ `Pass | `Violation of [ `Safety | `Liveness of [ `Stuck | `Livelock ] ] ];
  bound : int option;  (* None: DPOR; Some b: plain DFS, preemption bound b *)
  build_instance : unit -> Dpor.instance;
}

let slug name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    name

let spec ?bound ?(expect = `Pass) ~algorithm ~progress scenario descr
    build_instance =
  { algorithm; scenario; descr; progress; expect; bound; build_instance }

(* A spec for an entry: a matrix-style row, or a named one-off. *)
let row_spec ?bound (e : entry) (name, capacity, prefill, threads) =
  spec ?bound ~algorithm:e.name ~progress:e.progress (slug name)
    (Printf.sprintf "%s, capacity %d, %d threads" name capacity
       (List.length threads))
    (e.instance ~capacity ~prefill threads)

let entry_spec (e : entry) = spec ~algorithm:e.name ~progress:e.progress

(* A catalog-only pseudo-algorithm, claimed lock-free. *)
let lock_free = spec ~progress:Props.Lock_free

let peek_rows =
  [
    ("peek|deq", 4, [ 100; 200 ], [ [ Peek ]; [ Deq ] ]);
    ("peek|enq empty", 4, [], [ [ Peek ]; [ Enq 1 ] ]);
  ]

let three_threads = ("enq|enq|deq", 4, [], [ [ Enq 1 ]; [ Enq 2 ]; [ Deq ] ])

(* An enqueuer races a full enqueue-dequeue lap of the slot it reserved;
   the second dequeue must see its item. *)
let null_aba = ("enq|enq-deq-deq", 2, [], [ [ Enq 1 ]; [ Enq 2; Deq; Deq ] ])

(* The same race with the stalled enqueue on the batch path. *)
let null_aba_batch =
  ("enq-batch|enq-deq-deq", 2, [], [ [ Enq_batch [ 1 ] ]; [ Enq 2; Deq; Deq ] ])

let extra_specs =
  (* Peek raced against mutators, and a third thread. *)
  List.map (row_spec llsc) (peek_rows @ [ three_threads; null_aba ])
  @ List.map (row_spec cas) peek_rows
  @ [
      (* DPOR does not exhaust this tree within 2M schedules (the tag
         protocol's three-way reservation races); plain DFS under
         preemption bound 4 does, in 1 890 986 uncut schedules. *)
      row_spec ~bound:4 cas three_threads;
      row_spec shann three_threads;
      lock_free ~algorithm:"sharded-llsc" "steal-sweep-2x2"
        "2 shards x capacity 2, forced steal-sweep race (sharded facade)"
        sharded_instance;
      entry_spec cas "batch-commit"
        "batch-run enqueue commit vs concurrent dequeue"
        (cas.instance ~capacity:2 ~prefill:[]
           [ [ Enq_batch [ 1; 2 ] ]; [ Deq ] ]);
      entry_spec cas "batch-drain"
        "batch-run dequeue vs concurrent enqueue at the full boundary"
        (cas.instance ~capacity:2 ~prefill:[ 7; 8 ]
           [ [ Deq_batch 2 ]; [ Enq 1 ] ]);
      entry_spec seg "grow-during-drain"
        "segmented: appends (pool reuse included) raced against the \
         drain-retire hand-off on capacity-2 segments"
        (seg.instance ~capacity:2 ~prefill:[ 1; 2 ]
           [ [ Deq; Deq; Deq ]; [ Enq 3; Enq 4 ] ]);
      lock_free ~algorithm:"evequoz-seg-noretire" ~expect:(`Violation `Safety)
        "recycled-segment-read"
        "seeded bug: retire skips the hazard hand-off, so a stalled \
         dequeuer observes the drained segment's recycled state"
        (seg_instance ~direct_free:true ~capacity:2 ~prefill:[ 1; 2; 3; 4 ]
           [ [ Deq ]; [ Deq; Deq; Deq ] ]);
      (let name, capacity, prefill, threads = null_aba in
       lock_free ~algorithm:"evequoz-llsc-shared-empty"
         ~expect:(`Violation `Safety) (slug name)
         "seeded bug: fresh-store cells vacated with the shared immediate \
          Empty, so a stale sc on a vacant slot lands behind Head"
         (let module I = Llsc_instance (SimQ1SharedEmpty) in
          I.make ~capacity ~prefill threads));
      (let name, capacity, prefill, threads = null_aba_batch in
       lock_free ~algorithm:"evequoz-cas-shared-empty"
         ~expect:(`Violation `Safety) (slug name)
         "seeded bug: tag-protocol cells that store the ring's blocks, \
          vacated with the shared immediate Empty, so a stale batch commit \
          on a vacant slot lands behind Head"
         (Cas_shared_empty_instance.make ~capacity ~prefill threads));
      lock_free ~algorithm:"scq-nothreshold"
        ~expect:(`Violation (`Liveness `Livelock))
        "deq-chase-livelock"
        "seeded bug: no threshold budget, so a missed dequeue retries \
         unconditionally — slot bumps chase fresh tickets forever"
        scq_nothreshold_instance;
      lock_free ~algorithm:"sim-wait" "park-wake"
        "Blocking_ec dequeue parks; enqueue wakes (no lost wakeup)"
        sim_wait_instance;
      lock_free ~algorithm:"sim-wait"
        ~expect:(`Violation (`Liveness `Stuck))
        "lost-wakeup"
        "seeded bug: commit without the Dekker re-check strands waiter"
        lost_wakeup_instance;
      lock_free ~algorithm:"toy-blocking"
        ~expect:(`Violation (`Liveness `Stuck))
        "spin-on-dead-flag"
        "seeded bug: spin on a flag nobody sets, claimed lock-free"
        toy_blocking_instance;
      lock_free ~algorithm:"toy-livelock"
        ~expect:(`Violation (`Liveness `Livelock))
        "ping-pong"
        "seeded bug: two writers overwrite one cell forever, claimed \
         lock-free"
        toy_livelock_instance;
    ]

let specs () =
  List.concat_map (fun e -> List.map (row_spec e) standard_matrix) entries
  @ extra_specs

let algorithms =
  List.fold_left
    (fun acc s -> if List.mem s.algorithm acc then acc else s.algorithm :: acc)
    [] (specs ())
  |> List.rev

let find ~algorithm ~scenario =
  List.find_opt
    (fun s -> s.algorithm = algorithm && s.scenario = scenario)
    (specs ())

(* 60 steps, then the fair continuation, keeps DPOR's unbounded trees
   finite.  A bounded spec's schedules are finite already, so by default
   each runs to completion, as in the CHESS-style DFS. *)
let explore ?max_steps ?max_schedules ?(dpor = true) ?preemption_bound s =
  let preemption_bound =
    match preemption_bound with Some _ as b -> b | None -> s.bound
  in
  let max_steps =
    match max_steps with
    | Some n -> n
    | None -> if s.bound = None then 60 else 10_000
  in
  Dpor.explore
    ~dpor:(dpor && s.bound = None)
    ~preemption_bound ~max_steps ?max_schedules ~progress:s.progress
    s.build_instance

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
