module Hook = Nbq_primitives.Hook
module Registry = Nbq_harness.Registry

type built = {
  enqueue : int -> bool;
  dequeue : unit -> int option;
  audit : unit -> Nbq_primitives.Llsc_cas.audit option;
}

type target = {
  name : string;
  deep_points : Hook.point list;
  build : ?tracer:Nbq_trace.Recorder.t -> Injector.t -> capacity:int -> built;
}

(* With a tracer, the flight recorder rides the same hook the injector
   uses, composed LEFT of it (the "entered the window" record must land
   before the stall/crash fires), so a post-mortem dump shows the protocol
   steps leading into the armed window. *)
let hook ?tracer inj =
  let h = Injector.hook inj in
  match tracer with
  | None -> h
  | Some tr -> Hook.compose (Nbq_trace.Recorder.hook tr) h

let name t = t.name

(* Every target additionally supports the harness-level between-operations
   stall; it is the only point available on uninstrumented (including
   lock-based) queues. *)
let points t = t.deep_points @ [ Hook.Op_gap ]

let build_cas ?tracer inj ~capacity =
  let module H = (val hook ?tracer inj) in
  let module Q =
    Nbq_core.Evequoz_cas.Make_probed (Nbq_primitives.Atomic_intf.Real) (H)
  in
  let q = Q.create ~capacity in
  (* Register and deregister around every operation so all three
     tag-protocol windows fire on each call — and so a crash anywhere
     inside abandons the handle acquired at entry, which is exactly the
     paper-§5 adversary the registry must tolerate. *)
  {
    enqueue =
      (fun v ->
        let h = Q.register q in
        let r = Q.enqueue_with q h v in
        Q.deregister h;
        r);
    dequeue =
      (fun () ->
        let h = Q.register q in
        let r = Q.dequeue_with q h in
        Q.deregister h;
        r);
    audit = (fun () -> Some (Q.audit q));
  }

(* The Blelloch–Wei backend under the same per-op register/deregister
   adversary as [build_cas].  [Tag_reregister] is deliberately absent from
   its point list: the constant-time protocol has no revalidation step, so
   there is no window to arm — that absence IS the claim under test. *)
let build_bw ?tracer inj ~capacity =
  let module H = (val hook ?tracer inj) in
  let module Q =
    Nbq_core.Evequoz_bw.Make_probed (Nbq_primitives.Atomic_intf.Real) (H)
  in
  let q = Q.create ~capacity in
  {
    enqueue =
      (fun v ->
        let h = Q.register q in
        let r = Q.enqueue_with q h v in
        Q.deregister h;
        r);
    dequeue =
      (fun () ->
        let h = Q.register q in
        let r = Q.dequeue_with q h in
        Q.deregister h;
        r);
    audit = (fun () -> Some (Q.audit q));
  }

let build_llsc ?tracer inj ~capacity =
  let module H = (val hook ?tracer inj) in
  let module Cell =
    Nbq_primitives.Llsc.Make_probed (Nbq_primitives.Atomic_intf.Real) (H)
  in
  let module Q = Nbq_core.Evequoz_llsc.Make_probed (Cell) (H) in
  let q = Q.create ~capacity in
  {
    enqueue = (fun v -> Q.try_enqueue q v);
    dequeue = (fun () -> Q.try_dequeue q);
    audit = (fun () -> None);
  }

let evequoz_cas =
  {
    name = "evequoz-cas";
    deep_points =
      [
        Hook.Ll_reserve;
        Hook.Slot_swap;
        Hook.Sc_attempt;
        Hook.Tag_register;
        Hook.Tag_reregister;
        Hook.Tag_deregister;
        Hook.Counter_bump;
      ];
    build = build_cas;
  }

let evequoz_bw =
  {
    name = "evequoz-bw";
    deep_points =
      [
        Hook.Ll_reserve;
        Hook.Slot_swap;
        Hook.Sc_attempt;
        Hook.Tag_register;
        Hook.Tag_deregister;
        Hook.Counter_bump;
      ];
    build = build_bw;
  }

let evequoz_llsc =
  {
    name = "evequoz-llsc";
    deep_points = [ Hook.Ll_reserve; Hook.Sc_attempt; Hook.Counter_bump ];
    build = build_llsc;
  }

(* The sharded facade over fault-injected CAS rings: every per-ring window
   of [build_cas] still fires (on whichever shard the operation lands),
   plus [Shard_steal] — the instant between a home-shard failure and the
   first foreign probe, where the victim holds no reservation on any ring
   and the steal-path progress claim is on trial. *)
let build_sharded_cas ~shards ?tracer inj ~capacity =
  let module H = (val hook ?tracer inj) in
  let module Q =
    Nbq_core.Evequoz_cas.Make_probed (Nbq_primitives.Atomic_intf.Real) (H)
  in
  let per = max 1 ((capacity + shards - 1) / shards) in
  let rings = Array.init shards (fun _ -> Q.create ~capacity:per) in
  (* Adversarial affinity: under the default domain-affine placement a
     paired enqueue/dequeue worker never leaves its home shard (its own
     item is always there), so the steal window would never open.  A
     shared round-robin home sends successive operations to successive
     shards, making cross-shard dequeues — and hence [Shard_steal] hits —
     the common case. *)
  let rr = Atomic.make 0 in
  let t =
    Nbq_scale.Sharded.create ~shards
      ~home:(fun () -> Atomic.fetch_and_add rr 1)
      ~hook:(module H)
      (fun i ->
        let q = rings.(i) in
        (* Register/deregister per op, as in [build_cas]: all tag windows
           fire and a crash abandons the handle on the shard it hit. *)
        Nbq_scale.Sharded.ops_of_singles
          ~enq:(fun v ->
            let h = Q.register q in
            let r = Q.enqueue_with q h v in
            Q.deregister h;
            r)
          ~deq:(fun () ->
            let h = Q.register q in
            let r = Q.dequeue_with q h in
            Q.deregister h;
            r)
          ~len:(fun () -> Q.length q))
  in
  {
    enqueue = (fun v -> Nbq_scale.Sharded.try_enqueue t v);
    dequeue = (fun () -> Nbq_scale.Sharded.try_dequeue t);
    audit =
      (fun () ->
        (* Sum the per-ring registries: the leak bound is aggregate. *)
        Some
          (Array.fold_left
             (fun (acc : Nbq_primitives.Llsc_cas.audit) q ->
               let a = Q.audit q in
               {
                 Nbq_primitives.Llsc_cas.registered =
                   acc.registered + a.Nbq_primitives.Llsc_cas.registered;
                 owned = acc.owned + a.owned;
                 free = acc.free + a.free;
               })
             { Nbq_primitives.Llsc_cas.registered = 0; owned = 0; free = 0 }
             rings));
  }

let evequoz_cas_sharded =
  {
    name = "evequoz-cas-shard4";
    deep_points =
      [
        Hook.Ll_reserve;
        Hook.Slot_swap;
        Hook.Sc_attempt;
        Hook.Tag_register;
        Hook.Tag_reregister;
        Hook.Tag_deregister;
        Hook.Counter_bump;
        Hook.Shard_steal;
      ];
    build = build_sharded_cas ~shards:4;
  }

(* The segmented unbounded queue over fault-injected CAS cells: every ring
   window fires inside whichever segment the operation lands on, plus the
   two chain windows — [Seg_append] (tail segment observed full, fresh
   segment not yet linked) and [Seg_retire] (successor observed, head not
   yet swung).  Per-op register/deregister as in [build_cas]; a crash
   additionally abandons the hazard record acquired at entry, so
   reclamation must tolerate a permanently published hazard.  The leak is
   bounded and item-free: segments pinned by dead readers are exhausted,
   so no enqueued item is ever stranded in one.  Segments are kept small
   so the chain appends and retires every few operations regardless of
   the harness capacity. *)
let build_seg ?tracer inj ~capacity =
  let module H = (val hook ?tracer inj) in
  let module Q =
    Nbq_segmented.Segmented.Make_probed_cas (Nbq_primitives.Atomic_intf.Real)
      (H)
  in
  let q = Q.create ~capacity:(min capacity 8) () in
  {
    enqueue =
      (fun v ->
        let h = Q.register q in
        let r = Q.enqueue_with q h v in
        Q.deregister q h;
        r);
    dequeue =
      (fun () ->
        let h = Q.register q in
        let r = Q.dequeue_with q h in
        Q.deregister q h;
        r);
    audit = (fun () -> None);
  }

let evequoz_seg =
  {
    name = "evequoz-seg";
    deep_points =
      [
        Hook.Ll_reserve;
        Hook.Slot_swap;
        Hook.Sc_attempt;
        Hook.Tag_register;
        Hook.Tag_reregister;
        Hook.Tag_deregister;
        Hook.Counter_bump;
        Hook.Seg_append;
        Hook.Seg_retire;
      ];
    build = build_seg;
  }

(* SCQ under injection: [Faa_cycle] freezes/kills a thread between taking
   its FAA ticket and touching the slot (the abandoned-ticket adversary —
   a dead enqueuer's ticket must be recoverable by the unsafe-bit/bump
   machinery, at worst costing one credit), [Threshold_reset] between a
   successful install and the threshold restore (other installs must keep
   re-arming the dequeuers' retry budget), and [Catchup] inside the tail-
   repair loop.  No registry: the ring is index-based, so [audit] is
   [None]; a crashed enqueuer can strand one credit, which the ±1 crash
   tolerance and the recovery roundtrip both absorb.  A crashed or frozen
   operation also stays counted in flight at the admission gate, so the
   survivors' "full" verdicts spin out the gate's bound before conceding.

   Capacity is clamped to 2: the catchup window only opens when a dequeue
   ticket misses with the ring near-empty (head about to overrun tail),
   and threshold churn peaks at the full boundary — at the harness's
   default 64 the paired workload opens neither often enough to arm a
   trigger, at 2 both fire hundreds of times per second. *)
let build_scq ?tracer inj ~capacity =
  let module H = (val hook ?tracer inj) in
  let module S =
    Nbq_scq.Scq.Make_probed (Nbq_primitives.Atomic_intf.Real) (H)
  in
  let q = S.Scq.create ~capacity:(min capacity 2) in
  {
    enqueue = (fun v -> S.Scq.try_enqueue q v);
    dequeue = (fun () -> S.Scq.try_dequeue q);
    audit = (fun () -> None);
  }

(* Same windows with the wCQ-style helping enqueue armed: a victim frozen
   inside its slow-path announcement must not block helpers, and a helper
   frozen mid-help must not block the announcer. *)
let build_scq_wcq ?tracer inj ~capacity =
  let module H = (val hook ?tracer inj) in
  let module S =
    Nbq_scq.Scq.Make_wcq_probed (Nbq_primitives.Atomic_intf.Real) (H)
  in
  let q = S.Scq.create ~capacity:(min capacity 2) in
  {
    enqueue = (fun v -> S.Scq.try_enqueue q v);
    dequeue = (fun () -> S.Scq.try_dequeue q);
    audit = (fun () -> None);
  }

let scq_points = [ Hook.Faa_cycle; Hook.Threshold_reset; Hook.Catchup ]
let scq = { name = "scq"; deep_points = scq_points; build = build_scq }

let scq_wcq =
  { name = "scq-wcq"; deep_points = scq_points; build = build_scq_wcq }

let deep_targets =
  [
    evequoz_llsc;
    evequoz_cas;
    evequoz_bw;
    evequoz_cas_sharded;
    evequoz_seg;
    scq;
    scq_wcq;
  ]

let generic_of_impl (impl : Registry.impl) =
  {
    name = impl.Registry.name;
    deep_points = [];
    build =
      (fun ?tracer _inj ~capacity ->
        let inst =
          match tracer with
          | None -> impl.Registry.create ~capacity
          | Some tracer ->
            impl.Registry.create_traced ~metrics:None ~tracer ~capacity
        in
        {
          enqueue = (fun v -> inst.Registry.enqueue { Registry.tag = v });
          dequeue =
            (fun () ->
              Option.map (fun p -> p.Registry.tag) (inst.Registry.dequeue ()));
          audit = (fun () -> None);
        });
  }

let targets () =
  let deep_names = List.map (fun t -> t.name) deep_targets in
  deep_targets
  @ List.filter_map
      (fun impl ->
        if List.mem impl.Registry.name deep_names then None
        else Some (generic_of_impl impl))
      Registry.concurrent

let find name' =
  List.find_opt (fun t -> t.name = name') (targets ())

(* --- One torture round --- *)

type outcome = {
  target : string;
  point : Hook.point;
  action : Injector.action;
  triggered : bool;
  survivors : int;
  min_survivor_ops : int;
  balance : int;
  conserved : bool;
  audit : Nbq_primitives.Llsc_cas.audit option;
  recovered : bool;
}

type worker = {
  ops : int Atomic.t;
  enq : int Atomic.t;
  deq : int Atomic.t;
  crashed : bool Atomic.t;
  dom : int Atomic.t;
}

let now () = Unix.gettimeofday ()

let run ?(workers = 4) ?(target_ops = 10_000) ?(capacity = 64)
    ?(trigger_after = 50) ?(timeout = 30.) ?tracer t ~point ~action =
  if workers < 2 then invalid_arg "Torture.run: workers < 2";
  if not (List.mem point (points t)) then
    invalid_arg
      (Printf.sprintf "Torture.run: %s has no %s point" t.name
         (Hook.to_string point));
  let inj = Injector.create () in
  let b = t.build ?tracer inj ~capacity in
  let module H = (val hook ?tracer inj) in
  Option.iter Nbq_trace.Recorder.arm tracer;
  let stop = Atomic.make false in
  let ws =
    Array.init workers (fun _ ->
        {
          ops = Atomic.make 0;
          enq = Atomic.make 0;
          deq = Atomic.make 0;
          crashed = Atomic.make false;
          dom = Atomic.make (-1);
        })
  in
  Injector.arm inj ~point ~action ~after:trigger_after;
  let body i w () =
    Atomic.set w.dom (Domain.self () :> int);
    let v = ref i in
    try
      while not (Atomic.get stop) do
        (* Op_gap is harness-level: fired here, between operations, rather
           than inside the queue's protocol, through the same composed hook
           (recorded before the injector acts). *)
        if point = Hook.Op_gap then H.hit Hook.Op_gap;
        v := !v + workers;
        if b.enqueue !v then Atomic.incr w.enq;
        Atomic.incr w.ops;
        (match b.dequeue () with
        | Some _ -> Atomic.incr w.deq
        | None -> ());
        Atomic.incr w.ops
      done
    with Injector.Crashed ->
      (* Thread death mid-protocol: no cleanup, no deregistration. *)
      Atomic.set w.crashed true
  in
  let doms = Array.mapi (fun i w -> Domain.spawn (body i w)) ws in
  let deadline = now () +. timeout in
  while (not (Injector.triggered inj)) && now () < deadline do
    Domain.cpu_relax ()
  done;
  let fired = Injector.triggered inj in
  let vict = Injector.victim inj in
  let is_victim w =
    match vict with Some id -> Atomic.get w.dom = id | None -> false
  in
  (* The progress oracle: with the victim frozen (or dead) inside the armed
     window, every other worker must still advance by [target_ops]
     operations — the lock-freedom claim made concrete. *)
  let snapshot = Array.map (fun w -> Atomic.get w.ops) ws in
  let survivors_done () =
    let ok = ref true in
    Array.iteri
      (fun i w ->
        if (not (is_victim w)) && Atomic.get w.ops - snapshot.(i) < target_ops
        then ok := false)
      ws;
    !ok
  in
  if fired then
    while (not (survivors_done ())) && now () < deadline do
      Domain.cpu_relax ()
    done;
  let min_survivor_ops =
    let m = ref max_int and any = ref false in
    Array.iteri
      (fun i w ->
        if not (is_victim w) then begin
          any := true;
          m := min !m (Atomic.get w.ops - snapshot.(i))
        end)
      ws;
    if !any then !m else 0
  in
  let survivors =
    Array.fold_left (fun n w -> if is_victim w then n else n + 1) 0 ws
  in
  Atomic.set stop true;
  Injector.release inj;
  Array.iter Domain.join doms;
  Injector.disarm inj;
  (* Conservation: everything successfully enqueued is either already
     dequeued or still drainable.  Exact after a stall (the released victim
     finishes its operation normally); a crashed thread's in-flight item
     may be silently present or lost, so the crash tolerance is +-1. *)
  let drained = ref 0 in
  let rec drain () =
    match b.dequeue () with
    | Some _ ->
        incr drained;
        drain ()
    | None -> ()
  in
  drain ();
  let total f = Array.fold_left (fun n w -> n + Atomic.get (f w)) 0 ws in
  let balance = !drained + total (fun w -> w.deq) - total (fun w -> w.enq) in
  let conserved =
    match action with
    | Injector.Stall -> balance = 0
    | Injector.Crash -> abs balance <= 1
  in
  (* Recovery: the structure must remain fully usable after the fault. *)
  let recovered =
    b.enqueue 424242
    && (match b.dequeue () with Some 424242 -> true | _ -> false)
  in
  {
    target = t.name;
    point;
    action;
    triggered = fired;
    survivors;
    min_survivor_ops;
    balance;
    conserved;
    audit = b.audit ();
    recovered;
  }
