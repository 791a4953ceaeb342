module Queue_intf = Nbq_core.Queue_intf
module EC = Nbq_wait.Eventcount

type payload = { tag : int }

type instance = {
  enqueue : payload -> bool;
  dequeue : unit -> payload option;
  enqueue_batch : payload array -> int;
  dequeue_batch : int -> payload list;
  length : unit -> int;
  enqueue_until : deadline:float -> payload -> bool;
  dequeue_until : deadline:float -> payload option;
}

type family =
  | Array_based
  | Link_based
  | Lock_based
  | Sequential

type impl = {
  name : string;
  family : family;
  bounded : bool;
  bounded_delay_assumption : bool;
  relaxed_fifo : bool;
  create : capacity:int -> instance;
  create_probed : metrics:Nbq_obs.Metrics.t -> capacity:int -> instance;
  create_traced :
    metrics:Nbq_obs.Metrics.t option ->
    tracer:Nbq_trace.Recorder.t ->
    capacity:int ->
    instance;
}

(* Deadline-based blocking (the [*_until] fields) rides on a pair of
   eventcounts per instance: block on one, wake the other on success.  The
   plain [enqueue]/[dequeue] closures are left un-wrapped — they stay on
   the zero-overhead hot path the benchmarks measure — so wakes flow only
   between [*_until] callers; a parked [*_until] racing a plain-op peer is
   covered by the wait layer's bounded-park backstop instead of a prompt
   wake (DESIGN.md §10). *)
let until_ops ?hook ~enqueue ~dequeue () =
  let not_empty = EC.create ?hook () and not_full = EC.create ?hook () in
  let enqueue_until ~deadline p =
    match
      EC.await ~deadline not_full (fun () ->
          if enqueue p then Some () else None)
    with
    | `Ok () ->
        ignore (EC.wake_one not_empty : bool);
        true
    | `Timeout -> false
  and dequeue_until ~deadline =
    match EC.await ~deadline not_empty dequeue with
    | `Ok x ->
        ignore (EC.wake_one not_full : bool);
        Some x
    | `Timeout -> None
  in
  (enqueue_until, dequeue_until)

let singles_batches ~enqueue ~dequeue =
  ( (fun items ->
      let n = Array.length items in
      let i = ref 0 in
      while !i < n && enqueue items.(!i) do incr i done;
      !i),
    fun k ->
      let rec go acc left =
        if left <= 0 then List.rev acc
        else
          match dequeue () with
          | Some x -> go (x :: acc) (left - 1)
          | None -> List.rev acc
      in
      go [] k )

let basic_instance ?probe ~enqueue ~dequeue ~length () =
  let enqueue_until, dequeue_until =
    until_ops ?hook:probe ~enqueue ~dequeue ()
  in
  let enqueue_batch, dequeue_batch = singles_batches ~enqueue ~dequeue in
  {
    enqueue;
    dequeue;
    length;
    enqueue_batch;
    dequeue_batch;
    enqueue_until;
    dequeue_until;
  }

let instance_of ~hook (module Q : Queue_intf.CONC) ~capacity =
  let q = Q.create ~capacity in
  let enqueue p = Q.try_enqueue q p and dequeue () = Q.try_dequeue q in
  let enqueue_until, dequeue_until = until_ops ~hook ~enqueue ~dequeue () in
  {
    enqueue;
    dequeue;
    enqueue_batch = (fun items -> Q.try_enqueue_batch q items);
    dequeue_batch = (fun k -> Q.try_dequeue_batch q k);
    length = (fun () -> Q.length q);
    enqueue_until;
    dequeue_until;
  }

(* --- Observation: the one composition of hook, metrics and tracer ------

   A row is a hooked builder (the queue rebuilt with a hook threaded
   through its functor seams) plus a row kind that turns the built queue
   into an instance.  [observed] is the single place the three creation
   paths differ: [create] is the prebuilt no-op-hook queue, unwrapped;
   [create_probed] threads the metrics hub's hook into the algorithm and
   the wait layer and adds the shallow retry/latency wrapper;
   [create_traced] adds the recorder (its deep hook in full mode only —
   see [Nbq_trace.Instrument.hook]) and the span wrapper outermost. *)

module type OBSERVE = functor (Q : Queue_intf.CONC) ->
  Queue_intf.CONC with type 'a t = 'a Q.t

module Unobserved (Q : Queue_intf.CONC) = Q

let observed ?metrics ?tracer () :
    (module Nbq_primitives.Hook.S) * (module OBSERVE) =
  let hook : (module Nbq_primitives.Hook.S) =
    match (tracer, metrics) with
    | None, None -> (module Nbq_primitives.Hook.Noop)
    | None, Some m -> Nbq_obs.Metrics.probe m
    | Some tr, _ -> Nbq_trace.Instrument.hook ?metrics tr
  in
  let (module Meter : OBSERVE) =
    match metrics with
    | None -> (module Unobserved)
    | Some m ->
        (module Nbq_obs.Instrumented.Make (struct
          let metrics = m
        end))
  in
  let (module Span : OBSERVE) =
    match tracer with
    | None -> (module Unobserved)
    | Some tr ->
        (module Nbq_trace.Instrument.Wrap (struct
          let tracer = tr
        end))
  in
  (hook, (module functor (Q : Queue_intf.CONC) -> Span (Meter (Q))))

type builder = (module Nbq_primitives.Hook.S) -> (module Queue_intf.CONC)

(* A row kind: the hook, the observation wrapper and the built queue in,
   an instance out. *)
type kind =
  (module Nbq_primitives.Hook.S) ->
  (module OBSERVE) ->
  (module Queue_intf.CONC) ->
  capacity:int ->
  instance

let row ~name ~family ?(bounded_delay_assumption = false)
    ?(relaxed_fifo = false) ~(build : builder)
    ~(conc : (module Queue_intf.CONC))
    (kind : kind) =
  let module Q = (val conc) in
  let create_observed ?metrics ?tracer ~capacity () =
    let hook, observe = observed ?metrics ?tracer () in
    kind hook observe (build hook) ~capacity
  in
  {
    name;
    family;
    bounded = Q.bounded;
    bounded_delay_assumption;
    relaxed_fifo;
    create =
      (fun ~capacity ->
        kind (module Nbq_primitives.Hook.Noop) (module Unobserved) conc
          ~capacity);
    create_probed =
      (fun ~metrics ~capacity -> create_observed ~metrics ~capacity ());
    create_traced =
      (fun ~metrics ~tracer ~capacity ->
        create_observed ?metrics ~tracer ~capacity ());
  }

module Cap = Queue_intf.Capability
module Evequoz_llsc_weak_conc =
  Queue_intf.Make (Cap.Bounded (Nbq_core.Evequoz_llsc.On_weak_cells))
module Shann_conc = Queue_intf.Make (Cap.Bounded (Nbq_baselines.Shann))
module Tz_conc = Queue_intf.Make (Cap.Bounded (Nbq_baselines.Tsigas_zhang))
module Valois_conc = Queue_intf.Make (Cap.Bounded (Nbq_baselines.Valois))
module Lock_conc = Queue_intf.Make (Cap.Bounded (Nbq_baselines.Lock_queue))
module Seq_conc = Queue_intf.Make (Cap.Bounded (Nbq_baselines.Seq_ring))
module Ms_gc_conc =
  Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Michael_scott))
module Ms_hp_sorted_conc =
  Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Ms_hazard.Sorted))
module Ms_hp_unsorted_conc =
  Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Ms_hazard.Unsorted))
module Ms_ebr_conc = Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Ms_epoch.Conc))
module Ms_doherty_conc =
  Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Ms_doherty.Conc))
module Two_lock_conc =
  Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Two_lock_queue))
module Hw_conc = Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Herlihy_wing))
module Lms_conc =
  Queue_intf.Make (Cap.Unbounded (Nbq_baselines.Ladan_mozes_shavit))

(* --- Row kinds ------------------------------------------------------------ *)

(* The single-queue row. *)
let plain_kind : kind =
 fun hook (module O) (module Q) ~capacity ->
  instance_of ~hook (module O (Q)) ~capacity

(* Sharded front-ends (Nbq_scale.Sharded) relax global FIFO to per-shard
   FIFO ([relaxed_fifo]), so the battery skips its exact-linearizability
   cases for these rows and runs the relaxed suite (conservation,
   per-shard order, length bounds) instead.  They block through the
   facade's own waitable layer (per-shard eventcounts, home-first wake
   sweep) rather than the generic single-pair [until_ops], so a wake goes
   to the shard where the steal sweep would look for the waiter's item. *)
let sharded_instance ~hook ~(q : payload Nbq_scale.Sharded.t) ~enqueue
    ~dequeue ~enqueue_batch ~dequeue_batch ~length =
  let w = Nbq_scale.Sharded.waitable ~hook q in
  {
    enqueue;
    dequeue;
    enqueue_batch;
    dequeue_batch;
    length;
    enqueue_until =
      (fun ~deadline p ->
        match Nbq_scale.Sharded.enqueue_until w ~deadline p with
        | `Ok -> true
        | `Timeout -> false);
    dequeue_until =
      (fun ~deadline ->
        match Nbq_scale.Sharded.dequeue_until w ~deadline with
        | `Ok x -> Some x
        | `Timeout -> None);
  }

(* The "-shardN" row: the facade's functor veneer over N built queues,
   the hook wired into the sharding layer (steals) and its eventcounts as
   well as into the rings, and the observation wrappers around the whole
   facade — one span and one retry count per facade operation. *)
let sharded_kind ~shards : kind =
 fun hook (module O) (module Q) ~capacity ->
  let module H = (val hook) in
  let module F =
    Nbq_scale.Sharded.Make_probed
      (struct
        let shards = shards
      end)
      (H)
      (Q)
  in
  let module S = O (F) in
  let q = S.create ~capacity in
  sharded_instance ~hook ~q
    ~enqueue:(fun p -> S.try_enqueue q p)
    ~dequeue:(fun () -> S.try_dequeue q)
    ~enqueue_batch:(fun items -> S.try_enqueue_batch q items)
    ~dequeue_batch:(fun k -> S.try_dequeue_batch q k)
    ~length:(fun () -> S.length q)

(* The "-blocking" row: plain operations are the blocking wrapper's
   budget-0 attempts (same full/empty semantics as the try ops, but every
   success issues a wake), and the [*_until] operations are its real
   park-based paths — so the row exercises [Blocking_hooked]'s
   eventcounts end to end while staying battery-compatible. *)
let blocking_kind : kind =
 fun hook (module O) (module Q) ~capacity ->
  let module H = (val hook) in
  let module W = O (Q) in
  let module B = Queue_intf.Blocking_hooked (H) (W) in
  let b = B.create ~capacity in
  let enqueue p =
    match B.enqueue_budget b ~retries:0 p with `Ok -> true | `Timeout -> false
  in
  let dequeue () =
    match B.dequeue_budget b ~retries:0 with
    | `Ok x -> Some x
    | `Timeout -> None
  in
  let enqueue_batch, dequeue_batch = singles_batches ~enqueue ~dequeue in
  {
    enqueue;
    dequeue;
    enqueue_batch;
    dequeue_batch;
    length = (fun () -> W.length (B.queue b));
    enqueue_until =
      (fun ~deadline p ->
        match B.enqueue_until b ~deadline p with
        | `Ok -> true
        | `Timeout -> false);
    dequeue_until =
      (fun ~deadline ->
        match B.dequeue_until b ~deadline with
        | `Ok x -> Some x
        | `Timeout -> None);
  }

let of_conc ~name ~family ?bounded_delay_assumption ?relaxed_fifo
    (conc : (module Queue_intf.CONC)) =
  row ~name ~family ?bounded_delay_assumption ?relaxed_fifo
    ~build:(fun _ -> conc)
    ~conc plain_kind

let custom ~name ~family ?(bounded_delay_assumption = false) ?(bounded = false)
    create =
  {
    name;
    family;
    bounded;
    bounded_delay_assumption;
    relaxed_fifo = false;
    create;
    (* No queue module to rebuild or wrap: every creation path is the
       plain instance — callers still get workload-level retry counts. *)
    create_probed = (fun ~metrics:_ -> create);
    create_traced = (fun ~metrics:_ ~tracer:_ -> create);
  }

(* Any row behind the facade, at the instance level: [shards] instances of
   [base] built by the matching creation path, with the observation's hook
   on the sharding layer and its eventcounts. *)
let sharded ~shards (base : impl) : impl =
  if shards < 1 then invalid_arg "Registry.sharded: shards < 1";
  let facade hook create_inner ~capacity =
    let per = max 1 ((capacity + shards - 1) / shards) in
    let t =
      Nbq_scale.Sharded.create ~hook ~shards (fun _ ->
          let inst = create_inner ~capacity:per in
          Nbq_scale.Sharded.ops ~enq:inst.enqueue ~deq:inst.dequeue
            ~len:inst.length ~enq_batch:inst.enqueue_batch
            ~deq_batch:inst.dequeue_batch)
    in
    sharded_instance ~hook ~q:t
      ~enqueue:(fun p -> Nbq_scale.Sharded.try_enqueue t p)
      ~dequeue:(fun () -> Nbq_scale.Sharded.try_dequeue t)
      ~enqueue_batch:(fun items -> Nbq_scale.Sharded.try_enqueue_batch t items)
      ~dequeue_batch:(fun k -> Nbq_scale.Sharded.try_dequeue_batch t k)
      ~length:(fun () -> Nbq_scale.Sharded.length t)
  in
  {
    base with
    name = base.name ^ "-shard" ^ string_of_int shards;
    relaxed_fifo = true;
    create = facade (module Nbq_primitives.Hook.Noop) base.create;
    create_probed =
      (fun ~metrics ->
        facade (fst (observed ~metrics ())) (base.create_probed ~metrics));
    create_traced =
      (fun ~metrics ~tracer ->
        facade
          (fst (observed ?metrics ~tracer ()))
          (base.create_traced ~metrics ~tracer));
  }

(* --- Family descriptors --------------------------------------------------

   One record per algorithm family; [register_family] derives every row
   the registry publishes for it — base, "-shardN" facades, and a
   "-blocking" row over [Queue_intf.Blocking_hooked] — all through [row],
   from the family's hooked builder.  Adding an algorithm is one
   [Family.v] entry. *)

module Family = struct
  type nonrec builder = builder

  type t = {
    name : string;
    classification : family;
    bounded_delay_assumption : bool;
    relaxed_fifo : bool;
    build : builder;
    conc : (module Queue_intf.CONC);
    shards : int list;
    shard_build : builder option;
    blocking : bool;
  }

  let v ?(classification = Array_based) ?(bounded_delay_assumption = false)
      ?(relaxed_fifo = false) ?(shards = []) ?shard_build ?(blocking = false)
      name build =
    {
      name;
      classification;
      bounded_delay_assumption;
      relaxed_fifo;
      build;
      conc = build (module Nbq_primitives.Hook.Noop);
      shards;
      shard_build;
      blocking;
    }
end

let family_row (f : Family.t) ?(suffix = "") ?(relaxed_fifo = false)
    ?(build = f.build) ?(conc = f.conc) kind =
  row ~name:(f.name ^ suffix) ~family:f.classification
    ~bounded_delay_assumption:f.bounded_delay_assumption
    ~relaxed_fifo:(relaxed_fifo || f.relaxed_fifo) ~build ~conc kind

let shard_row (f : Family.t) =
  let build, conc =
    match f.shard_build with
    | None -> (f.build, f.conc)
    | Some b -> (b, b (module Nbq_primitives.Hook.Noop))
  in
  fun n ->
    family_row f ~suffix:("-shard" ^ string_of_int n) ~relaxed_fifo:true
      ~build ~conc (sharded_kind ~shards:n)

let register_family (f : Family.t) : impl list =
  (family_row f plain_kind :: List.map (shard_row f) f.shards)
  @ if f.blocking then [ family_row f ~suffix:"-blocking" blocking_kind ]
    else []

(* --- Hooked builders for the instrumentable families -------------------- *)

module Real = Nbq_primitives.Atomic_intf.Real

let unhooked (conc : (module Queue_intf.CONC)) : builder = fun _ -> conc

let evequoz_llsc : builder =
 fun hook ->
  let module H = (val hook) in
  let module Cell = Nbq_primitives.Llsc.Make_probed (Real) (H) in
  let module Q = Nbq_core.Evequoz_llsc.Make_probed (Cell) (H) in
  (module Queue_intf.Make (Cap.Bounded (Q)))

let evequoz_cas : builder =
 fun hook ->
  let module H = (val hook) in
  let module Core = Nbq_core.Evequoz_cas.Make_probed (Real) (H) in
  let module Q = Nbq_core.Evequoz_cas.With_implicit_handles (Core) in
  (module Queue_intf.Make (Cap.Bounded_batch (Q)))

(* The ring with its amortized batch runs (one ReRegister and one counter
   CAS per clean run) as the batch entry points: the spurious whole-run
   "full" a lagging counter can cause is exactly what a shard facade's
   steal sweep absorbs. *)
let evequoz_cas_runs : builder =
 fun hook ->
  let module H = (val hook) in
  let module Core = Nbq_core.Evequoz_cas.Make_probed (Real) (H) in
  let module R = Nbq_core.Evequoz_cas.With_implicit_handles (Core) in
  (module Queue_intf.Make (Cap.Bounded_batch (struct
    include R

    let try_enqueue_batch = R.try_enqueue_batch_runs
    let try_dequeue_batch = R.try_dequeue_batch_runs
  end)))

let evequoz_bw : builder =
 fun hook ->
  let module H = (val hook) in
  let module Core = Nbq_core.Evequoz_bw.Make_probed (Real) (H) in
  (module Queue_intf.Make (Cap.Bounded_batch (struct
    include Nbq_core.Evequoz_cas.With_implicit_handles (Core)

    let name = "evequoz-bw"
  end)))

(* Segmented rows: [capacity] becomes the *segment* capacity; the queue
   itself never rejects (Link_based, unbounded). *)
let evequoz_seg : builder =
 fun hook ->
  let module H = (val hook) in
  (module Nbq_segmented.Segmented.Conc
            (struct
              let name = "evequoz-seg"
            end)
            (Nbq_segmented.Segmented.Make_probed_cas (Real) (H)))

let evequoz_seg_bw : builder =
 fun hook ->
  let module H = (val hook) in
  (module Nbq_segmented.Segmented.Conc
            (struct
              let name = "evequoz-seg-bw"
            end)
            (Nbq_segmented.Segmented.Make_probed_bw (Real) (H)))

(* --- SCQ (Nikolaev, arXiv:1908.04511) ----------------------------------- *)

let scq : builder =
 fun hook ->
  let module H = (val hook) in
  let module S = Nbq_scq.Scq.Make_probed (Real) (H) in
  (module Queue_intf.Make (Cap.Bounded (S.Scq)))

let scqd : builder =
 fun hook ->
  let module H = (val hook) in
  let module S = Nbq_scq.Scq.Make_probed (Real) (H) in
  (module Queue_intf.Make (Cap.Bounded (S.Scqd)))

let scq_wcq : builder =
 fun hook ->
  let module H = (val hook) in
  let module S = Nbq_scq.Scq.Make_wcq_probed (Real) (H) in
  (module Queue_intf.Make (Cap.Bounded (S.Scq)))

(* --- The registered families -------------------------------------------- *)

(* The shard4/shard8 rows run the ring with its batch runs. *)
let evequoz_cas_family =
  Family.v "evequoz-cas" ~shards:[ 4; 8 ] ~shard_build:evequoz_cas_runs
    evequoz_cas

let sharded_evequoz_cas ~shards = shard_row evequoz_cas_family shards

let families : Family.t list =
  [
    Family.v "evequoz-llsc" evequoz_llsc;
    evequoz_cas_family;
    Family.v "evequoz-bw" ~shards:[ 4 ] evequoz_bw;
    Family.v "evequoz-llsc-weak" (unhooked (module Evequoz_llsc_weak_conc));
    Family.v "shann" (unhooked (module Shann_conc));
    Family.v "tsigas-zhang" (unhooked (module Tz_conc));
    Family.v "valois-dcas" (unhooked (module Valois_conc));
    Family.v "ms-gc" ~classification:Link_based (unhooked (module Ms_gc_conc));
    Family.v "ms-hp-sorted" ~classification:Link_based
      (unhooked (module Ms_hp_sorted_conc));
    Family.v "ms-hp-unsorted" ~classification:Link_based
      (unhooked (module Ms_hp_unsorted_conc));
    Family.v "ms-ebr" ~classification:Link_based
      (unhooked (module Ms_ebr_conc));
    Family.v "ms-doherty" ~classification:Link_based
      (unhooked (module Ms_doherty_conc));
    Family.v "herlihy-wing" (unhooked (module Hw_conc));
    Family.v "lms-optimistic" ~classification:Link_based
      (unhooked (module Lms_conc));
    Family.v "two-lock" ~classification:Lock_based
      (unhooked (module Two_lock_conc));
    Family.v "lock-ring" ~classification:Lock_based
      (unhooked (module Lock_conc));
    (* Segmented shards grow instead of shedding: the facade keeps its
       relaxed-FIFO contract but [try_enqueue] never sheds to a steal
       sweep on "full" — a shard's ring chain just grows.  The 1-shard
       row is the facade-overhead control: same code path, no relaxation
       benefit. *)
    Family.v "evequoz-seg" ~classification:Link_based ~shards:[ 1; 4 ]
      evequoz_seg;
    Family.v "evequoz-seg-bw" ~classification:Link_based evequoz_seg_bw;
    (* SCQ: plain, SCQD index-queue pairing, and the wCQ-style helping
       variant; the base row also derives a shard facade and a blocking
       row. *)
    Family.v "scq" ~shards:[ 4 ] ~blocking:true scq;
    Family.v "scq-d" scqd;
    Family.v "scq-wcq" scq_wcq;
    Family.v "seq-ring" ~classification:Sequential (unhooked (module Seq_conc));
  ]

let all = List.concat_map register_family families

let concurrent =
  List.filter (fun i -> i.family <> Sequential) all

let names () = List.map (fun i -> i.name) all

let find name =
  match List.find_opt (fun i -> i.name = name) all with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "unknown queue %S; valid names: %s" name
           (String.concat ", " (names ())))
