module Barrier = Nbq_primitives.Barrier

type run_config = {
  threads : int;
  runs : int;
  workload : Workload.config;
  capacity : int option;
}

type measurement = {
  impl_name : string;
  threads_used : int;
  per_run_seconds : float list;
  summary : Stats.summary;
  full_retries : int;
  empty_retries : int;
  items : int;
  metrics : Nbq_obs.Metrics.snapshot option;
}

let one_run ?metrics ?tracer ?(batched = false) (impl : Registry.impl) cfg =
  let capacity =
    match cfg.capacity with
    | Some c -> c
    | None -> Workload.min_capacity cfg.workload ~threads:cfg.threads
  in
  let q =
    match (tracer, metrics) with
    | Some tr, _ -> impl.Registry.create_traced ~metrics ~tracer:tr ~capacity
    | None, Some m -> impl.Registry.create_probed ~metrics:m ~capacity
    | None, None -> impl.Registry.create ~capacity
  in
  let run_thread =
    if batched then Workload.run_thread_batched else Workload.run_thread
  in
  let barrier = Barrier.create ~parties:cfg.threads in
  let domains =
    List.init cfg.threads (fun thread ->
        Domain.spawn (fun () ->
            Barrier.await barrier;
            run_thread cfg.workload ~thread q))
  in
  List.map Domain.join domains

let measure ?metrics ?tracer ?batched impl cfg =
  if cfg.threads < 1 then invalid_arg "Runner.measure: threads < 1";
  (* One discarded run on a plain instance first: at small scales a cell
     lasts milliseconds, and the first timed run would otherwise absorb
     the process's warm-up (first domain spawns, heap growth). *)
  ignore (one_run ?batched impl cfg : Workload.thread_result list);
  let full = ref 0 and empty = ref 0 and items = ref 0 in
  let per_run =
    List.init cfg.runs (fun _ ->
        let results = one_run ?metrics ?tracer ?batched impl cfg in
        List.iter
          (fun (r : Workload.thread_result) ->
            full := !full + r.full_retries;
            empty := !empty + r.empty_retries;
            items := !items + r.items)
          results;
        Stats.mean
          (List.map (fun (r : Workload.thread_result) -> r.seconds) results))
  in
  let snapshot = Option.map Nbq_obs.Metrics.snapshot metrics in
  (* An instrumented queue counts its own failed operations; the workload's
     spin-loop counters see exactly the same [false]/[None] returns, so
     under instrumentation the snapshot is authoritative and the workload
     refs are the (equal) derived view.  Keep the snapshot values to make
     the two reporting paths consistent. *)
  let full_retries, empty_retries =
    match snapshot with
    | Some s ->
        ( Nbq_obs.Metrics.get s Nbq_obs.Event.Full_retry,
          Nbq_obs.Metrics.get s Nbq_obs.Event.Empty_retry )
    | None -> (!full, !empty)
  in
  {
    impl_name = impl.Registry.name;
    threads_used = cfg.threads;
    per_run_seconds = per_run;
    summary = Stats.summarize per_run;
    full_retries;
    empty_retries;
    items = !items;
    metrics = snapshot;
  }
