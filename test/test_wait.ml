(* Tests for the parking/wakeup layer (nbq_wait): eventcount protocol
   bookkeeping (prepare/cancel hygiene, wake claiming and the cancel
   pass-on, seq fast paths), deadline semantics (a past deadline must
   never park), park-window cancellation leaving no dangling waiter, the
   parker's notify/tick behaviour, and cross-domain park/wake through
   [await]. *)

module EC = Nbq_wait.Eventcount
module Parker = Nbq_wait.Parker

let now = Unix.gettimeofday

(* A hook that runs [f] at point [p] and ignores every other point. *)
let on (p : Nbq_primitives.Hook.point) f : (module Nbq_primitives.Hook.S) =
  (module struct
    let hit q = if q = p then f ()
  end)

(* --- Deadline semantics --- *)

(* A deadline already in the past: one attempt, an immediate [`Timeout],
   and — the satellite requirement — no park. *)
let test_past_deadline_no_park () =
  let parks = ref 0 in
  let ec = EC.create ~hook:(on Wait_park (fun () -> incr parks)) () in
  let r = EC.await ~deadline:(now () -. 1.0) ec (fun () -> None) in
  Alcotest.(check bool) "timed out" true (r = `Timeout);
  Alcotest.(check int) "never parked" 0 !parks;
  let w, c = EC.audit ec in
  Alcotest.(check int) "no waiter left behind" 0 w;
  Alcotest.(check int) "any prepared waiter was cancelled, not leaked" c c

(* A past deadline still succeeds when the condition already holds. *)
let test_past_deadline_still_tries () =
  let ec = EC.create () in
  let r = EC.await ~deadline:(now () -. 1.0) ec (fun () -> Some 7) in
  Alcotest.(check bool) "one attempt made" true (r = `Ok 7)

(* --- Protocol bookkeeping --- *)

let test_wake_empty_fast_path () =
  let ec = EC.create () in
  let s0 = EC.seq ec in
  Alcotest.(check bool) "no waiter to wake" false (EC.wake_one ec);
  Alcotest.(check int) "empty wake skips the seq bump" s0 (EC.seq ec);
  Alcotest.(check int) "wake_all on empty wakes zero" 0 (EC.wake_all ec)

let test_prepare_cancel_hygiene () =
  let cancels = ref 0 in
  let ec = EC.create ~hook:(on Wait_cancel (fun () -> incr cancels)) () in
  let w = EC.prepare_wait ec in
  Alcotest.(check int) "published" 1 (fst (EC.audit ec));
  EC.cancel_wait ec w;
  Alcotest.(check int) "cancel hook fired" 1 !cancels;
  Alcotest.(check int) "no waiting node" 0 (fst (EC.audit ec));
  (* The withdrawn node must not swallow a later wake. *)
  Alcotest.(check bool) "nothing left to wake" false (EC.wake_one ec)

let test_wake_claims_and_cancel_passes_on () =
  let wakes = ref 0 in
  let ec = EC.create ~hook:(on Wait_wake (fun () -> incr wakes)) () in
  (* Two published waiters (same domain: bookkeeping only, nobody parks). *)
  let w1 = EC.prepare_wait ec in
  let w2 = EC.prepare_wait ec in
  Alcotest.(check int) "two published" 2 (fst (EC.audit ec));
  (* The wake claims one waiter (LIFO: w2).  Cancelling the claimed
     waiter must pass the wake on to w1 rather than drop it. *)
  Alcotest.(check bool) "wake claims a waiter" true (EC.wake_one ec);
  EC.cancel_wait ec w2;
  Alcotest.(check int) "wake passed on, not lost" 2 !wakes;
  Alcotest.(check int) "no waiting node remains" 0 (fst (EC.audit ec));
  EC.cancel_wait ec w1;
  Parker.drain (Parker.current ())

let test_wake_all_counts () =
  let ec = EC.create () in
  let ws = List.init 3 (fun _ -> EC.prepare_wait ec) in
  Alcotest.(check int) "wake_all signals every waiter" 3 (EC.wake_all ec);
  List.iter (fun w -> EC.cancel_wait ec w) ws;
  Parker.drain (Parker.current ())

(* --- Park-window cancellation hygiene (satellite d) --- *)

(* A fault stalls the waiter inside the park window long enough for its
   deadline to pass.  The timed wait must withdraw its own node: audit
   shows no dangling (claimable) waiter afterwards. *)
let test_cancel_during_park_window_fault () =
  let cancels = ref 0 in
  let ec =
    EC.create
      ~hook:
        (Nbq_primitives.Hook.compose
           (on Wait_cancel (fun () -> incr cancels))
           (on Park_window (fun () -> Unix.sleepf 0.03)))
      ()
  in
  let r = EC.await ~deadline:(now () +. 0.005) ec (fun () -> None) in
  Alcotest.(check bool) "timed out" true (r = `Timeout);
  Alcotest.(check int) "the node was withdrawn (cancelled)" 1 !cancels;
  let w, c = EC.audit ec in
  Alcotest.(check int) "no dangling waiter after the fault" 0 w;
  (* pop_if_head unlinks the freshly cancelled head immediately, so the
     stack holds no cancelled corpse either. *)
  Alcotest.(check int) "no cancelled corpse linked" 0 c;
  (* A subsequent wake finds a clean stack. *)
  Alcotest.(check bool) "wake after fault finds nothing" false (EC.wake_one ec)

(* Crash (not just stall) inside the park window, via the fault injector:
   the waiter dies mid-protocol and its node stays claimable — but a
   later waiter must still be wakeable past the corpse. *)
let test_crash_in_park_window_not_stranding () =
  let inj = Nbq_fault.Injector.create () in
  Nbq_fault.Injector.arm inj ~point:Nbq_primitives.Hook.Park_window
    ~action:Nbq_fault.Injector.Crash ~after:1;
  let ec = EC.create ~hook:(Nbq_fault.Injector.hook inj) () in
  let slot = Atomic.make 0 in
  let cond () = if Atomic.get slot = 1 then Some 1 else None in
  let victim =
    Domain.spawn (fun () ->
        match EC.await ~deadline:(now () +. 2.0) ec cond with
        | (_ : [ `Ok of int | `Timeout ]) -> false
        | exception Nbq_fault.Injector.Crashed -> true)
  in
  Alcotest.(check bool) "victim crashed mid-park" true (Domain.join victim);
  Alcotest.(check int) "corpse node left on the stack" 1 (fst (EC.audit ec));
  (* A live waiter behind the corpse still completes. *)
  let live =
    Domain.spawn (fun () -> EC.await ~deadline:(now () +. 2.0) ec cond)
  in
  Unix.sleepf 0.01;
  Atomic.set slot 1;
  ignore (EC.wake_one ec);
  ignore (EC.wake_one ec);
  Alcotest.(check bool) "live waiter not stranded" true
    (Domain.join live = `Ok 1)

(* --- Parker --- *)

let test_parker_notify_then_park () =
  let p = Parker.current () in
  Parker.drain p;
  Parker.notify p;
  Alcotest.(check bool) "pending notification consumed without sleeping" true
    (Parker.park p = `Notified);
  (* Notification is one-shot: the next park has nothing pending and
     returns on a ticker broadcast instead. *)
  Alcotest.(check bool) "unnotified park wakes on a tick" true
    (Parker.park p = `Tick)

let test_parker_cross_domain_notify () =
  let p = Parker.current () in
  Parker.drain p;
  let d = Domain.spawn (fun () -> Unix.sleepf 0.002; Parker.notify p) in
  (* Either we sleep and are notified, or (rarely) a tick lands first and
     the notification is left pending; both are liveness-safe.  What may
     not happen is a hang. *)
  let r = Parker.park p in
  Domain.join d;
  Parker.drain p;
  Alcotest.(check bool) "woke up" true (r = `Notified || r = `Tick)

(* --- Cross-domain await/wake --- *)

let test_await_cross_domain () =
  let ec = EC.create () in
  let slot = Atomic.make 0 in
  let cond () = let v = Atomic.get slot in if v > 0 then Some v else None in
  let waiter =
    Domain.spawn (fun () -> EC.await ~deadline:(now () +. 5.0) ec cond)
  in
  (* Let the waiter reach the parked state (past its spin phase). *)
  Unix.sleepf 0.01;
  Atomic.set slot 9;
  ignore (EC.wake_one ec);
  Alcotest.(check bool) "woken with the value" true (Domain.join waiter = `Ok 9)

let test_max_park_backstop () =
  (* No producer ever wakes us, the condition comes true silently: the
     bounded-park backstop must notice within ~max_park ticks. *)
  let ec = EC.create () in
  let slot = Atomic.make 0 in
  let cond () = if Atomic.get slot = 1 then Some 1 else None in
  let waiter =
    Domain.spawn (fun () ->
        EC.await ~deadline:(now () +. 10.0) ~max_park:3 ec cond)
  in
  Unix.sleepf 0.02;
  (* Make the condition true WITHOUT any wake: a wake lost entirely
     outside the wait layer. *)
  Atomic.set slot 1;
  Alcotest.(check bool) "backstop rescued the silent wake" true
    (Domain.join waiter = `Ok 1)

(* --- Blocking wrapper over an unbounded (segmented) queue ---

   The contract the segmented tentpole adds to the wait layer: an
   unbounded queue has no "full", so a blocking enqueue must never park —
   only an empty dequeue waits.  Counted through the wrapper's probe seam
   (one hit per actual park). *)

let parks = Atomic.make 0

module Park_probe = (val on Wait_park (fun () -> Atomic.incr parks))

module Seg_blocking =
  Nbq_core.Queue_intf.Blocking_hooked (Park_probe) (Nbq_segmented.Segmented.Cas)

let test_unbounded_enqueue_never_parks () =
  Atomic.set parks 0;
  (* Tiny segments: 500 enqueues churn through ~250 appends, every one of
     which would hit the "full" path on a fixed ring. *)
  let q = Seg_blocking.create ~capacity:2 in
  for i = 1 to 500 do
    Seg_blocking.enqueue q i
  done;
  Alcotest.(check int) "no enqueue ever parked" 0 (Atomic.get parks);
  (* Deadline variant on a full-looking tail: still no park. *)
  (match Seg_blocking.enqueue_until q ~deadline:(now () +. 5.0) 501 with
  | `Ok -> ()
  | `Timeout -> Alcotest.fail "unbounded enqueue timed out");
  Alcotest.(check int) "enqueue_until did not park" 0 (Atomic.get parks);
  for i = 1 to 501 do
    Alcotest.(check int) "fifo" i (Seg_blocking.dequeue q)
  done

let test_empty_dequeue_parks () =
  Atomic.set parks 0;
  let q = Seg_blocking.create ~capacity:2 in
  let consumer = Domain.spawn (fun () -> Seg_blocking.dequeue q) in
  (* Let the consumer exhaust its spin phase and actually park. *)
  let rec wait_for_park deadline =
    if Atomic.get parks = 0 && now () < deadline then begin
      Domain.cpu_relax ();
      wait_for_park deadline
    end
  in
  wait_for_park (now () +. 5.0);
  Alcotest.(check bool) "empty dequeue parked" true (Atomic.get parks > 0);
  Seg_blocking.enqueue q 42;
  Alcotest.(check int) "woken with the item" 42 (Domain.join consumer)

let () =
  Alcotest.run "nbq_wait"
    [
      ( "deadline",
        [
          Alcotest.test_case "past deadline never parks" `Quick
            test_past_deadline_no_park;
          Alcotest.test_case "past deadline still tries once" `Quick
            test_past_deadline_still_tries;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "empty wake fast path" `Quick
            test_wake_empty_fast_path;
          Alcotest.test_case "prepare/cancel hygiene" `Quick
            test_prepare_cancel_hygiene;
          Alcotest.test_case "cancel passes a claimed wake on" `Quick
            test_wake_claims_and_cancel_passes_on;
          Alcotest.test_case "wake_all counts waiters" `Quick
            test_wake_all_counts;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deadline during park-window stall" `Quick
            test_cancel_during_park_window_fault;
          Alcotest.test_case "crash in park window strands nobody" `Quick
            test_crash_in_park_window_not_stranding;
        ] );
      ( "parker",
        [
          Alcotest.test_case "notify then park" `Quick
            test_parker_notify_then_park;
          Alcotest.test_case "cross-domain notify" `Quick
            test_parker_cross_domain_notify;
        ] );
      ( "await",
        [
          Alcotest.test_case "cross-domain park and wake" `Quick
            test_await_cross_domain;
          Alcotest.test_case "max_park backstop" `Quick test_max_park_backstop;
        ] );
      ( "unbounded-blocking",
        [
          Alcotest.test_case "unbounded enqueue never parks" `Quick
            test_unbounded_enqueue_never_parks;
          Alcotest.test_case "empty dequeue parks" `Quick
            test_empty_dequeue_parks;
        ] );
    ]
