(* Tests for the parking/wakeup layer (nbq_wait): eventcount protocol
   bookkeeping (prepare/cancel hygiene, wake claiming and the cancel
   pass-on, seq fast paths), deadline semantics (a past deadline must
   never park), park-window cancellation leaving no dangling waiter, the
   parker's notify/tick behaviour, cross-domain park/wake through
   [await], and the pre-park spin (no allocation per poll, deadlines
   honoured without parking, nothing allocated by a wait that is ready at
   once). *)

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
  let r = EC.await ec ~deadline:(now () -. 1.0) (fun () -> None) () in
  Alcotest.(check bool) "timed out" true (Option.is_none r);
  Alcotest.(check int) "never parked" 0 !parks;
  let w, c = EC.audit ec in
  Alcotest.(check int) "no waiter left behind" 0 w;
  Alcotest.(check int) "any prepared waiter was cancelled, not leaked" c c

(* A past deadline still succeeds when the condition already holds. *)
let test_past_deadline_still_tries () =
  let ec = EC.create () in
  let r = EC.await ec ~deadline:(now () -. 1.0) (fun () -> Some 7) () in
  Alcotest.(check (option int)) "one attempt made" (Some 7) r

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
  let r = EC.await ec ~deadline:(now () +. 0.005) (fun () -> None) () in
  Alcotest.(check bool) "timed out" true (Option.is_none r);
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
        match EC.await ec ~deadline:(now () +. 2.0) cond () with
        | (_ : int option) -> false
        | exception Nbq_fault.Injector.Crashed -> true)
  in
  Alcotest.(check bool) "victim crashed mid-park" true (Domain.join victim);
  Alcotest.(check int) "corpse node left on the stack" 1 (fst (EC.audit ec));
  (* A live waiter behind the corpse still completes. *)
  let live =
    Domain.spawn (fun () -> EC.await ec ~deadline:(now () +. 2.0) cond ())
  in
  Unix.sleepf 0.01;
  Atomic.set slot 1;
  ignore (EC.wake_one ec);
  ignore (EC.wake_one ec);
  Alcotest.(check (option int)) "live waiter not stranded" (Some 1)
    (Domain.join live)

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
    Domain.spawn (fun () -> EC.await ec ~deadline:(now () +. 5.0) cond ())
  in
  (* Let the waiter reach the parked state (past its spin phase). *)
  Unix.sleepf 0.01;
  Atomic.set slot 9;
  ignore (EC.wake_one ec);
  Alcotest.(check (option int)) "woken with the value" (Some 9)
    (Domain.join waiter)

let test_max_park_backstop () =
  (* No producer ever wakes us, the condition comes true silently: the
     bounded-park backstop must notice within ~max_park ticks. *)
  let ec = EC.create () in
  let slot = Atomic.make 0 in
  let cond () = if Atomic.get slot = 1 then Some 1 else None in
  let waiter =
    Domain.spawn (fun () ->
        EC.await ~max_park:3 ec ~deadline:(now () +. 10.0) cond ())
  in
  Unix.sleepf 0.02;
  (* Make the condition true WITHOUT any wake: a wake lost entirely
     outside the wait layer. *)
  Atomic.set slot 1;
  Alcotest.(check (option int)) "backstop rescued the silent wake" (Some 1)
    (Domain.join waiter)

(* --- Spin phase ---

   Before it parks, [await] polls its condition at a fixed grain for a
   fixed span of wall time.  Each poll must allocate nothing, a wait that
   ends inside the spin budget must never park, and the budget must not
   stretch with the cost of the condition. *)

let now_ns = Nbq_primitives.Clock.now_ns

(* Minor words for one [await] whose condition comes true [after_ns]
   after the call, which must not park.  The condition is timed by the
   clock, not counted in polls: the spin's budget is time, so a domain
   descheduled mid-spin may pass the budget before any given poll, but
   [await] re-polls before it parks, and a condition timed to come true
   well inside the budget is true by then. *)
let spin_cost after_ns =
  let parks = ref 0 in
  let ec = EC.create ~hook:(on Wait_park (fun () -> incr parks)) () in
  let cond until = if now_ns () >= until then Some until else None in
  let deadline = now () +. 5. in
  let w0 = Gc.minor_words () in
  let r = EC.await ec ~deadline cond (now_ns () + after_ns) in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int)
    (Printf.sprintf "a %d ns wait never parks" after_ns)
    0 !parks;
  Alcotest.(check bool) "condition met" true (Option.is_some r);
  words

let test_spin_allocates_nothing_per_poll () =
  let w_now = spin_cost 0 in
  let w_300us = spin_cost 300_000 in
  if Float.abs (w_300us -. w_now) > 16. then
    Alcotest.failf "a 300 us spin took %.0f minor words, an instant one %.0f"
      w_300us w_now

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Nanoseconds from the call of an [await] on [cond] to its first park,
   the least of 5 awaits: being descheduled only lengthens a spin.
   [cond] never comes true before that park and always after it, which
   ends the wait within one park slice. *)
let time_to_first_park cond =
  let once () =
    let first = ref 0 in
    let ec =
      EC.create
        ~hook:(on Wait_park (fun () -> if !first = 0 then first := now_ns ()))
        ()
    in
    let until_parked () = if !first <> 0 then Some () else cond () in
    let t0 = now_ns () in
    ignore
      (EC.await ~max_park:1 ec ~deadline:(now () +. 10.) until_parked ()
        : unit option);
    !first - t0
  in
  List.fold_left min max_int (List.init 5 (fun _ -> once ()))

(* A condition that costs about 1 us a call (40 pauses) polls about a
   tenth as often as a cheap one, yet both park after the same span of
   time: under a budget of polls the costly one would spin about twice
   as long. *)
let test_spin_budget_is_time () =
  let cheap () = None in
  let costly () =
    for _ = 1 to 40 do
      Domain.cpu_relax ()
    done;
    None
  in
  let t_cheap = time_to_first_park cheap in
  let t_costly = time_to_first_park costly in
  let ratio = float t_costly /. float t_cheap in
  if ratio >= 1.5 || ratio <= 1. /. 1.5 then
    Alcotest.failf "first park after %d ns (cheap) vs %d ns (costly): %.2fx"
      t_cheap t_costly ratio

(* The poll grain: 1000 polls of a condition that is false until its
   1001st call, timed from its first call to that one, the median of 5
   awaits: at 4 pauses a poll, well under 400 us. *)
let test_spin_grain () =
  let once () =
    let calls = ref 0 and t0 = ref 0 and t1 = ref 0 in
    let cond () =
      incr calls;
      if !calls = 1 then t0 := now_ns ();
      if !calls < 1001 then None
      else begin
        t1 := now_ns ();
        Some ()
      end
    in
    let ec = EC.create () in
    ignore
      (EC.await ~max_park:1 ec ~deadline:(now () +. 10.) cond ()
        : unit option);
    !t1 - !t0
  in
  let ns = median (List.init 5 (fun _ -> once ())) in
  if ns >= 400_000 then Alcotest.failf "1000 polls took %d ns" ns

(* A condition that holds on its first call: [await] returns the
   condition's own [Some] and allocates nothing itself, with a deadline or
   without one ([infinity], which never reads the clock). *)
let test_ready_await_allocates_nothing () =
  let ec = EC.create () in
  let ready = Some 1 in
  let cond r = r in
  let deadline = now () +. 60. in
  let words deadline =
    let n = 1_000 in
    for _ = 1 to n do
      ignore (EC.await ec ~deadline cond ready : int option)
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (EC.await ec ~deadline cond ready : int option)
    done;
    (Gc.minor_words () -. w0) /. float n
  in
  Alcotest.(check bool) "the condition's own Some" true
    (EC.await ec ~deadline cond ready == ready);
  Alcotest.(check (float 0.01)) "words per await, deadline" 0. (words deadline);
  Alcotest.(check (float 0.01)) "words per await, no deadline" 0.
    (words infinity)

(* A deadline well inside the spin budget ends the wait in the spin: a
   [`Timeout] no earlier than the deadline, and no park.  Should the
   domain be descheduled past the spin, [await] still checks the deadline
   before it prepares a waiter. *)
let test_spin_deadline_no_park () =
  let parks = ref 0 in
  let ec = EC.create ~hook:(on Wait_park (fun () -> incr parks)) () in
  let deadline = now () +. 0.0001 in
  let r = EC.await ec ~deadline (fun () -> None) () in
  let ended = now () in
  Alcotest.(check bool) "timed out" true (Option.is_none r);
  Alcotest.(check bool) "not before the deadline" true (ended >= deadline);
  Alcotest.(check int) "never parked" 0 !parks

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
      ( "spin",
        [
          Alcotest.test_case "spin allocates nothing per poll" `Quick
            test_spin_allocates_nothing_per_poll;
          Alcotest.test_case "deadline inside the spin never parks" `Quick
            test_spin_deadline_no_park;
          Alcotest.test_case "spin budget is time" `Quick
            test_spin_budget_is_time;
          Alcotest.test_case "spin grain" `Quick test_spin_grain;
          Alcotest.test_case "ready await allocates nothing" `Quick
            test_ready_await_allocates_nothing;
        ] );
      ( "unbounded-blocking",
        [
          Alcotest.test_case "unbounded enqueue never parks" `Quick
            test_unbounded_enqueue_never_parks;
          Alcotest.test_case "empty dequeue parks" `Quick
            test_empty_dequeue_parks;
        ] );
    ]
