(* Torture rounds for the parking layer: arm Park_window / Wake_lost and
   check that no live parked domain is ever stranded.  See the .mli for
   the oracles; the rounds below are deliberately small and fresh —
   eventcount, injector, and domains are all per-round, so 10k rounds
   probe 10k independent first-fault schedules rather than one long
   history. *)

module Hook = Nbq_primitives.Hook
module EC = Nbq_wait.Eventcount

type outcome = {
  point : Hook.point;
  action : Injector.action;
  iterations : int;
  triggered : int;
  completed : int;
  max_wait : float;
}

let points = [ Hook.Park_window; Hook.Wake_lost ]

let now = Unix.gettimeofday

(* Take one item (a positive int) out of [slot], compare-and-swap so a
   victim and a live consumer can race for it safely. *)
let take slot () =
  let rec go () =
    let v = Atomic.get slot in
    if v <= 0 then None
    else if Atomic.compare_and_set slot v (v - 1) then Some v
    else go ()
  in
  go ()

(* Spin until [pred] holds or [deadline] passes.  Used to sequence the
   adversarial schedule: Wake_lost needs a published waiter before the
   wake (to get past wake_one's empty-stack fast path); Park_window needs
   the victim to have claimed the armed window before any other domain
   reaches it. *)
let wait_for ~deadline pred =
  let rec go () =
    if pred () then ()
    else if now () > deadline then ()
    else (
      Domain.cpu_relax ();
      go ())
  in
  go ()

let published ?(n = 1) ec () = fst (EC.audit ec) >= n

(* One Wake_lost round: a consumer parks on an empty slot; the producer
   fills the slot and crashes/stalls inside wake_one, after the seq bump
   but before signalling.  The consumer must still return [`Ok]. *)
let wake_lost_round ~action ~slack () =
  let inj = Injector.create () in
  Injector.arm inj ~point:Hook.Wake_lost ~action ~after:1;
  let ec = EC.create ~hook:(Injector.hook inj) () in
  let slot = Atomic.make 0 in
  let deadline = now () +. slack in
  let consumer =
    Domain.spawn (fun () ->
        let t0 = now () in
        let r = EC.await ~deadline ec (take slot) in
        (r, now () -. t0))
  in
  wait_for ~deadline (published ec);
  Atomic.set slot 1;
  let wake () = try ignore (EC.wake_one ec) with Injector.Crashed -> () in
  let waker =
    match action with
    | Injector.Crash ->
        wake ();
        None
    | Injector.Stall ->
        (* A stalled waker blocks until release, so it needs its own
           domain; the consumer must complete while it is still stuck. *)
        Some (Domain.spawn wake)
  in
  let result, waited = Domain.join consumer in
  Injector.release inj;
  Option.iter Domain.join waker;
  let ok = match result with `Ok 1 -> true | `Ok _ | `Timeout -> false in
  (Injector.triggered inj, ok, waited)

(* One Park_window round: a victim consumer crashes/stalls between
   publishing its waiter node and sleeping, leaving a claimable node on
   the stack.  The producer then supplies two items with two wakes —
   one wake may be swallowed by the victim's node — and a second, live
   consumer must still get an item. *)
let park_window_round ~action ~slack () =
  let inj = Injector.create () in
  Injector.arm inj ~point:Hook.Park_window ~action ~after:1;
  let ec = EC.create ~hook:(Injector.hook inj) () in
  let slot = Atomic.make 0 in
  let deadline = now () +. slack in
  let victim =
    Domain.spawn (fun () ->
        try ignore (EC.await ~deadline ec (take slot))
        with Injector.Crashed -> ())
  in
  (* The live consumer passes through the same hook, so it must not be
     spawned until the victim has claimed the armed window — otherwise
     the "live" domain could become the one stalled/crashed. *)
  wait_for ~deadline (fun () -> Injector.triggered inj);
  let live =
    Domain.spawn (fun () ->
        let t0 = now () in
        let r = EC.await ~deadline ec (take slot) in
        (r, now () -. t0))
  in
  (* The victim's node stays published (state: waiting) whether it
     crashed or is stalled pre-park, so the live waiter makes two. *)
  wait_for ~deadline (published ~n:2 ec);
  Atomic.set slot 2;
  ignore (EC.wake_one ec);
  ignore (EC.wake_one ec);
  let result, waited = Domain.join live in
  Injector.release inj;
  Domain.join victim;
  let ok = match result with `Ok _ -> true | `Timeout -> false in
  (Injector.triggered inj, ok, waited)

let run ?(iterations = 300) ?(deadline_slack = 2.0) ~point ~action () =
  let round =
    match point with
    | Hook.Wake_lost -> wake_lost_round ~action ~slack:deadline_slack
    | Hook.Park_window -> park_window_round ~action ~slack:deadline_slack
    | p ->
        invalid_arg
          (Printf.sprintf "Wait_torture.run: %s is not a wait-layer point"
             (Hook.to_string p))
  in
  let triggered = ref 0 and completed = ref 0 and max_wait = ref 0.0 in
  for _ = 1 to iterations do
    let t, ok, waited = round () in
    if t then incr triggered;
    if ok then incr completed;
    if waited > !max_wait then max_wait := waited
  done;
  { point; action; iterations; triggered = !triggered; completed = !completed;
    max_wait = !max_wait }
