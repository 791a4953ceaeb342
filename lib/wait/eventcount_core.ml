(* The eventcount protocol, abstracted over its environment.

   The algorithm (see eventcount.mli and DESIGN.md §10) only needs four
   things from the world: single-word atomics, a per-thread parker, the
   wall clock for deadlines and a monotonic clock for the spin budget.
   Functorizing over them lets the exact production protocol run under
   the model checker's simulated atomics and cooperative parker
   (Nbq_modelcheck.Sim_wait), where the no-lost-wakeup property is checked
   exhaustively — any divergence between what is verified and what ships
   would have to live in this file's ENV instantiation, which is five
   lines.

   Eventcount.{ml,mli} is the production instantiation and keeps its
   interface unchanged.

   Invariants maintained below:

   - wakers bump [seq] BEFORE touching the waiter stack, so a waker that
     dies mid-wake has already made its visit observable;
   - a waiter node's [state] moves 0 -> 1 (claimed by a waker) or
     0 -> 2 (withdrawn by its owner) exactly once, by CAS, and only the
     transition winner acts on it — the waker notifies the parker iff its
     0 -> 1 won, the owner counts a cancel iff its 0 -> 2 won;
   - nodes are unlinked lazily (wakers discard cancelled nodes while
     popping; cancellation pops its own node only when it is still the
     head; a threshold reap rebuilds the stack) so no path ever needs to
     excise from the middle of the list. *)

module type PARKER = sig
  type t

  val current : unit -> t
  val park : t -> [ `Notified | `Tick ]
  val notify : t -> unit
  val drain : t -> unit
end

module type ENV = sig
  module Atomic : Nbq_primitives.Atomic_intf.ATOMIC
  module Parker : PARKER

  val past : float -> bool
  (** [past d]: the wall clock has reached the absolute deadline [d] (the
      simulated env freezes the clock at 0).  A predicate rather than a
      clock read, so checking a deadline boxes no float. *)

  val spin_ns : int
  (** [await]'s pre-park spin budget, in nanoseconds of [now_ns].  0
      under simulation: [await] then goes straight to its park loop and
      never reads [now_ns].  The spin phase is pure scheduling noise
      there, and skipping it keeps the choice tree at its real protocol
      states. *)

  val now_ns : unit -> int
  (** A monotonic clock in nanoseconds that allocates nothing; it times
      the spin budget only. *)
end

module Hook = Nbq_primitives.Hook

module Make (E : ENV) = struct
  module Atomic = E.Atomic
  module Parker = E.Parker

  (* ATOMIC deliberately carries only the single-word primitives the paper
     assumes; exchange and increment are derived. *)
  let rec atomic_exchange a v =
    let cur = Atomic.get a in
    if Atomic.compare_and_set a cur v then cur else atomic_exchange a v

  let atomic_incr a = ignore (Atomic.fetch_and_add a 1 : int)

  type node = {
    parker : Parker.t;
    state : int Atomic.t; (* 0 waiting | 1 signaled | 2 cancelled *)
    mutable next : node option; (* written by owner before publish only *)
    born : int; (* [seq] snapshot at prepare *)
  }

  type waiter = node

  type t = {
    seq : int Atomic.t;
    head : node option Atomic.t;
    cancels : int Atomic.t; (* cancels since the last reap *)
    hit : Hook.point -> unit;
  }

  let create ?hook:((module H : Hook.S) = (module Hook.Noop)) () =
    {
      seq = Atomic.make 0;
      head = Atomic.make None;
      cancels = Atomic.make 0;
      hit = H.hit;
    }

  let seq t = Atomic.get t.seq

  (* ---- stack ---------------------------------------------------------- *)

  let rec push t n =
    let cur = Atomic.get t.head in
    n.next <- cur;
    if not (Atomic.compare_and_set t.head cur (Some n)) then push t n

  (* Best-effort physical removal on cancellation: only when our node is
     still the top of the stack (the common case — LIFO order means the
     most recent waiter cancels first). *)
  let pop_if_head t w =
    match Atomic.get t.head with
    | Some n as cur when n == w ->
        ignore (Atomic.compare_and_set t.head cur n.next : bool)
    | _ -> ()

  let reap_threshold = 64

  (* Once enough cancelled nodes may have accumulated mid-stack, detach the
     whole stack and re-push the still-waiting nodes.  While the stack is
     detached a concurrent [wake_one] can find it empty and return [false];
     that is safe because the wake bumped [seq] first, so every detached
     waiter notices the epoch change within one parker tick and re-checks
     its condition (the same backstop that covers crashed wakers). *)
  let maybe_reap t =
    if Atomic.get t.cancels >= reap_threshold then begin
      Atomic.set t.cancels 0;
      let rec repush = function
        | None -> ()
        | Some n ->
            let rest = n.next in
            if Atomic.get n.state = 0 then push t n;
            repush rest
      in
      match atomic_exchange t.head None with
      | None -> ()
      | detached ->
          repush detached;
          (* A waker that raced the detach window saw an empty stack and
             skipped its bump; this bump makes every repushed waiter
             withdraw and re-check within a tick, closing that hole. *)
          atomic_incr t.seq
    end

  let audit t =
    let rec walk waiting cancelled = function
      | None -> (waiting, cancelled)
      | Some n ->
          let s = Atomic.get n.state in
          walk
            (if s = 0 then waiting + 1 else waiting)
            (if s = 2 then cancelled + 1 else cancelled)
            n.next
    in
    walk 0 0 (Atomic.get t.head)

  (* ---- waiter side ---------------------------------------------------- *)

  let prepare_wait t =
    (* Snapshot [seq] before publishing: a wake landing between the read
       and the push is then guaranteed to look like an epoch change to
       [commit_wait], which errs toward an extra condition re-check. *)
    let born = Atomic.get t.seq in
    let w =
      { parker = Parker.current (); state = Atomic.make 0; next = None; born }
    in
    push t w;
    w

  (* Withdraw [w] (owner side).  Returns [true] if we won the 0 -> 2 race,
     [false] if a waker claimed the node first. *)
  let withdraw t w =
    if Atomic.compare_and_set w.state 0 2 then begin
      t.hit Hook.Wait_cancel;
      atomic_incr t.cancels;
      pop_if_head t w;
      maybe_reap t;
      true
    end
    else false

  let rec wake_one t =
    (* Empty-stack fast path, safe by the Dekker handshake: the caller made
       its condition true before this read, and a waiter publishes before
       re-checking the condition — so a waiter missing from the stack here
       will see the condition on its re-check and never sleep on it. *)
    match Atomic.get t.head with
    | None -> false
    | Some _ ->
        atomic_incr t.seq;
        t.hit Hook.Wake_lost;
        pop_and_signal t

  and pop_and_signal t =
    match Atomic.get t.head with
    | None -> false
    | Some n as cur ->
        if Atomic.compare_and_set t.head cur n.next then
          if Atomic.compare_and_set n.state 0 1 then begin
            t.hit Hook.Wait_wake;
            Parker.notify n.parker;
            true
          end
          else pop_and_signal t (* cancelled node: discard, keep looking *)
        else pop_and_signal t

  and cancel_wait t w =
    if not (withdraw t w) then begin
      (* A waker claimed us concurrently: its signal must not be swallowed
         — pass it on to another waiter.  The waker may also have notified
         our parker; clear the flag so it cannot satisfy this domain's
         next, unrelated wait.  (If the notify is still in flight the flag
         can be re-set after the drain; a stale notification only causes
         one spurious early tick on the next park, which is benign.) *)
      Parker.drain w.parker;
      ignore (wake_one t : bool)
    end

  let default_max_park = 32

  (* [past d]: the absolute deadline [d] has passed.  [infinity] is "no
     deadline" and never reads the clock. *)
  let past deadline = deadline < infinity && E.past deadline

  let rec sleep_loop t w ~deadline ~max_park slices =
    if Atomic.get w.state = 1 then `Woken
    else if Atomic.get t.seq <> w.born then begin
      (* The epoch moved under us: some wake happened (possibly one whose
         sender crashed before delivering a signal).  Withdraw and report
         [`Woken] so the caller re-checks its condition. *)
      ignore (withdraw t w : bool);
      `Woken
    end
    else if slices >= max_park then begin
      (* Slice cap: even a wakeup lost entirely outside the wait layer (a
         producer dying between its successful operation and its wake
         call) costs the sleeper at most [max_park] ticks before it
         re-checks its condition from scratch. *)
      ignore (withdraw t w : bool);
      `Woken
    end
    else if past deadline then if withdraw t w then `Timeout else `Woken
    else begin
      t.hit Hook.Wait_park;
      (match Parker.park w.parker with `Notified | `Tick -> ());
      sleep_loop t w ~deadline ~max_park (slices + 1)
    end

  let commit_wait ?(deadline = infinity) ?(max_park = default_max_park) t w =
    t.hit Hook.Park_window;
    let r = sleep_loop t w ~deadline ~max_park 0 in
    Parker.drain w.parker;
    r

  let wake_all t =
    match Atomic.get t.head with
    | None -> 0
    | Some _ ->
        atomic_incr t.seq;
        t.hit Hook.Wake_lost;
        let rec drain count = function
          | None -> count
          | Some n ->
              let count =
                if Atomic.compare_and_set n.state 0 1 then begin
                  t.hit Hook.Wait_wake;
                  Parker.notify n.parker;
                  count + 1
                end
                else count
              in
              drain count n.next
        in
        drain 0 (atomic_exchange t.head None)

  (* ---- the full wait loop --------------------------------------------- *)

  (* The spin phase polls [cond arg] at a fixed grain: [poll_relax]
     pauses (about 0.1 us) between polls, so a condition that comes true
     mid-spin is seen within about one grain.  Its budget is time, not a
     poll count, so the grain and the condition's own cost do not stretch
     it: the spin parks once [E.now_ns] reaches [until].  The clocks are
     read only every [clock_polls] polls (tens of microseconds), the
     deadline first and then the budget, and always after a poll of the
     condition; a deadline therefore overshoots, and the budget runs
     over, by at most that many polls.  The loop allocates
     nothing per poll.

     The loops below are top-level functions that carry the condition and
     its argument explicitly, and the condition's own [Some] is the
     result: a wait that needs no park allocates nothing. *)
  let poll_relax = 4
  let clock_polls = 256

  let rec spin_phase t ~deadline ~max_park cond arg ~until n =
    for _ = 1 to poll_relax do
      Domain.cpu_relax ()
    done;
    match cond arg with
    | Some _ as r -> r
    | None ->
        if n land (clock_polls - 1) <> 0 then
          spin_phase t ~deadline ~max_park cond arg ~until (n + 1)
        else if past deadline then None
        else if E.now_ns () >= until then
          park_loop t ~deadline ~max_park cond arg
        else spin_phase t ~deadline ~max_park cond arg ~until (n + 1)

  and park_loop t ~deadline ~max_park cond arg =
    match cond arg with
    | Some _ as r -> r
    | None -> (
        if past deadline then None
        else
          let w = prepare_wait t in
          (* The publish above and this re-check are the two halves of
             the Dekker handshake with the enqueuing side. *)
          match cond arg with
          | Some _ as r ->
              cancel_wait t w;
              r
          | None -> (
              match commit_wait ~deadline ~max_park t w with
              | `Woken -> park_loop t ~deadline ~max_park cond arg
              | `Timeout ->
                  (* One last try: the condition may have come true in the
                     same instant the deadline expired. *)
                  cond arg))

  let await ?(max_park = default_max_park) t ~deadline cond arg =
    match cond arg with
    | Some _ as r -> r
    | None ->
        if past deadline then None
        else if E.spin_ns <= 0 then park_loop t ~deadline ~max_park cond arg
        else
          spin_phase t ~deadline ~max_park cond arg
            ~until:(E.now_ns () + E.spin_ns) 1
end
