(* The eventcount protocol, abstracted over its environment.

   The algorithm (see eventcount.mli and DESIGN.md §10) only needs three
   things from the world: single-word atomics, a per-thread parker, and a
   clock.  Functorizing over them lets the exact production protocol run
   under the model checker's simulated atomics and cooperative parker
   (Nbq_modelcheck.Sim_wait), where the no-lost-wakeup property is checked
   exhaustively — any divergence between what is verified and what ships
   would have to live in this file's ENV instantiation, which is four
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

  val now : unit -> float
  (** Wall clock for deadlines (the simulated env freezes it at 0). *)

  val default_spin : int
  (** [await]'s pre-park spin budget.  0 under simulation: the spin phase
      is pure scheduling noise there, and skipping it keeps the choice
      tree at its real protocol states. *)
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
    if Atomic.get t.head = None then false
    else begin
      atomic_incr t.seq;
      t.hit Hook.Wake_lost;
      pop_and_signal t
    end

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

  let commit_wait ?deadline ?(max_park = default_max_park) t w =
    t.hit Hook.Park_window;
    let rec sleep_loop slices =
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
      else
        match deadline with
        | Some d when E.now () >= d ->
            if withdraw t w then `Timeout else `Woken
        | _ ->
            t.hit Hook.Wait_park;
            (match Parker.park w.parker with `Notified | `Tick -> ());
            sleep_loop (slices + 1)
    in
    let r = sleep_loop 0 in
    Parker.drain w.parker;
    r

  let wake_all t =
    if Atomic.get t.head = None then 0
    else begin
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
    end

  (* ---- the full wait loop --------------------------------------------- *)

  let default_spin = E.default_spin

  let await ?(spin = default_spin) ?deadline ?max_park t cond =
    match cond () with
    | Some v -> `Ok v
    | None -> (
        let past () =
          match deadline with Some d -> E.now () >= d | None -> false
        in
        if past () then `Timeout
        else
          let b = Nbq_primitives.Backoff.create ~jitter:true () in
          let rec spin_phase n =
            if n <= 0 then `Spin_done
            else begin
              Nbq_primitives.Backoff.once b;
              match cond () with
              | Some v -> `Ok v
              | None -> if past () then `Timeout else spin_phase (n - 1)
            end
          in
          let rec park_loop () =
            match cond () with
            | Some v -> `Ok v
            | None ->
                if past () then `Timeout
                else
                  let w = prepare_wait t in
                  (* The publish above and this re-check are the two halves
                     of the Dekker handshake with the enqueuing side. *)
                  (match cond () with
                  | Some v ->
                      cancel_wait t w;
                      `Ok v
                  | None -> (
                      match commit_wait ?deadline ?max_park t w with
                      | `Woken -> park_loop ()
                      | `Timeout -> (
                          (* One last try: the condition may have come true
                             in the same instant the deadline expired. *)
                          match cond () with
                          | Some v -> `Ok v
                          | None -> `Timeout)))
          in
          match spin_phase spin with
          | (`Ok _ | `Timeout) as r -> r
          | `Spin_done -> park_loop ())
end
