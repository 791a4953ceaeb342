(* The one ring algorithm (paper Fig. 3 = Fig. 5 modulo the cell
   primitive), over any Llsc_backend.  Historically Evequoz_llsc and
   Evequoz_cas were two near-copies specialized per cell contract; both
   are now thin instantiations of this functor, as is the Blelloch-Wei
   row. *)

module Hook = Nbq_primitives.Hook

module Make_probed (B : Nbq_primitives.Llsc_backend.S) (H : Hook.S) = struct
  (* [Consumed] only ever appears in single-lap (segment) mode, where a
     dequeue retires its slot instead of emptying it; the classic ring
     mode never produces it. *)
  type 'a slot = Empty | Item of 'a | Consumed

  type 'a handle = 'a slot B.handle

  type 'a t = {
    mask : int;
    slots : 'a slot B.t array;
    head : B.counter;
    tail : B.counter;
    registry : 'a slot B.registry;
    (* Single-lap mode: the counter value at which the current lap began.
       Plain mutable on purpose — it is written only by [recycle] under
       exclusive ownership (no concurrent reader can hold the ring), and
       its publication to the next lap's users happens-before through the
       atomic pointer CAS that re-attaches the segment. *)
    mutable lap_base : int;
  }

  let create ~capacity =
    let capacity = Queue_intf.round_capacity capacity in
    {
      mask = capacity - 1;
      slots = Array.init capacity (fun _ -> B.make Empty);
      head = B.make_counter 0;
      tail = B.make_counter 0;
      registry = B.create_registry ();
      lap_base = 0;
    }

  let capacity t = t.mask + 1

  let register t = B.register t.registry

  let deregister h = B.deregister h

  let registry_size t = B.registered_count t.registry

  let owned_count t = B.owned_count t.registry

  let audit t = B.audit t.registry

  let head_index t = B.counter_get t.head
  let tail_index t = B.counter_get t.tail

  (* Paper E12-E13 / D12-D17: advance a counter on behalf of a delayed
     thread.  A thread frozen at the [Counter_bump] window has updated (or
     decided to help on) a slot but not yet bumped the counter — the window
     that forces every other thread through the helping path. *)
  let help counter expected =
    H.hit Hook.Counter_bump;
    B.counter_advance counter expected

  (* Paper Fig. 3/Fig. 5 Enqueue.  [h] must have been re-registered for
     this operation already. *)
  let rec enqueue_loop t h x =
    let tl = B.counter_get t.tail in
    (* E6: full test.  Tail is monotonic, so at the instant Head is read
       the distance can only be >= the one computed — "full" is
       linearizable. *)
    if tl = B.counter_get t.head + t.mask + 1 then false
    else begin
      let cell = t.slots.(tl land t.mask) in
      let res = B.ll cell h in
      if B.counter_get t.tail = tl then
        (* E10 held: the reserved slot is still the one Tail designates. *)
        match B.res_value res with
        | Item _ | Consumed ->
            (* E11-E13: a delayed enqueuer filled the slot but has not yet
               advanced Tail; undo the reservation, help, retry. *)
            B.release cell h res;
            H.hit Hook.Tail_help;
            help t.tail tl;
            enqueue_loop t h x
        | Empty ->
            if B.sc cell h res (Item x) then begin
              (* The item is in the slot; a thread frozen here leaves Tail
                 lagging and everyone else must help (paper E11-E13). *)
              help t.tail tl;
              true
            end
            else begin
              H.hit Hook.Sc_fail;
              enqueue_loop t h x
            end
      else begin
        (* Tail moved under us: release the reservation and retry. *)
        B.release cell h res;
        enqueue_loop t h x
      end
    end

  let rec dequeue_loop t h =
    let hd = B.counter_get t.head in
    (* D6: empty test; same monotonicity argument as the full test. *)
    if hd = B.counter_get t.tail then None
    else begin
      let cell = t.slots.(hd land t.mask) in
      let res = B.ll cell h in
      if B.counter_get t.head = hd then
        match B.res_value res with
        | Empty | Consumed ->
            (* D11-D13: the item was removed but Head lags; help. *)
            B.release cell h res;
            H.hit Hook.Head_help;
            help t.head hd;
            dequeue_loop t h
        | Item x ->
            if B.sc cell h res Empty then begin
              help t.head hd;
              Some x
            end
            else begin
              H.hit Hook.Sc_fail;
              dequeue_loop t h
            end
      else begin
        B.release cell h res;
        dequeue_loop t h
      end
    end

  (* Extension (not in the paper): observe the front item.  The slot is
     read through the backend's linearizable unreserved read; Head
     monotonicity pins the linearization to the read instant. *)
  let rec peek_loop t h =
    let hd = B.counter_get t.head in
    if hd = B.counter_get t.tail then None
    else begin
      let v = B.read t.slots.(hd land t.mask) h in
      if B.counter_get t.head = hd then
        match v with
        | Item x -> Some x
        | Empty | Consumed ->
            (* Removed but Head lagging: help and retry. *)
            H.hit Hook.Head_help;
            help t.head hd;
            peek_loop t h
      else peek_loop t h
    end

  let enqueue_with t h x =
    B.reregister h;
    enqueue_loop t h x

  let dequeue_with t h =
    B.reregister h;
    dequeue_loop t h

  let peek_with t h =
    B.reregister h;
    peek_loop t h

  (* --- Single-lap (segment) mode (extension, not in the paper) ----------

     The segmented unbounded queue (lib/segmented) uses each ring as a
     use-once segment: every slot carries at most one item per lap
     ([Empty] -> [Item] -> [Consumed]) and the ring never wraps within a
     lap.  The payoff is that "full" becomes {e sticky} — once Tail has
     walked [capacity] slots past [lap_base], no Empty slot ever reappears
     in this incarnation, so a stale enqueuer retrying against a drained
     segment can never slip an item into it.  That stickiness is
     what makes the segment hand-off linearizable: an appended successor
     segment can only receive items after its predecessor took its full
     complement, and the predecessor can never take another.

     Because a lap never wraps, [fill_loop] needs no Head read at all (no
     full-vs-wrap ambiguity) and [take_loop]'s empty test keeps the
     paper's monotonicity argument unchanged. *)

  let lap_capacity t = t.mask + 1
  let lap_base t = t.lap_base

  (* Sticky full: Tail has passed every slot of this lap. *)
  let lap_filled t = B.counter_get t.tail - t.lap_base >= t.mask + 1

  (* All slots of this lap were filled and consumed; Head can only reach
     [lap_base + capacity] by passing [capacity] consumed slots. *)
  let lap_exhausted t = B.counter_get t.head - t.lap_base >= t.mask + 1

  let rec fill_loop t h x =
    let tl = B.counter_get t.tail in
    if tl - t.lap_base >= t.mask + 1 then false (* sticky full *)
    else begin
      let cell = t.slots.(tl land t.mask) in
      let res = B.ll cell h in
      if B.counter_get t.tail = tl then
        match B.res_value res with
        | Item _ | Consumed ->
            (* The slot Tail designates was already filled this lap (and
               possibly consumed since); Tail lags — help (E11-E13). *)
            B.release cell h res;
            H.hit Hook.Tail_help;
            help t.tail tl;
            fill_loop t h x
        | Empty ->
            if B.sc cell h res (Item x) then begin
              help t.tail tl;
              true
            end
            else begin
              H.hit Hook.Sc_fail;
              fill_loop t h x
            end
      else begin
        B.release cell h res;
        fill_loop t h x
      end
    end

  let rec take_loop t h =
    let hd = B.counter_get t.head in
    if hd = B.counter_get t.tail then None (* empty at the read instant *)
    else if hd - t.lap_base >= t.mask + 1 then None (* lap exhausted *)
    else begin
      let cell = t.slots.(hd land t.mask) in
      let res = B.ll cell h in
      if B.counter_get t.head = hd then
        match B.res_value res with
        | Empty | Consumed ->
            (* Consumed: taken but Head lags (D11-D13); help.  Empty is
               unreachable in a well-formed lap (Tail only passes filled
               slots), kept as the same helping arm defensively. *)
            B.release cell h res;
            H.hit Hook.Head_help;
            help t.head hd;
            take_loop t h
        | Item x ->
            if B.sc cell h res Consumed then begin
              help t.head hd;
              Some x
            end
            else begin
              H.hit Hook.Sc_fail;
              take_loop t h
            end
      else begin
        B.release cell h res;
        take_loop t h
      end
    end

  let fill_with t h x =
    B.reregister h;
    fill_loop t h x

  let take_with t h =
    B.reregister h;
    take_loop t h

  (* Reset a fully consumed segment for its next lap.  The caller must
     hold the ring exclusively (reclamation has proven no reader is left;
     any thread mid-operation here would still be publishing the segment
     in its hazard slot, so no reservation can be outstanding either);
     Head = Tail = lap_base + capacity at this point, so bumping the base
     by one capacity re-opens all slots without touching the monotonic
     counters.  Slots go back to [Empty] through the backend's
     exclusive-owner [reset] — the full ll/sc walk this replaced cost one
     reservation round-trip per slot, which amortized to a constant (and
     dominant) per-operation tax on the segmented queue's steady state. *)
  let recycle t =
    t.lap_base <- t.lap_base + t.mask + 1;
    Array.iter (fun cell -> B.reset cell Empty) t.slots

  (* --- Batch runs (extension, not in the paper) -------------------------

     A k-item batch is ONE operation: it re-registers once, then fills (or
     drains) a run of consecutive slots with one observe/commit CAS per
     slot, and publishes the whole run with a single counter CAS.  The
     guard re-read of the counter after each observe rejects slots the
     counter has already passed (the re-validation step of E5/D5, widened
     from "equal" to "not yet past this slot" because helpers may
     legitimately publish our own prefix while we are still filling); a
     commit can then only succeed while the slot is untouched since the
     observation, which pins each item's slot transition exactly as the
     paper's sc does.  Any interference — a foreign item or reservation in
     the run, a lost commit — publishes the clean prefix and falls back to
     the paper's per-item loop, so the batch degrades to a loop of singles
     under contention. *)

  (* Advance [counter] to [target], tolerating helpers: first try the
     one-shot CAS, then walk +1 like the helping paths do.  Callers only
     request targets whose slots they have already filled/emptied, so
     every intermediate bump is one the paper's helping rule would
     perform. *)
  let publish counter from target =
    H.hit Hook.Counter_bump;
    B.counter_publish counter ~from ~target

  let enqueue_batch_with t h items =
    B.reregister h;
    let total = Array.length items in
    let cap = t.mask + 1 in
    (* Paper path for whatever the fast path could not place. *)
    let rec slow i =
      if i >= total then total
      else if enqueue_loop t h (Array.unsafe_get items i) then slow (i + 1)
      else i
    in
    let rec fast accepted =
      if accepted >= total then total
      else begin
        let tl = B.counter_get t.tail in
        let hd = B.counter_get t.head in
        let free = cap - (tl - hd) in
        if free <= 0 then accepted (* full (conservative under head lag) *)
        else begin
          let n = min (total - accepted) free in
          let rec fill j =
            if j >= n then j
            else begin
              (* [land mask] keeps the index in bounds by construction. *)
              let cell = Array.unsafe_get t.slots ((tl + j) land t.mask) in
              let obs = B.observe cell h in
              (* Foreign item, a competing reservation, or the counter
                 already past this slot (a long preemption could hand us a
                 freed next-lap cell): reconcile via the paper path. *)
              if
                B.observed_holds obs Empty
                && B.counter_get t.tail - (tl + j) <= 0
              then
                if
                  B.commit cell h obs
                    (Item (Array.unsafe_get items (accepted + j)))
                then fill (j + 1)
                else begin
                  H.hit Hook.Sc_fail;
                  j
                end
              else j
            end
          in
          let filled = fill 0 in
          if filled > 0 then publish t.tail tl (tl + filled);
          if filled = n then fast (accepted + filled)
          else slow (accepted + filled)
        end
      end
    in
    fast 0

  let dequeue_batch_with t h k =
    B.reregister h;
    let rec slow left =
      if left <= 0 then []
      else
        match dequeue_loop t h with
        | Some x -> x :: slow (left - 1)
        | None -> []
    in
    (* Lists are built in queue order on the unwind (one cons per item, no
       final reverse); runs are bounded by [k], so the recursion depth is
       the caller's batch size. *)
    let rec fast got =
      if got >= k then []
      else begin
        let hd = B.counter_get t.head in
        let tl = B.counter_get t.tail in
        let n = min (k - got) (tl - hd) in
        if n <= 0 then [] (* empty (conservative under tail lag) *)
        else begin
          let taken = ref 0 in
          let clean = ref true in
          let rec fill j =
            if j >= n then []
            else begin
              let cell = Array.unsafe_get t.slots ((hd + j) land t.mask) in
              let obs = B.observe cell h in
              match B.observed_get obs with
              | Item x when B.counter_get t.head - (hd + j) <= 0 ->
                  if B.commit cell h obs Empty then begin
                    incr taken;
                    x :: fill (j + 1)
                  end
                  else begin
                    H.hit Hook.Sc_fail;
                    clean := false;
                    []
                  end
              | Empty | Item _ | Consumed ->
                  clean := false;
                  []
              | exception Not_found ->
                  (* A competing reservation in the run. *)
                  clean := false;
                  []
            end
          in
          let run = fill 0 in
          if !taken > 0 then publish t.head hd (hd + !taken);
          (* The common case — one clean run covering the whole demand —
             returns the run as built; list appends only happen when a run
             was cut short (interference or a momentarily short queue). *)
          if !clean && !taken >= k - got then run
          else if !clean then run @ fast (got + !taken)
          else run @ slow (k - got - !taken)
        end
      end
    in
    fast 0

  let length t =
    let n = B.counter_get t.tail - B.counter_get t.head in
    if n < 0 then 0 else if n > t.mask + 1 then t.mask + 1 else n
end

module Make (B : Nbq_primitives.Llsc_backend.S) = Make_probed (B) (Hook.Noop)
