(** SCQ — Nikolaev's scalable circular queue family (arXiv:1908.04511),
    with an opt-in wCQ-style (arXiv:2201.02179) slow-path helping mode for
    the enqueue side.

    Where the paper's 2008 queues arbitrate every slot with LL/SC (real or
    CAS-simulated), SCQ hands out {e tickets} with fetch-and-add: a ticket
    [T] names slot [T mod 2n] on cycle [T / 2n], and a slot accepts an item
    only from a ticket of a strictly newer cycle than the one stored in the
    slot itself.  A dequeuer whose reserved slot turns out empty does not
    spin on it — it invalidates the slot for its own cycle (or marks a
    parked item {e unsafe}) and moves on.  Two devices make this
    livelock-free and linearizable at the full/empty boundary:

    - {b catchup}: a dequeuer that overran the tail drags [tail] up to
      [head] so enqueuers never fight a stale tail;
    - {b threshold}: an upper bound (3n-1 for a ring of 2n slots holding at
      most n items) on how many failed dequeue attempts can occur after the
      last enqueue before emptiness is {e genuine}.  Every successful
      enqueue resets it; every failed dequeue attempt decrements it; a
      negative threshold is a linearizable "empty".

    The ring always has [2n] slots for at most [n] items, so an enqueue
    that holds a {e credit} never fails.  Exact bounded capacity comes from
    an admission gate that hands out [n] credits and answers "full" once
    no operation is in flight, or after a bounded spin (the paper's
    credit-ring pairing does not linearize "full"; see [Gate]):

    - {!Make_full.Scq} ("scq" / "scq-wcq"): a boxed-entry ring carrying the
      values directly, behind the gate.
    - {!Make_full.Scqd} ("scq-d"): the paper's SCQD — two packed-int index
      rings (free queue [fq] prefilled with [0..n-1], allocated queue [aq])
      around a plain data array, keeping the hot path allocation-free,
      behind the same gate.

    Everything is functorized over {!Nbq_primitives.Atomic_intf.ATOMIC} x
    hook like the Evequoz rings, so the identical code runs in production
    and under [Sim]/DPOR.  Hook points: [Sc_fail] = a slot CAS lost a
    race, [Tail_help] = a failed catchup CAS; the windows [Faa_cycle]
    (ticket taken, slot not yet read), [Threshold_reset] (item installed,
    threshold not yet restored; counted as a head help on behalf of
    stalled dequeuers) and [Catchup] (inside the tail-repair loop). *)

module Hook = Nbq_primitives.Hook
module Atomic_intf = Nbq_primitives.Atomic_intf

(** Compile-time knobs.  [threshold = false] is the seeded modelcheck bug
    ("scq-nothreshold"): no retry budget at all, so the dequeuer's miss
    path treats every miss as a race it merely lost and goes again —
    never conceding emptiness.  An empty-side dequeuer then chases the
    enqueuer's fresh tickets, and once they stop, its own slot bumps,
    forever: the livelock shape the threshold counter exists to cut off,
    and the one the DPOR liveness layer must convict.  [helping = true]
    turns on the wCQ-style announcement table on the boxed ring's enqueue
    side; [slow_after] is how many fast-path tickets an enqueuer burns
    before announcing. *)
module type CONFIG = sig
  val threshold : bool
  val helping : bool
  val slow_after : int
end

module Default_config : CONFIG = struct
  let threshold = true
  let helping = false
  let slow_after = 4
end

module Helping_config : CONFIG = struct
  let threshold = true
  let helping = true
  let slow_after = 4
end

module Make_full
    (C : CONFIG)
    (A : Atomic_intf.ATOMIC)
    (H : Hook.S) =
struct
  (* ----------------------------------------------------------------- *)
  (* Packed-int index ring: cycle | safe | index in one immediate int. *)
  (* ----------------------------------------------------------------- *)

  (** The SCQ ring specialized to small-int payloads (array indices), the
      shape the paper's SCQD uses for both [fq] and [aq].  A ring for
      capacity [n] (power of two) has [2n] slots; an entry packs
      [(cycle << (sbits+1)) | (safe << sbits) | index] with
      [sbits = log2 (2n)], and the reserved index [2n-1] is ⊥ (data
      indices are [< n], so they never collide with it). *)
  module Iring = struct
    type t = {
      entries : int A.t array;
      head : int A.t;
      tail : int A.t;
      threshold : int A.t;
      mask : int;  (** [2n - 1] *)
      sbits : int;  (** [log2 (2n)]: ticket bits below the cycle *)
      threshold_max : int;  (** [3n - 1] *)
    }

    let bot t = t.mask
    let pack t ~cycle ~safe ~index =
      (cycle lsl (t.sbits + 1)) lor ((if safe then 1 else 0) lsl t.sbits)
      lor index

    let ecycle t e = e lsr (t.sbits + 1)
    let esafe t e = (e lsr t.sbits) land 1 = 1
    let eindex t e = e land t.mask
    let cycle_of t tkt = tkt lsr t.sbits
    let pos_of t tkt = tkt land t.mask

    (* [prefill] installs indices [0..prefill-1] directly as cycle-1
       entries (head at cycle 1, tail past them), so [create] performs no
       CAS/FAA traffic and is safe to call outside a simulation run. *)
    let create ~n ~prefill =
      let m = 2 * n in
      let sbits =
        let rec go b = if 1 lsl b >= m then b else go (b + 1) in
        go 1
      in
      let t =
        {
          entries = [||];
          head = A.make m;
          tail = A.make (m + prefill);
          threshold =
            A.make (if prefill = 0 then -1 else (3 * n) - 1);
          mask = m - 1;
          sbits;
          threshold_max = (3 * n) - 1;
        }
      in
      let entries =
        Array.init m (fun j ->
            A.make
              (if j < prefill then pack t ~cycle:1 ~safe:true ~index:j
               else pack t ~cycle:0 ~safe:true ~index:t.mask))
      in
      { t with entries }

    (* Paper Fig. 5, catchup: drag [tail] up to [head] after a dequeuer
       overran it, so enqueuers never test fullness against a stale tail. *)
    let catchup t tl hd =
      let rec go tl =
        H.hit Hook.Catchup;
        if not (A.compare_and_set t.tail tl hd) then begin
          H.hit Hook.Tail_help;
          let tl = A.get t.tail in
          if tl < hd then go tl
        end
      in
      go tl

    let reset_threshold t =
      if C.threshold && A.get t.threshold <> t.threshold_max then begin
        H.hit Hook.Threshold_reset;
        A.set t.threshold t.threshold_max
      end

    (** Insert [index].  Never fails: the ring has [2n] slots and the
        callers (credit pools, SCQD) keep at most [n] indices inside. *)
    let enqueue t index =
      let rec fresh () =
        let tkt = A.fetch_and_add t.tail 1 in
        H.hit Hook.Faa_cycle;
        with_ticket tkt (A.get t.entries.(pos_of t tkt))
      and with_ticket tkt e =
        let cyc = cycle_of t tkt and j = pos_of t tkt in
        if
          ecycle t e < cyc
          && eindex t e = bot t
          && (esafe t e || A.get t.head <= tkt)
        then
          if
            A.compare_and_set t.entries.(j) e
              (pack t ~cycle:cyc ~safe:true ~index)
          then reset_threshold t
          else begin
            H.hit Hook.Sc_fail;
            with_ticket tkt (A.get t.entries.(j))
          end
        else fresh ()
      in
      fresh ()

    (** Remove the oldest index, or [None] on a linearizable "empty". *)
    let dequeue t =
      if C.threshold && A.get t.threshold < 0 then None
      else begin
        let rec fresh () =
          let tkt = A.fetch_and_add t.head 1 in
          H.hit Hook.Faa_cycle;
          attempt tkt
        and attempt tkt =
          let j = pos_of t tkt and cyc = cycle_of t tkt in
          let e = A.get t.entries.(j) in
          if ecycle t e = cyc then consume tkt e
          else begin
            (* Not ours: bump an empty slot to our cycle (its enqueuer's
               ticket is dead) or mark a parked older-cycle item unsafe,
               then account the miss. *)
            let keep =
              if eindex t e = bot t then
                pack t ~cycle:cyc ~safe:(esafe t e) ~index:(bot t)
              else pack t ~cycle:(ecycle t e) ~safe:false ~index:(eindex t e)
            in
            if ecycle t e < cyc && not (A.compare_and_set t.entries.(j) e keep)
            then begin
              H.hit Hook.Sc_fail;
              attempt tkt
            end
            else miss tkt
          end
        and consume tkt e =
          (* The paper clears the index with a fetch-or; emulated with a
             CAS loop (only the safe bit can change under us: a newer-cycle
             dequeuer marking the parked item unsafe). *)
          let j = pos_of t tkt and cyc = cycle_of t tkt in
          if
            A.compare_and_set t.entries.(j) e
              (pack t ~cycle:cyc ~safe:(esafe t e) ~index:(bot t))
          then Some (eindex t e)
          else begin
            H.hit Hook.Sc_fail;
            consume tkt (A.get t.entries.(j))
          end
        and miss tkt =
          let tl = A.get t.tail in
          if tl <= tkt + 1 then begin
            catchup t tl (tkt + 1);
            if C.threshold then begin
              ignore (A.fetch_and_add t.threshold (-1) : int);
              None
            end
            else fresh () (* seeded: no budget, no empty verdict *)
          end
          else if C.threshold then
            if A.fetch_and_add t.threshold (-1) <= 0 then None else fresh ()
          else fresh ()
        in
        fresh ()
      end
  end

  (* ----------------------------------------------------------------- *)
  (* Boxed-entry ring: same protocol, entries carry values (and, in     *)
  (* helping mode, announced enqueue requests) behind one pointer CAS.  *)
  (* ----------------------------------------------------------------- *)

  module Bring = struct
    (* A slow-path enqueue request.  [state] is 0 while pending; the first
       CAS to [ticket + 1] decides which installed copy of the request is
       the real item (every other copy is retracted by whoever meets it). *)
    type 'a req = { value : 'a; state : int A.t }

    type 'a content = Vacant | Item of 'a | Req of 'a req

    type 'a entry = { cycle : int; safe : bool; c : 'a content }

    type 'a t = {
      entries : 'a entry A.t array;
      head : int A.t;
      tail : int A.t;
      threshold : int A.t;
      mask : int;
      sbits : int;
      threshold_max : int;
      announce : 'a req option A.t array;  (** empty unless [C.helping] *)
    }

    let cycle_of t tkt = tkt lsr t.sbits
    let pos_of t tkt = tkt land t.mask

    let announce_slots = 8

    let create ~n =
      let m = 2 * n in
      let sbits =
        let rec go b = if 1 lsl b >= m then b else go (b + 1) in
        go 1
      in
      {
        entries =
          Array.init m (fun _ ->
              A.make { cycle = 0; safe = true; c = Vacant });
        head = A.make m;
        tail = A.make m;
        threshold = A.make (-1);
        mask = m - 1;
        sbits;
        threshold_max = (3 * n) - 1;
        announce =
          (if C.helping then Array.init announce_slots (fun _ -> A.make None)
           else [||]);
      }

    let catchup t tl hd =
      let rec go tl =
        H.hit Hook.Catchup;
        if not (A.compare_and_set t.tail tl hd) then begin
          H.hit Hook.Tail_help;
          let tl = A.get t.tail in
          if tl < hd then go tl
        end
      in
      go tl

    let reset_threshold t =
      if C.threshold && A.get t.threshold <> t.threshold_max then begin
        H.hit Hook.Threshold_reset;
        A.set t.threshold t.threshold_max
      end

    (* One install loop over fresh tickets: try to plant [content] in some
       slot, spending at most [budget] tickets ([max_int] = forever).
       Returns the winning ticket, or [None] if the budget ran out. *)
    let install t content ~budget =
      let rec fresh budget =
        if budget <= 0 then None
        else begin
          let tkt = A.fetch_and_add t.tail 1 in
          H.hit Hook.Faa_cycle;
          with_ticket budget tkt (A.get t.entries.(pos_of t tkt))
        end
      and with_ticket budget tkt e =
        let cyc = cycle_of t tkt and j = pos_of t tkt in
        if
          e.cycle < cyc && e.c = Vacant && (e.safe || A.get t.head <= tkt)
        then
          if
            A.compare_and_set t.entries.(j) e
              { cycle = cyc; safe = true; c = content }
          then begin
            reset_threshold t;
            Some tkt
          end
          else begin
            H.hit Hook.Sc_fail;
            with_ticket budget tkt (A.get t.entries.(j))
          end
        else fresh (if budget = max_int then budget else budget - 1)
      in
      fresh budget

    (* Remove a request copy we know lost (or that we planted and lost the
       state race for): swing its slot to consumed-Vacant at its own cycle
       so the ticket owner falls through cleanly. *)
    let rec retract t r ~tkt =
      let j = pos_of t tkt and cyc = cycle_of t tkt in
      let e = A.get t.entries.(j) in
      match e.c with
      | Req r' when r' == r && e.cycle = cyc ->
          if not (A.compare_and_set t.entries.(j) e { e with c = Vacant })
          then begin
            H.hit Hook.Sc_fail;
            retract t r ~tkt
          end
      | _ -> ()  (* someone else already resolved this copy *)

    (* Drive an announced request one ticket forward.  True once the
       request is settled (by us or anyone else). *)
    let push_req t r ~budget =
      if A.get r.state <> 0 then true
      else
        match install t (Req r) ~budget with
        | None -> A.get r.state <> 0
        | Some tkt ->
            if A.compare_and_set r.state 0 (tkt + 1) then true
            else begin
              (* Another copy won while ours was in flight: ours is junk. *)
              retract t r ~tkt;
              true
            end

    let help t =
      Array.iter
        (fun slot ->
          match A.get slot with
          | Some r when A.get r.state = 0 ->
              ignore (push_req t r ~budget:2 : bool)
          | _ -> ())
        t.announce

    let claim_announce t r =
      let rec scan i =
        if i >= Array.length t.announce then None
        else if
          A.get t.announce.(i) = None
          && A.compare_and_set t.announce.(i) None (Some r)
        then Some i
        else scan (i + 1)
      in
      scan 0

    (** Insert [v].  Never fails (capacity is enforced by the credit ring
        around this one).  In helping mode the caller first helps other
        announced enqueuers, then burns [C.slow_after] fast-path tickets
        before announcing its own request. *)
    let enqueue t v =
      if not C.helping then
        ignore (install t (Item v) ~budget:max_int : int option)
      else begin
        help t;
        match install t (Item v) ~budget:C.slow_after with
        | Some _ -> ()
        | None -> (
            let r = { value = v; state = A.make 0 } in
            match claim_announce t r with
            | None ->
                (* No free announcement slot: stay on the fast path. *)
                ignore (install t (Item v) ~budget:max_int : int option)
            | Some slot ->
                while not (push_req t r ~budget:1) do
                  ()
                done;
                A.set t.announce.(slot) None)
      end

    (** Remove the oldest value, or [None] on a linearizable "empty". *)
    let dequeue t =
      if C.threshold && A.get t.threshold < 0 then None
      else begin
        let rec fresh () =
          let tkt = A.fetch_and_add t.head 1 in
          H.hit Hook.Faa_cycle;
          attempt tkt
        and attempt tkt =
          let j = pos_of t tkt and cyc = cycle_of t tkt in
          let e = A.get t.entries.(j) in
          if e.cycle = cyc then
            match e.c with
            | Item v -> consume tkt e v
            | Vacant ->
                (* Our slot was burned by a retracted request copy: no item
                   travels on this ticket.  Crucially this miss must NOT
                   spend threshold budget — burned slots are outside the
                   3n-1 accounting, and charging them can declare "empty"
                   with items still parked (a real deadlock when every
                   producer is blocked on credits and nobody resets). *)
                miss_neutral tkt
            | Req r -> resolve tkt e r
          else begin
            let keep =
              match e.c with
              | Vacant -> { cycle = cyc; safe = e.safe; c = Vacant }
              | _ -> { e with safe = false }
            in
            if e.cycle < cyc && not (A.compare_and_set t.entries.(j) e keep)
            then begin
              H.hit Hook.Sc_fail;
              attempt tkt
            end
            else miss tkt
          end
        and consume tkt e v =
          let j = pos_of t tkt and cyc = cycle_of t tkt in
          if
            A.compare_and_set t.entries.(j) e
              { cycle = cyc; safe = e.safe; c = Vacant }
          then Some v
          else begin
            H.hit Hook.Sc_fail;
            let e = A.get t.entries.(j) in
            match e.c with
            | Item v -> consume tkt e v
            | _ -> attempt tkt
          end
        and resolve tkt e r =
          (* A request copy sits in our slot.  Claim it for our ticket if
             it is still pending; consume it if our ticket won; retract it
             (and fall through) if another copy won. *)
          let s = A.get r.state in
          if s = 0 then
            if A.compare_and_set r.state 0 (tkt + 1) then consume tkt e r.value
            else resolve tkt e r
          else if s = tkt + 1 then consume tkt e r.value
          else begin
            retract t r ~tkt;
            miss_neutral tkt
          end
        and miss tkt =
          let tl = A.get t.tail in
          if tl <= tkt + 1 then begin
            catchup t tl (tkt + 1);
            if C.threshold then begin
              ignore (A.fetch_and_add t.threshold (-1) : int);
              None
            end
            else fresh () (* seeded: no budget, no empty verdict *)
          end
          else if C.threshold then
            if A.fetch_and_add t.threshold (-1) <= 0 then None else fresh ()
          else fresh ()
        and miss_neutral tkt =
          (* Like [miss], but without the threshold decrement: used for
             request-retraction artifacts, which terminate via the
             tail-catchup exit rather than the threshold budget. *)
          let tl = A.get t.tail in
          if tl <= tkt + 1 then begin
            catchup t tl (tkt + 1);
            if C.threshold then
              ignore (A.fetch_and_add t.threshold (-1) : int);
            None
          end
          else fresh ()
        in
        fresh ()
      end
  end

  (* ----------------------------------------------------------------- *)
  (* The bounded queues: pairings with exact capacity semantics.       *)
  (* ----------------------------------------------------------------- *)

  (** The admission gate of the bounded queues: one word packing the free
      credits (high bits) with the number of operations in flight (low
      bits).  An enqueue takes a credit and enters in one CAS, and leaves
      once its item is in the ring; a dequeue enters before it looks at the
      ring and, if it took an item, returns the credit and leaves in one
      FAA.

      Reading [0] (no credit, nobody in flight) means every admitted item
      is in the ring and every removed one has given its credit back, so
      the ring holds exactly [n] items at that instant: a linearizable
      "full".  A bare "no credit" is not: a stalled enqueuer may hold a
      credit for an item that later items will overtake, or a stalled
      dequeuer may hold the credit of an item whose successor was already
      taken, and the queue was never full.  So while operations are in
      flight a full verdict reads the word again, spinning 1, 2, 4, ...
      [Domain.cpu_relax]s in between, and concedes after [probes] reads:
      a crashed or frozen operation costs each full verdict that spin,
      never progress, and the verdict never sleeps. *)
  module Gate = struct
    let flight_bits = 20
    let credit = 1 lsl flight_bits

    (* 2^18 relaxes over all reads: about 8 ms at the 32 ns a relax takes
       on a 2-core Xeon, longer than an OS time slice, so a full verdict
       outwaits an operation preempted in flight — the source of the
       non-linearizable "full" verdicts that [test_lincheck]'s scq-stress
       found.  Shorter bounds (12 to 16 reads) still let some through on
       a loaded box. *)
    let probes = 18

    let create ~n = A.make (n * credit)

    (** Take a credit, or [false] on a full verdict. *)
    let admit gate =
      let rec go probe =
        let w = A.get gate in
        if w >= credit then A.compare_and_set gate w (w - credit + 1) || go probe
        else if w = 0 || probe >= probes then false
        else begin
          for _ = 1 to 1 lsl probe do
            Domain.cpu_relax ()
          done;
          go (probe + 1)
        end
      in
      go 0

    let enter gate = ignore (A.fetch_and_add gate 1 : int)
    let leave gate = ignore (A.fetch_and_add gate (-1) : int)
    let give_back gate = ignore (A.fetch_and_add gate (credit - 1) : int)
  end

  (** "scq" (or "scq-wcq" in helping mode): values ride the boxed ring;
      boundedness comes from the admission gate's [n] interchangeable
      credits. *)
  module Scq = struct
    type 'a t = {
      gate : int A.t;
      ring : 'a Bring.t;
      size : int A.t;
      cap : int;
    }

    let name = if C.helping then "scq-wcq" else "scq"

    let create ~capacity =
      let n = Nbq_core.Queue_intf.round_capacity capacity in
      {
        gate = Gate.create ~n;
        ring = Bring.create ~n;
        size = A.make 0;
        cap = n;
      }

    let capacity t = t.cap

    let try_enqueue t v =
      if Gate.admit t.gate then begin
        Bring.enqueue t.ring v;
        ignore (A.fetch_and_add t.size 1 : int);
        Gate.leave t.gate;
        true
      end
      else false

    let try_dequeue t =
      Gate.enter t.gate;
      match Bring.dequeue t.ring with
      | None ->
          Gate.leave t.gate;
          None
      | Some v ->
          (* The credit goes back only after the item left the ring, so the
             ring never holds more than [cap] items. *)
          ignore (A.fetch_and_add t.size (-1) : int);
          Gate.give_back t.gate;
          Some v

    let length t = max 0 (A.get t.size)
  end

  (** "scq-d": the paper's SCQD — index rings around a plain data array.
      [fq] starts holding every index; an enqueue moves an index from [fq]
      through the data array into [aq], a dequeue moves it back.  Slot [i]
      of [data] is always owned by exactly one side (the index is in
      transit between the rings), so the plain accesses are race-free.
      Admission goes through the same gate as [Scq]; an index returns to
      [fq] before its credit does, so an admitted enqueuer always finds
      one there. *)
  module Scqd = struct
    type 'a t = {
      gate : int A.t;
      fq : Iring.t;
      aq : Iring.t;
      data : 'a option array;
      size : int A.t;
      cap : int;
    }

    let name = "scq-d"

    let create ~capacity =
      let n = Nbq_core.Queue_intf.round_capacity capacity in
      {
        gate = Gate.create ~n;
        fq = Iring.create ~n ~prefill:n;
        aq = Iring.create ~n ~prefill:0;
        data = Array.make n None;
        size = A.make 0;
        cap = n;
      }

    let capacity t = t.cap

    let try_enqueue t v =
      if Gate.admit t.gate then begin
        let i =
          match Iring.dequeue t.fq with
          | Some i -> i
          | None -> failwith "scq-d: admitted enqueue found no free index"
        in
        t.data.(i) <- Some v;
        Iring.enqueue t.aq i;
        ignore (A.fetch_and_add t.size 1 : int);
        Gate.leave t.gate;
        true
      end
      else false

    let try_dequeue t =
      Gate.enter t.gate;
      match Iring.dequeue t.aq with
      | None ->
          Gate.leave t.gate;
          None
      | Some i -> (
          match t.data.(i) with
          | Some v ->
              t.data.(i) <- None;
              Iring.enqueue t.fq i;
              ignore (A.fetch_and_add t.size (-1) : int);
              Gate.give_back t.gate;
              Some v
          | None -> failwith "scq-d: index ring handed out an empty slot")

    let length t = max 0 (A.get t.size)
  end
end

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) =
  Make_full (Default_config) (A) (H)

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

(** The wCQ-style helping instantiations, same pair. *)
module Make_wcq_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) =
  Make_full (Helping_config) (A) (H)

module Make_wcq (A : Atomic_intf.ATOMIC) = Make_wcq_probed (A) (Hook.Noop)
