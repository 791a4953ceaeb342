(** SCQ — Nikolaev's scalable circular queue (arXiv:1908.04511), the
    "scq" registry row.

    Where the paper's 2008 queues arbitrate every slot with LL/SC (real or
    CAS-simulated), SCQ hands out {e tickets} with fetch-and-add: a ticket
    [T] names slot [T mod 2n] on cycle [T / 2n], and a slot accepts an item
    only from a ticket of a strictly newer cycle than the one stored in the
    slot itself.  A dequeuer whose reserved slot turns out empty does not
    spin on it — it invalidates the slot for its own cycle (or marks a
    parked item {e unsafe}) and moves on.  Two devices make this
    livelock-free and linearizable at the empty boundary:

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
    credit-ring pairing does not linearize "full"; see [Gate]).  The
    values ride the ring's boxed entries directly.

    Everything is functorized over {!Nbq_primitives.Atomic_intf.ATOMIC} x
    hook like the Evequoz rings, so the identical code runs in production
    and under [Sim]/DPOR.  Hook points: [Sc_fail] = a slot CAS lost a
    race, [Tail_help] = a failed catchup CAS; the windows [Faa_cycle]
    (ticket taken, slot not yet read), [Threshold_reset] (item installed,
    threshold not yet restored; counted as a head help on behalf of
    stalled dequeuers) and [Catchup] (inside the tail-repair loop). *)

module Hook = Nbq_primitives.Hook
module Atomic_intf = Nbq_primitives.Atomic_intf

(** Compile-time knob.  [threshold = false] is the seeded modelcheck bug
    ("scq-nothreshold"): no retry budget at all, so the dequeuer's miss
    path treats every miss as a race it merely lost and goes again —
    never conceding emptiness.  An empty-side dequeuer then chases the
    enqueuer's fresh tickets, and once they stop, its own slot bumps,
    forever: the livelock shape the threshold counter exists to cut off,
    and the one the DPOR liveness layer must convict. *)
module type CONFIG = sig
  val threshold : bool
end

module Make_full
    (C : CONFIG)
    (A : Atomic_intf.ATOMIC)
    (H : Hook.S) =
struct
  (* ----------------------------------------------------------------- *)
  (* The ring: boxed entries carrying the values, one pointer CAS each. *)
  (* ----------------------------------------------------------------- *)

  module Bring = struct
    type 'a content = Vacant | Item of 'a

    type 'a entry = { cycle : int; safe : bool; c : 'a content }

    type 'a t = {
      entries : 'a entry A.t array;
      head : int A.t;
      tail : int A.t;
      threshold : int A.t;
      mask : int;
      sbits : int;
      threshold_max : int;
    }

    let cycle_of t tkt = tkt lsr t.sbits
    let pos_of t tkt = tkt land t.mask

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

    (** Insert [v], taking fresh tickets until one installs.  Never fails
        (capacity is enforced by the admission gate around this ring). *)
    let enqueue t v =
      let item = Item v in
      let rec fresh () =
        let tkt = A.fetch_and_add t.tail 1 in
        H.hit Hook.Faa_cycle;
        with_ticket tkt (A.get t.entries.(pos_of t tkt))
      and with_ticket tkt e =
        let cyc = cycle_of t tkt and j = pos_of t tkt in
        if
          e.cycle < cyc && e.c = Vacant && (e.safe || A.get t.head <= tkt)
        then
          if
            A.compare_and_set t.entries.(j) e
              { cycle = cyc; safe = true; c = item }
          then reset_threshold t
          else begin
            H.hit Hook.Sc_fail;
            with_ticket tkt (A.get t.entries.(j))
          end
        else fresh ()
      in
      fresh ()

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
          (* Only the two holders of ticket [tkt] write cycle [cyc] into
             slot [j]: its enqueuer installs an [Item], and we write
             [Vacant] only as our last step with this ticket.  So an entry
             at our own cycle is the enqueuer's item, and a [Vacant] one
             is never ours to find: it falls to the miss path below. *)
          match e.c with
          | Item v when e.cycle = cyc -> consume tkt e v
          | _ ->
              let keep =
                match e.c with
                | Vacant -> { cycle = cyc; safe = e.safe; c = Vacant }
                | Item _ -> { e with safe = false }
              in
              if e.cycle < cyc && not (A.compare_and_set t.entries.(j) e keep)
              then begin
                H.hit Hook.Sc_fail;
                attempt tkt
              end
              else miss tkt
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
            | Vacant -> attempt tkt
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

  (** The admission gate: one word packing the free credits (high bits)
      with the number of operations in flight (low bits).  An enqueue
      takes a credit and enters in one CAS, and leaves once its item is in
      the ring; a dequeue enters before it looks at the ring and, if it
      took an item, returns the credit and leaves in one FAA.

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

  (* ----------------------------------------------------------------- *)
  (* The bounded queue: the ring behind the gate's [n] credits.         *)
  (* ----------------------------------------------------------------- *)

  type 'a t = {
    gate : int A.t;
    ring : 'a Bring.t;
    size : int A.t;
    cap : int;
  }

  let name = "scq"

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

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) =
  Make_full
    (struct
      let threshold = true
    end)
    (A)
    (H)

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)
