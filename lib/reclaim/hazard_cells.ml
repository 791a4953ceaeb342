(* Hazard pointers over the ATOMIC seam.

   [Hazard_pointer] is tied to the real runtime: its records live in
   [Domain.DLS] and its slots are real [Atomic.t]s, so it cannot run
   under the model checker's cooperative scheduler (DLS is shared by
   every simulated thread, and real atomics are invisible to DPOR's
   dependency analysis).  This module is the same single-hazard protocol
   functorized over [Atomic_intf.ATOMIC] with records handed out
   explicitly — the caller owns the acquire/release lifecycle instead of
   a thread-local cache — which is exactly the shape the segmented
   queue's per-thread handles need: instantiate with [Atomic_intf.Real]
   in production and with [Sim.Atomic] under the model checker, where
   every protect/validate/scan step becomes a scheduling point.

   Membership is physical ([==]): the protected values are mutable
   structures (ring segments) for which structural comparison is both
   meaningless and unsafe.  An empty slot holds the caller's [none], a
   value never protected or retired, so publishing, clearing and
   scanning allocate nothing. *)

module Make (A : Nbq_primitives.Atomic_intf.ATOMIC) = struct
  type 'a record = {
    hazard : 'a A.t;
    active : bool A.t;
    (* Private to the owning thread: the retired values are
       [retired.(0 .. retired_len - 1)]; the other cells hold [none]. *)
    mutable retired : 'a array;
    mutable retired_len : int;
    (* Registry chain; write-once before publication. *)
    mutable next : 'a record option;
  }

  type 'a t = {
    head : 'a record option A.t;
    none : 'a;
    threshold : int;
    free : 'a -> unit;
    scans : int A.t;
    freed : int A.t;
    retired_total : int A.t;
  }

  let create ?(threshold = 2) ~none ~free () =
    {
      head = A.make None;
      none;
      threshold = max 1 threshold;
      free;
      scans = A.make 0;
      freed = A.make 0;
      retired_total = A.make 0;
    }

  let rec find_inactive = function
    | None -> None
    | Some r ->
        if (not (A.get r.active)) && A.compare_and_set r.active false true
        then Some r
        else find_inactive r.next

  let acquire t =
    match find_inactive (A.get t.head) with
    | Some r -> r
    | None ->
        let r =
          {
            hazard = A.make t.none;
            active = A.make true;
            retired = Array.make t.threshold t.none;
            retired_len = 0;
            next = None;
          }
        in
        let rec push () =
          let cur = A.get t.head in
          r.next <- cur;
          if not (A.compare_and_set t.head cur (Some r)) then push ()
        in
        push ();
        r

  let protect r x = A.set r.hazard x
  let clear t r = A.set r.hazard t.none

  let rec mem x = function
    | None -> false
    | Some r -> A.get r.hazard == x || mem x r.next

  let protected t x = x != t.none && mem x (A.get t.head)

  (* Move [x] to [r.retired.(kept)] if it is among the entries not yet
     kept, [kept ..]; answers the new number of kept entries.  Retired
     values are distinct, so a value two records protect is kept once. *)
  let rec keep r x kept i =
    if i >= r.retired_len then kept
    else if r.retired.(i) == x then begin
      r.retired.(i) <- r.retired.(kept);
      r.retired.(kept) <- x;
      kept + 1
    end
    else keep r x kept (i + 1)

  (* One pass over the records, reading each hazard slot once. *)
  let rec keep_protected t r kept = function
    | None -> kept
    | Some o ->
        let x = A.get o.hazard in
        let kept = if x == t.none then kept else keep r x kept kept in
        keep_protected t r kept o.next

  (* Free [r.retired.(kept .. i)], newest first. *)
  let rec free_down t r kept i =
    if i >= kept then begin
      let x = r.retired.(i) in
      r.retired.(i) <- t.none;
      t.free x;
      free_down t r kept (i - 1)
    end

  let scan t r =
    ignore (A.fetch_and_add t.scans 1);
    let kept = keep_protected t r 0 (A.get t.head) in
    let freed = r.retired_len - kept in
    free_down t r kept (r.retired_len - 1);
    r.retired_len <- kept;
    ignore (A.fetch_and_add t.freed freed)

  let retire t r x =
    let n = r.retired_len in
    if n = Array.length r.retired then
      r.retired <- Array.append r.retired (Array.make n t.none);
    r.retired.(n) <- x;
    r.retired_len <- n + 1;
    ignore (A.fetch_and_add t.retired_total 1);
    if r.retired_len >= t.threshold then scan t r

  (* Releasing a record flushes its retired list first (scanning until it
     can shrink no further), then parks what is still pinned on the
     record for the next owner to inherit — nothing is leaked, nothing
     pinned is freed. *)
  let release t r =
    clear t r;
    if r.retired_len > 0 then scan t r;
    A.set r.active false

  let total_scans t = A.get t.scans
  let total_freed t = A.get t.freed
  let total_retired t = A.get t.retired_total

  let pending t =
    let rec go n = function
      | None -> n
      | Some r -> go (n + r.retired_len) r.next
    in
    go 0 (A.get t.head)
end
