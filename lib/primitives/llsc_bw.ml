(* Blelloch-Wei constant-time LL/SC from pointer-width CAS
   (arXiv:1911.09671), behind the unified backend seam.

   A cell is a single atomic word holding a pointer to a value buffer.  LL
   announces the buffer it read in a per-thread single-writer announcement
   slot and revalidates the cell; from that point the buffer cannot be
   recycled, so reading through it is safe.  SC installs a freshly drawn
   buffer with one CAS and retires the old one to the thread's local pile;
   when the pile reaches the amortization threshold, one scan over all
   announcement slots recycles every retired buffer nobody is protecting.
   There is no per-operation registry traffic at all: [reregister] is a
   literal no-op — the announcement plays the tag variable's role and is
   reclaimed implicitly by being overwritten. *)

type space = {
  handles : int;
  owned_handles : int;
  free_bufs : int;
  retired_bufs : int;
  announced : int;
}

module type CONFIG = sig
  val scan_announcements : bool
  (** When [false], reclamation ignores announcements — the seeded bug the
      model checker must convict (a reader's buffer is recycled under it,
      resurrecting the pointer ABA the announcement exists to close). *)

  val retire_threshold : int
  (** Retired buffers a thread piles up before paying one announcement
      scan; the constant-time amortization knob. *)
end

module Default_config = struct
  let scan_announcements = true
  let retire_threshold = 4
end

module Make_config
    (C : CONFIG)
    (A : Atomic_intf.ATOMIC)
    (H : Hook.S) =
struct
  type 'a buf = { mutable v : 'a }

  type 'a t = 'a buf A.t

  (* One record per registered thread: the announcement slot (single
     writer, scanned by everyone) plus owner-private buffer piles.  The
     chain is append-only, recycled through [active] exactly like the tag
     registry — but walked only on registration and on the amortized
     reclamation scan, never per operation. *)
  type 'a thread = {
    announce : 'a buf option A.t;
    active : int A.t;
    mutable free : 'a buf list;
    mutable retired : 'a buf list;
    mutable retired_n : int;
    registry : 'a registry;
    mutable next : 'a thread option;
  }

  and 'a registry = { first : 'a thread option A.t }

  type 'a handle = 'a thread
  type 'a res = 'a buf
  type 'a observation = 'a buf
  type 'a mark = |

  (* Every store draws a buffer: any value may be stored. *)
  let fresh_stores = false

  (* Reservations live in announcements, never in a cell: no marker. *)
  let create_registry _ = { first = A.make None }

  let make v : 'a t = A.make { v }

  (* --- Registration: amortized-only registry traffic --- *)

  let rec find_free = function
    | None -> None
    | Some th ->
        if A.get th.active = 0 && A.compare_and_set th.active 0 1 then Some th
        else find_free th.next

  let register reg =
    let th =
      match find_free (A.get reg.first) with
      | Some th ->
          H.hit Hook.Tag_recycle;
          th
      | None ->
          let th =
            {
              announce = A.make None;
              active = A.make 1;
              free = [];
              retired = [];
              retired_n = 0;
              registry = reg;
              next = None;
            }
          in
          let rec push () =
            let cur = A.get reg.first in
            th.next <- cur;
            if not (A.compare_and_set reg.first cur (Some th)) then push ()
          in
          push ();
          th
    in
    (* Past this point the record is owned; a crash here abandons it — the
       same bounded leak the tag registry accepts. *)
    H.hit Hook.Tag_register;
    th

  (* The whole point: no per-operation protocol, no hook point. *)
  let reregister (_ : 'a handle) = ()

  let deregister h =
    H.hit Hook.Tag_deregister;
    A.set h.announce None;
    A.set h.active 0

  (* --- Buffer pool with help-based (scan) reclamation --- *)

  let scan h =
    let announced =
      let rec go acc = function
        | None -> acc
        | Some th -> (
            match A.get th.announce with
            | Some b -> go (b :: acc) th.next
            | None -> go acc th.next)
      in
      go [] (A.get h.registry.first)
    in
    let keep, recycled =
      List.partition (fun b -> List.memq b announced) h.retired
    in
    h.free <- recycled @ h.free;
    h.retired <- keep;
    h.retired_n <- List.length keep

  let alloc h v =
    (match h.free with
    | [] ->
        if h.retired_n >= C.retire_threshold then
          if C.scan_announcements then scan h
          else begin
            h.free <- h.retired;
            h.retired <- [];
            h.retired_n <- 0
          end
    | _ :: _ -> ());
    match h.free with
    | b :: rest ->
        h.free <- rest;
        b.v <- v;
        b
    | [] -> { v }

  let retire h b =
    h.retired <- b :: h.retired;
    h.retired_n <- h.retired_n + 1

  (* --- LL / SC --- *)

  let ll cell h =
    H.hit Hook.Ll_reserve;
    let rec go () =
      let b = A.get cell in
      A.set h.announce (Some b);
      (* A victim frozen (or killed) here holds a published announcement:
         everyone else keeps going, paying at most one unreclaimed buffer
         per frozen thread — the Blelloch-Wei analogue of the abandoned
         tag-variable window. *)
      H.hit Hook.Slot_swap;
      if A.get cell == b then begin
        H.hit Hook.Ll_reserved;
        b
      end
      else go ()
    in
    go ()

  let res_value (b : 'a res) = b.v

  let sc cell h (b : 'a res) v =
    H.hit Hook.Sc_attempt;
    let nb = alloc h v in
    if A.compare_and_set cell b nb then begin
      A.set h.announce None;
      retire h b;
      true
    end
    else begin
      h.free <- nb :: h.free;
      A.set h.announce None;
      false
    end

  (* A reservation is only an announcement; releasing it is overwriting
     the slot — no cell traffic, nothing to roll back. *)
  let release _cell h (_ : 'a res) = A.set h.announce None

  (* Exclusive-owner store.  A fresh buffer (not an in-place [b.v <-])
     keeps the invariant that every cell mutation installs a new block, so
     a reservation or observation leaked across a reset can never commit.
     The abandoned buffer is unreachable and simply collected. *)
  let reset cell v = A.set cell { v }

  let read cell h =
    H.hit Hook.Ll_reserve;
    let rec go () =
      let b = A.get cell in
      A.set h.announce (Some b);
      H.hit Hook.Slot_swap;
      if A.get cell == b then begin
        H.hit Hook.Ll_reserved;
        let v = b.v in
        A.set h.announce None;
        v
      end
      else go ()
    in
    go ()

  (* --- Observe / commit: an announced read the commit CASes against --- *)

  let observe cell h =
    let rec go () =
      let b = A.get cell in
      A.set h.announce (Some b);
      if A.get cell == b then b else go ()
    in
    go ()

  let observed_get (obs : 'a observation) = obs.v

  let commit cell h (obs : 'a observation) v =
    H.hit Hook.Sc_attempt;
    let nb = alloc h v in
    if A.compare_and_set cell obs nb then begin
      A.set h.announce None;
      retire h obs;
      true
    end
    else begin
      h.free <- nb :: h.free;
      A.set h.announce None;
      false
    end

  include Llsc_backend.Cas_counter (A)

  (* --- Introspection --- *)

  let fold_threads reg f acc =
    let rec go acc = function
      | None -> acc
      | Some th -> go (f acc th) th.next
    in
    go acc (A.get reg.first)

  let registered_count reg = fold_threads reg (fun n _ -> n + 1) 0

  let owned_count reg =
    fold_threads reg (fun n th -> if A.get th.active > 0 then n + 1 else n) 0

  let audit reg : Llsc_backend.audit =
    let registered, owned =
      fold_threads reg
        (fun (r, o) th -> (r + 1, if A.get th.active > 0 then o + 1 else o))
        (0, 0)
    in
    { registered; owned; free = registered - owned }

  (* Racy bounded-space snapshot: buffer piles are owner-private lists,
     but list cells are immutable, so a stale read is a valid recent
     state. *)
  let space reg =
    fold_threads reg
      (fun s th ->
        {
          handles = s.handles + 1;
          owned_handles =
            s.owned_handles + (if A.get th.active > 0 then 1 else 0);
          free_bufs = s.free_bufs + List.length th.free;
          retired_bufs = s.retired_bufs + List.length th.retired;
          announced =
            s.announced
            + (match A.get th.announce with Some _ -> 1 | None -> 0);
        })
      {
        handles = 0;
        owned_handles = 0;
        free_bufs = 0;
        retired_bufs = 0;
        announced = 0;
      }
end

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) =
  Make_config (Default_config) (A) (H)

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

include Make (Atomic_intf.Real)
