(* Paper Fig. 5: LL / Register / ReRegister / Deregister, generalized to a
   reusable cell type.  See the .mli for the pointer-tagging substitution. *)

type audit = Llsc_backend.audit = { registered : int; owned : int; free : int }

module type S = sig
  type 'a t
  type 'a registry
  type 'a handle

  val create_registry : unit -> 'a registry
  val make : 'a -> 'a t
  val register : 'a registry -> 'a handle
  val reregister : 'a handle -> unit
  val deregister : 'a handle -> unit
  val ll : 'a t -> 'a handle -> 'a
  val sc : 'a t -> 'a handle -> 'a -> bool
  val vl : 'a t -> 'a handle -> bool
  val peek : 'a t -> 'a
  val unsafe_set : 'a t -> 'a -> unit
  val registered_count : 'a registry -> int
  val owned_count : 'a registry -> int
  val audit : 'a registry -> audit
end

(* The protocol once, over any stored type ['v] that can carry a marker:
   the registry holds the caller's [marking], which wraps a tag variable
   as a storable value and finds one in a value read. *)
module Tagged (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  type 'v var = {
    (* The paper's LLSCvar.  [placeholder] is var->node: the logical value
       the owning thread observed when it reserved a cell.  Plain mutable
       field: the reference-count protocol below makes the cross-thread
       reads of it well-defined (the owner only rewrites it while no reader
       holds a count, and a reader only uses what it read once it has
       re-seen the marker with its count held; see [ll]). *)
    mutable placeholder : 'v;
    refcount : int A.t;
    (* Registry chain link; written once before publication. *)
    mutable next : 'v var option;
  }

  type 'v t = 'v A.t

  type 'v registry = {
    first : 'v var option A.t;
    marking : ('v, 'v var) Llsc_backend.marking;
    (* What [marking.mark_of] answers for a value: never in the chain,
       never pinned. *)
    none : 'v var;
  }

  type 'v handle = {
    registry : 'v registry;
    mutable var : 'v var;
    (* The marker [marking.mark var], allocated once per (re)registration
       and reused across operations — the analogue of the paper's
       [var ^ 1]. *)
    mutable mark : 'v;
  }

  let fresh_var placeholder = { placeholder; refcount = A.make 1; next = None }

  let create_registry (marking : ('v, 'v var) Llsc_backend.marking) =
    { first = A.make None; marking; none = fresh_var marking.blank }

  (* --- Registration protocol (paper R1-R16, RR1-RR5, DR1-DR3) --- *)

  let rec find_free = function
    | None -> None
    | Some v ->
        if A.get v.refcount = 0 && A.compare_and_set v.refcount 0 1 then Some v
        else find_free v.next

  let register_var reg =
    match find_free (A.get reg.first) with
    | Some v ->
        H.hit Hook.Tag_recycle;
        v
    | None ->
        let v = fresh_var reg.marking.blank in
        let rec push () =
          let cur = A.get reg.first in
          v.next <- cur;
          if not (A.compare_and_set reg.first cur (Some v)) then push ()
        in
        push ();
        v

  let register reg =
    let var = register_var reg in
    (* Past this point the variable is owned; a crash here abandons it — the
       bounded leak the paper accepts for a thread dying mid-[Register]. *)
    H.hit Hook.Tag_register;
    { registry = reg; var; mark = reg.marking.mark var }

  (* Drop the variable and take a free (or fresh) one with a fresh marker
     block.  Readers still pinning the old variable keep it out of
     [find_free] until they unpin. *)
  let renew h =
    ignore (A.fetch_and_add h.var.refcount (-1));
    let var = register_var h.registry in
    h.var <- var;
    h.mark <- h.registry.marking.mark var

  let reregister h =
    H.hit Hook.Tag_reregister;
    (* Keep the variable only if we are its sole referent; otherwise a
       reader could later validate a stale marker observation against our
       reused marker block (the ABA of paper §5).  The swap shows up as a
       [tag_recycle] (or registry growth) on top of this event. *)
    if A.get h.var.refcount <> 1 then renew h

  let deregister h =
    H.hit Hook.Tag_deregister;
    ignore (A.fetch_and_add h.var.refcount (-1))

  (* --- Simulated LL / SC (paper L1-L17) --- *)

  (* Two checks beyond the paper's L1-L17 close the lost-update race that
     shows up under real parallelism.  A reader reads the marker (L5) and
     only then pins its variable (L7); in between, the owner may finish its
     SC, pass ReRegister with a count of 1, and start rewriting
     [placeholder] for its next LL — or reinstall the very same marker
     block.  The reader would then read a stale logical value and still
     win its CAS against the reinstalled marker.
     - Before writing [placeholder], the owner re-checks the count, as
       ReRegister does: a pinned variable is never rewritten, so every LL
       (also a retry after a failed SC, which the algorithms issue without
       a ReRegister) is safe on its own.
     - After pinning, the reader re-reads the cell: if it still holds the
       marker, the owner's last [placeholder] write happened before that
       install, and no later write can happen while the pin is held. *)
  let rec ll (cell : 'v t) (h : 'v handle) =
    H.hit Hook.Ll_reserve;
    if A.get h.var.refcount <> 1 then renew h;
    let cur = A.get cell in
    let reg = h.registry in
    let other = reg.marking.mark_of cur reg.none in
    if other == reg.none then begin
      (* A value is its own placeholder: no allocation. *)
      h.var.placeholder <- cur;
      if A.compare_and_set cell cur h.mark then reserved h else ll cell h
    end
    else begin
      (* Paper L7-L8: pin the foreign tag variable with a reference count,
         then read the logical value through it. *)
      ignore (A.fetch_and_add other.refcount 1);
      let pinned = A.get cell == cur in
      if pinned then h.var.placeholder <- other.placeholder;
      let installed = pinned && A.compare_and_set cell cur h.mark in
      ignore (A.fetch_and_add other.refcount (-1));
      if installed then reserved h else ll cell h
    end

  and reserved h =
    (* Our tag is now published in the cell.  A victim frozen (or killed)
       here is the paper's §5 adversary: everyone else must be able to read
       and steal through the abandoned marker. *)
    H.hit Hook.Slot_swap;
    H.hit Hook.Ll_reserved;
    h.var.placeholder

  let sc (cell : 'v t) (h : 'v handle) v =
    H.hit Hook.Sc_attempt;
    A.compare_and_set cell h.mark v

  let vl (cell : 'v t) (h : 'v handle) = A.get cell == h.mark

  (* --- Introspection --- *)

  let fold_vars reg f acc =
    let rec go acc = function
      | None -> acc
      | Some v -> go (f acc v) v.next
    in
    go acc (A.get reg.first)

  let registered_count reg = fold_vars reg (fun n _ -> n + 1) 0

  let owned_count reg =
    fold_vars reg (fun n v -> if A.get v.refcount > 0 then n + 1 else n) 0

  let audit reg =
    let registered, owned =
      fold_vars reg
        (fun (r, o) v -> (r + 1, if A.get v.refcount > 0 then o + 1 else o))
        (0, 0)
    in
    { registered; owned; free = registered - owned }
end

(* The boxed cells: every store wraps its value in a fresh [Value] block,
   so any value, immediates and repeats included, may be stored. *)
module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  module T = Tagged (A) (H)

  type 'a content =
    | Unset  (* a fresh variable's placeholder only; never in a cell *)
    | Value of 'a
    | Mark of 'a content T.var

  type 'a t = 'a content T.t
  type 'a registry = 'a content T.registry
  type 'a handle = 'a content T.handle

  let marking =
    {
      Llsc_backend.mark = (fun var -> Mark var);
      mark_of =
        (fun v none -> match v with Mark var -> var | Value _ | Unset -> none);
      blank = Unset;
    }

  let create_registry () = T.create_registry marking
  let make v : 'a t = A.make (Value v)
  let register = T.register
  let reregister = T.reregister
  let deregister = T.deregister

  let ll cell h =
    match T.ll cell h with Value v -> v | Mark _ | Unset -> assert false

  let sc cell h v = T.sc cell h (Value v)
  let vl = T.vl

  let rec peek (cell : 'a t) =
    match A.get cell with
    | Value v -> v
    | Mark other -> (
        match other.T.placeholder with
        | Value v -> v
        | Mark _ | Unset ->
            (* The owner is between registration and its first ll; or we
               lost a race with a recycling.  Heuristic read: retry. *)
            peek cell)
    | Unset -> assert false

  let unsafe_set (cell : 'a t) v = A.set cell (Value v)
  let registered_count = T.registered_count
  let owned_count = T.owned_count
  let audit = T.audit
end

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

(* The same protocol behind the unified backend seam (Llsc_backend.S),
   storing the caller's values themselves: the caller's slot type wraps
   the marker, so a store allocates only what the caller built for it.
   A reservation token is the value read — rolling back is an sc that
   re-stores that very block; counters are plain atomics with single-CAS
   helping, exactly what the queue's Fig. 5 column does. *)
module Backend (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  module T = Tagged (A) (H)

  type 'v t = 'v T.t
  type 'v registry = 'v T.registry
  type 'v handle = 'v T.handle
  type 'v res = 'v
  type 'v observation = 'v
  type 'v mark = 'v T.var

  (* Every value stored must be fresh; a rollback's re-store is the one
     exception, sound because the block can come back only while the
     marker installed over it still holds the cell (see the .mli). *)
  let fresh_stores = true

  let create_registry = T.create_registry
  let make = A.make
  let register = T.register
  let reregister = T.reregister
  let deregister = T.deregister

  let ll = T.ll
  let res_value (v : 'v res) = v
  let sc cell h (_res : 'v res) v = T.sc cell h v
  let release cell h (res : 'v res) = ignore (T.sc cell h res)

  let read cell h =
    let v = T.ll cell h in
    ignore (T.sc cell h v);
    v

  let reset = A.set

  (* One plain read; [commit] CASes against the very block read, which
     the fresh-store discipline makes exact. *)
  let observe cell _h = A.get cell
  let observed_get (obs : 'v observation) = obs

  let commit cell _h (obs : 'v observation) v =
    H.hit Hook.Sc_attempt;
    A.compare_and_set cell obs v

  include Llsc_backend.Cas_counter (A)

  let registered_count = T.registered_count
  let owned_count = T.owned_count
  let audit = T.audit
end

include Make (Atomic_intf.Real)
