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

  type 'a observation

  val observe : 'a t -> 'a observation
  val observed_value : 'a observation -> 'a option
  val observed_holds : 'a observation -> 'a -> bool
  val observed_get : 'a observation -> 'a
  val commit : 'a t -> 'a observation -> 'a -> bool

  val peek : 'a t -> 'a
  val unsafe_set : 'a t -> 'a -> unit
  val registered_count : 'a registry -> int
  val owned_count : 'a registry -> int
  val audit : 'a registry -> audit
end

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  type 'a content =
    | Unset  (* initial placeholder only; never stored in a cell *)
    | Value of 'a
    | Mark of 'a tagvar

  and 'a tagvar = {
    (* The paper's LLSCvar.  [placeholder] is var->node: the logical value
       the owning thread observed when it reserved a cell.  Plain mutable
       field: the reference-count protocol below makes the cross-thread
       reads of it well-defined (the owner only rewrites it while no reader
       holds a count, and a reader only uses what it read once it has
       re-seen the marker with its count held; see [ll]). *)
    mutable placeholder : 'a content;
    refcount : int A.t;
    (* Registry chain link; written once before publication. *)
    mutable next : 'a tagvar option;
  }

  type 'a t = 'a content A.t

  type 'a registry = { first : 'a tagvar option A.t }

  type 'a handle = {
    registry : 'a registry;
    mutable var : 'a tagvar;
    (* The marker block [Mark var], allocated once per (re)registration and
       reused across operations — the analogue of the paper's [var ^ 1]. *)
    mutable mark : 'a content;
  }

  let create_registry () = { first = A.make None }

  let make v : 'a t = A.make (Value v)

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
        let v = { placeholder = Unset; refcount = A.make 1; next = None } in
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
    { registry = reg; var; mark = Mark var }

  (* Drop the variable and take a free (or fresh) one with a fresh marker
     block.  Readers still pinning the old variable keep it out of
     [find_free] until they unpin. *)
  let renew h =
    ignore (A.fetch_and_add h.var.refcount (-1));
    let var = register_var h.registry in
    h.var <- var;
    h.mark <- Mark var

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
  let rec ll (cell : 'a t) (h : 'a handle) =
    H.hit Hook.Ll_reserve;
    if A.get h.var.refcount <> 1 then renew h;
    let cur = A.get cell in
    match cur with
    | Value _ ->
        (* Reuse the block we read: no allocation on the uncontended path. *)
        h.var.placeholder <- cur;
        install cell h cur
    | Mark other ->
        (* Paper L7-L8: pin the foreign tag variable with a reference count,
           then read the logical value through it. *)
        ignore (A.fetch_and_add other.refcount 1);
        let pinned = A.get cell == cur in
        if pinned then h.var.placeholder <- other.placeholder;
        let installed = pinned && A.compare_and_set cell cur h.mark in
        ignore (A.fetch_and_add other.refcount (-1));
        if installed then reserved h else ll cell h
    | Unset -> assert false

  and install cell h cur =
    if A.compare_and_set cell cur h.mark then reserved h else ll cell h

  and reserved h =
    (* Our tag is now published in the cell.  A victim frozen (or killed)
       here is the paper's §5 adversary: everyone else must be able to read
       and steal through the abandoned marker. *)
    H.hit Hook.Slot_swap;
    H.hit Hook.Ll_reserved;
    match h.var.placeholder with Value v -> v | Mark _ | Unset -> assert false

  let sc (cell : 'a t) (h : 'a handle) v =
    H.hit Hook.Sc_attempt;
    A.compare_and_set cell h.mark (Value v)

  let vl (cell : 'a t) (h : 'a handle) = A.get cell == h.mark

  (* --- One-shot observe / commit (extension, not in the paper) ---------

     A physical-equality CAS against the exact block read earlier.  Sound
     without tags because every mutation of a cell installs a {e freshly
     allocated} [Value] block ([sc], [commit], [unsafe_set] all allocate;
     marker blocks are never re-installed as values), so observing the same
     block at commit time proves the cell was never touched in between —
     the allocation itself plays the role of the paper's tag.  Only valid
     for this boxed representation; the batch-run extension uses it to
     spend one CAS per slot instead of the ll/sc pair's two. *)

  type 'a observation = 'a content

  let observe (cell : 'a t) : 'a observation = A.get cell

  let observed_value (obs : 'a observation) =
    match obs with Value v -> Some v | Mark _ -> None | Unset -> assert false

  (* Allocation-free variant of [observed_value] for hot loops that only
     test against a known (immediate or interned) value. *)
  let observed_holds (obs : 'a observation) v =
    match obs with Value w -> w == v | Mark _ | Unset -> false

  (* Allocation-free extraction: the [Not_found] raise only happens on the
     rare marker observation, the value path returns the block already in
     hand. *)
  let observed_get (obs : 'a observation) =
    match obs with Value v -> v | Mark _ | Unset -> raise Not_found

  let commit (cell : 'a t) (obs : 'a observation) v =
    H.hit Hook.Sc_attempt;
    A.compare_and_set cell obs (Value v)

  let rec peek (cell : 'a t) =
    match A.get cell with
    | Value v -> v
    | Mark other -> (
        match other.placeholder with
        | Value v -> v
        | Mark _ | Unset ->
            (* The owner is between registration and its first ll; or we
               lost a race with a recycling.  Heuristic read: retry. *)
            peek cell)
    | Unset -> assert false

  let unsafe_set (cell : 'a t) v = A.set cell (Value v)

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

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

(* The same protocol behind the unified backend seam (Llsc_backend.S).  A
   reservation token is just the value read — rolling back is an sc that
   restores it; counters are plain atomics with single-CAS helping, exactly
   what the queue's Fig. 5 column does. *)
module Backend (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  module L = Make_probed (A) (H)

  type 'a t = 'a L.t
  type 'a registry = 'a L.registry
  type 'a handle = 'a L.handle
  type 'a res = 'a
  type 'a observation = 'a L.observation

  let create_registry = L.create_registry
  let make = L.make
  let register = L.register
  let reregister = L.reregister
  let deregister = L.deregister

  let ll = L.ll
  let res_value (v : 'a res) = v
  let sc cell h (_res : 'a res) v = L.sc cell h v
  let release cell h (res : 'a res) = ignore (L.sc cell h res)

  let read cell h =
    let v = L.ll cell h in
    ignore (L.sc cell h v);
    v

  (* [unsafe_set] installs a fresh [Value] block, so a stale observe/commit
     pair racing a misused reset still fails on block identity. *)
  let reset cell v = L.unsafe_set cell v

  let observe cell _h = L.observe cell
  let observed_holds = L.observed_holds
  let observed_get = L.observed_get
  let commit cell _h obs v = L.commit cell obs v

  include Llsc_backend.Cas_counter (A)

  let registered_count = L.registered_count
  let owned_count = L.owned_count
  let audit = L.audit
end

include Make (Atomic_intf.Real)
