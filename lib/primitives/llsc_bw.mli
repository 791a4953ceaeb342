(** Blelloch-Wei constant-time LL/SC from pointer-width CAS
    (arXiv:1911.09671), as an {!Llsc_backend.S} backend.

    Where the paper's Fig. 5 protocol simulates LL/SC by swapping a
    thread-owned {e marker} into the cell (paying the
    Register/ReRegister/Deregister tag-variable protocol on every
    operation), Blelloch-Wei leaves the cell alone: a cell permanently
    holds a pointer to a {e value buffer}, LL protects the buffer it read
    by publishing it in the thread's single-writer announcement slot and
    revalidating the cell, and SC replaces the buffer with one CAS.
    Replaced buffers go to the owner's retired pile; once the pile reaches
    [retire_threshold], one scan over all announcement slots recycles every
    buffer nobody is protecting — O(threads) work amortized over
    [retire_threshold] operations, so LL and SC are constant-time and the
    hot path generates {b zero registry traffic} ([reregister] is a literal
    no-op and hits no point).

    {b Tagged-pointer substitution.}  The original distinguishes buffer
    versions with packed tag bits; OCaml cannot tag native pointers, so
    buffer {e identity} (a fresh or provably unprotected heap block per
    install) plays the tag's role: a CAS succeeds only against the exact
    block previously read, and the announcement guarantees a protected
    block is never recycled — closing the recycled-buffer ABA.  Disabling
    the scan ({!CONFIG.scan_announcements}[ = false]) reopens exactly that
    ABA; the model checker convicts it on a two-thread capacity-2 queue.

    Hook points map onto the tag protocol's: [Ll_reserve] on LL entry,
    [Slot_swap] between announcement publication and cell revalidation
    (the window a frozen thread blocks one buffer's reclamation), the
    [Ll_reserved] count once revalidation succeeds, [Sc_attempt] before
    the install CAS, [Tag_register]/[Tag_deregister] around the
    (amortized-only) registration; [Tag_reregister] never fires. *)

type space = {
  handles : int;  (** thread records ever allocated *)
  owned_handles : int;  (** currently registered (or abandoned) *)
  free_bufs : int;  (** pooled buffers ready for reuse *)
  retired_bufs : int;  (** awaiting a reclamation scan *)
  announced : int;  (** buffers currently protected by a reader *)
}
(** One racy snapshot of the whole backing store — the bounded-space
    companion to {!Llsc_backend.audit}. *)

module type CONFIG = sig
  val scan_announcements : bool
  (** When [false], reclamation ignores announcements: the seeded
      recycled-buffer ABA bug for the model checker. *)

  val retire_threshold : int
  (** Retired buffers piled up before one announcement scan is paid. *)
end

module Default_config : CONFIG

module Make_config
    (C : CONFIG)
    (A : Atomic_intf.ATOMIC)
    (H : Hook.S) : sig
  include Llsc_backend.S

  val space : 'a registry -> space
end

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) : sig
  include Llsc_backend.S

  val space : 'a registry -> space
end

module Make (A : Atomic_intf.ATOMIC) : sig
  include Llsc_backend.S

  val space : 'a registry -> space
end

include Llsc_backend.S

val space : 'a registry -> space
