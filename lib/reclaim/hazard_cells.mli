(** Hazard pointers functorized over the {!Nbq_primitives.Atomic_intf}
    seam, with explicit record hand-out (no [Domain.DLS]).

    {!Hazard_pointer} protects linked-list nodes for real domains; this
    module protects {e any} physically-identified structure under {e any}
    atomic implementation, which is what the segmented queue needs: the
    same retire/scan protocol must run both in production (real atomics,
    one record per domain handle) and inside the model checker's
    cooperative scheduler (where [Domain.DLS] is shared by all simulated
    threads and real atomics escape DPOR's dependency analysis).

    One hazard slot per record: a thread protects at most one segment at
    a time.  Membership checks are physical equality. *)

module Make (A : Nbq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a record
  (** Per-thread participation: one hazard slot plus a private retired
      list.  Records are recycled through an acquire/release lifecycle
      and never removed from the registry. *)

  type 'a t

  val create : ?threshold:int -> none:'a -> free:('a -> unit) -> unit -> 'a t
  (** [threshold] (default 2, clamped to >= 1) is the retired-list length
      that triggers a scan; [free] receives each value proven
      unprotected.  [none] marks an empty hazard slot: the caller never
      protects or retires it, so no operation boxes a value. *)

  val acquire : 'a t -> 'a record
  (** Claim an inactive record or link a fresh one. *)

  val release : 'a t -> 'a record -> unit
  (** Clear the hazard, flush the retired list (still-pinned values stay
      parked on the record for the next owner), mark the record
      reusable. *)

  val protect : 'a record -> 'a -> unit
  (** Publish [x] in the record's hazard slot: one store, no allocation.
      The caller must re-read the source pointer afterwards and retry if
      it moved (the standard protect/validate handshake). *)

  val clear : 'a t -> 'a record -> unit
  (** Store [none] in the record's hazard slot. *)

  val retire : 'a t -> 'a record -> 'a -> unit
  (** Hand [x] to reclamation: freed by a later scan once no record's
      hazard slot holds it.  Allocates only when the record's retired
      array has to grow. *)

  val scan : 'a t -> 'a record -> unit
  (** Force a scan of [record]'s retired list: one pass over the
      records, reading each hazard slot once, then free what no slot
      held.  Allocates nothing. *)

  val protected : 'a t -> 'a -> bool
  (** One racy snapshot: is [x] currently published in any hazard slot? *)

  val total_scans : 'a t -> int
  val total_freed : 'a t -> int
  val total_retired : 'a t -> int

  val pending : 'a t -> int
  (** Values retired but not yet freed, summed over all records. *)
end
