module type S = sig
  type 'a t
  type 'a link

  val make : 'a -> 'a t
  val ll : 'a t -> 'a link
  val value : 'a link -> 'a
  val sc : 'a t -> 'a link -> 'a -> bool
  val vl : 'a t -> 'a link -> bool
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val fresh_stores : bool

  include Llsc_backend.COUNTER
end

module Make_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  type 'a box = { contents : 'a }

  type 'a t = 'a box A.t

  type 'a link = 'a box

  let make v = A.make { contents = v }

  let ll t =
    H.hit Hook.Ll_reserve;
    H.hit Hook.Ll_reserved;
    A.get t

  let value (link : 'a link) = link.contents

  (* A fresh box per store means box identity = "unwritten since read". *)
  let sc t link v =
    H.hit Hook.Sc_attempt;
    A.compare_and_set t link { contents = v }

  let vl t link = A.get t == link

  let get t = (A.get t).contents

  let set t v = A.set t { contents = v }

  (* The box, not the value, is what a CAS expects: any value may be
     stored, immediates and repeats included. *)
  let fresh_stores = false

  (* Head/Tail only grow, so a CAS on the int is an ideal LL/SC on them:
     no box, and no allocation when a bump or a help fails. *)
  include Llsc_backend.Cas_counter (A)
end

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

(* The same cell without the box: [sc] CASes against the very value [ll]
   returned, which is exact LL/SC only while every value stored is a
   block allocated for that store (see the .mli). *)
module Make_fresh_probed (A : Atomic_intf.ATOMIC) (H : Hook.S) = struct
  type 'a t = 'a A.t

  type 'a link = 'a

  let make = A.make

  let ll t =
    H.hit Hook.Ll_reserve;
    H.hit Hook.Ll_reserved;
    A.get t

  let value (link : 'a link) = link

  let sc t link v =
    H.hit Hook.Sc_attempt;
    A.compare_and_set t link v

  let vl t link = A.get t == link
  let get = A.get
  let set = A.set
  let fresh_stores = true

  include Llsc_backend.Cas_counter (A)
end

module Fresh = Make_fresh_probed (Atomic_intf.Real) (Hook.Noop)

include Make (Atomic_intf.Real)

module Weak = struct
  type 'a cell = {
    inner : 'a t;
    failure_rate : float;
  }

  let make ~failure_rate v =
    let failure_rate = Float.max 0.0 (Float.min 1.0 failure_rate) in
    { inner = make v; failure_rate }

  let ll c = ll c.inner

  let value = value

  let spurious c =
    c.failure_rate > 0.0 && Prng.float (Prng.domain_local ()) < c.failure_rate

  let sc c link v = if spurious c then false else sc c.inner link v

  let vl c link = vl c.inner link

  let get c = get c.inner

  let set c v = set c.inner v

  let fresh_stores = false

  (* Retry until the counter is observed past [expected]: a spuriously
     failing sc (paper section 5) must not drop the bump and let a
     lagging counter fool the empty/full tests. *)
  let rec counter_advance c expected =
    let link = ll c in
    if value link = expected && not (sc c link (expected + 1)) then
      counter_advance c expected

  (* Top-level loops over explicit arguments: no closure per call. *)
  let rec walk c target =
    let link = ll c in
    let cur = value link in
    if cur - target < 0 then begin
      ignore (sc c link (cur + 1));
      walk c target
    end

  let counter_publish c ~from ~target =
    let link = ll c in
    if not (value link = from && sc c link target) then walk c target
end
