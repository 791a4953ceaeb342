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
end

module Make (A : Atomic_intf.ATOMIC) = Make_probed (A) (Hook.Noop)

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
end
