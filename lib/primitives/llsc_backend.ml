(* The one cell contract every ring-queue backend satisfies.  See the .mli
   for how the two implementations (ideal cells, the paper's tag-variable
   CAS simulation) map onto it. *)

type audit = { registered : int; owned : int; free : int }

type ('v, 'm) marking = { mark : 'm -> 'v; mark_of : 'v -> 'm -> 'm; blank : 'v }

module type COUNTER = sig
  type counter

  val make_counter : int -> counter
  val counter_get : counter -> int
  val counter_advance : counter -> int -> unit
  val counter_publish : counter -> from:int -> target:int -> unit
end

module type CELL = sig
  type 'a t
  type 'a link

  val make : 'a -> 'a t
  val ll : 'a t -> 'a link
  val value : 'a link -> 'a
  val sc : 'a t -> 'a link -> 'a -> bool
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val fresh_stores : bool

  include COUNTER
end

module type S = sig
  type 'a t
  type 'a registry
  type 'a handle
  type 'a res
  type 'a observation
  type 'a mark

  val fresh_stores : bool
  val create_registry : ('a, 'a mark) marking -> 'a registry
  val make : 'a -> 'a t
  val register : 'a registry -> 'a handle
  val reregister : 'a handle -> unit
  val deregister : 'a handle -> unit

  val ll : 'a t -> 'a handle -> 'a res
  val res_value : 'a res -> 'a
  val sc : 'a t -> 'a handle -> 'a res -> 'a -> bool
  val release : 'a t -> 'a handle -> 'a res -> unit
  val read : 'a t -> 'a handle -> 'a
  val reset : 'a t -> 'a -> unit

  val observe : 'a t -> 'a handle -> 'a observation
  val observed_get : 'a observation -> 'a
  val commit : 'a t -> 'a handle -> 'a observation -> 'a -> bool

  include COUNTER

  val registered_count : 'a registry -> int
  val owned_count : 'a registry -> int
  val audit : 'a registry -> audit
end

(* Monotonic counters over plain atomics: the helping advance is a single
   CAS (its failure proves another thread performed the bump), publication
   is a one-shot CAS with a +1 helper-tolerant walk.  Shared by every
   backend: the ideal cells take it too, since a counter that only grows
   never repeats a value, so a CAS on it is an ideal LL/SC without ABA. *)
module Cas_counter (A : Atomic_intf.ATOMIC) = struct
  type counter = int A.t

  let make_counter = A.make
  let counter_get = A.get

  let counter_advance c expected = ignore (A.compare_and_set c expected (expected + 1))

  let counter_publish c ~from ~target =
    if not (A.compare_and_set c from target) then begin
      let rec walk () =
        let cur = A.get c in
        if cur - target < 0 then begin
          ignore (A.compare_and_set c cur (cur + 1));
          walk ()
        end
      in
      walk ()
    end
end

module Of_cell (Cell : CELL) = struct
  type 'a t = 'a Cell.t
  type 'a registry = unit
  type 'a handle = unit
  type 'a res = 'a Cell.link
  type 'a observation = 'a Cell.link
  type 'a mark = |

  let create_registry _ = ()
  let make = Cell.make
  let register () = ()
  let reregister () = ()
  let deregister () = ()

  let ll cell () = Cell.ll cell
  let res_value = Cell.value
  let sc cell () link v = Cell.sc cell link v
  let release _cell () _link = ()
  let read cell () = Cell.get cell

  let fresh_stores = Cell.fresh_stores

  (* Exclusive-owner store: no reservation is outstanding, so a plain
     store suffices, and it installs a fresh box on the boxed cells. *)
  let reset = Cell.set

  (* Ideal LL always succeeds, so an observation is just a reservation the
     backend never has to publish; [commit] is the matching sc. *)
  let observe cell () = Cell.ll cell
  let observed_get = Cell.value
  let commit cell () obs v = Cell.sc cell obs v

  include (Cell : COUNTER with type counter = Cell.counter)

  let registered_count () = 0
  let owned_count () = 0
  let audit () = { registered = 0; owned = 0; free = 0 }
end
