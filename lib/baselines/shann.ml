let name = "shann"

module Make (A : Nbq_primitives.Atomic_intf.ATOMIC) = struct
type 'a pair = { item : 'a option; version : int }

type 'a t = {
  mask : int;
  slots : 'a pair A.t array;
  head : int A.t;
  tail : int A.t;
}

let create ~capacity =
  let capacity = Nbq_core.Queue_intf.round_capacity capacity in
  {
    mask = capacity - 1;
    slots = Array.init capacity (fun _ -> A.make { item = None; version = 0 });
    head = A.make 0;
    tail = A.make 0;
  }

let capacity t = t.mask + 1
let head_index t = A.get t.head
let tail_index t = A.get t.tail

let rec try_enqueue t x =
  let tl = A.get t.tail in
  if tl = A.get t.head + t.mask + 1 then false
  else begin
    let cell = t.slots.(tl land t.mask) in
    let p = A.get cell in
    if A.get t.tail = tl then
      match p.item with
      | Some _ ->
          (* Slot filled but Tail lagging: help. *)
          ignore (A.compare_and_set t.tail tl (tl + 1));
          try_enqueue t x
      | None ->
          if A.compare_and_set cell p { item = Some x; version = p.version + 1 }
          then begin
            ignore (A.compare_and_set t.tail tl (tl + 1));
            true
          end
          else try_enqueue t x
    else try_enqueue t x
  end

let rec try_dequeue t =
  let hd = A.get t.head in
  if hd = A.get t.tail then None
  else begin
    let cell = t.slots.(hd land t.mask) in
    let p = A.get cell in
    if A.get t.head = hd then
      match p.item with
      | None ->
          ignore (A.compare_and_set t.head hd (hd + 1));
          try_dequeue t
      | Some x ->
          if A.compare_and_set cell p { item = None; version = p.version + 1 }
          then begin
            ignore (A.compare_and_set t.head hd (hd + 1));
            Some x
          end
          else try_dequeue t
    else try_dequeue t
  end

let length t =
  (* Tail first: a single subtraction would read Head first. *)
  let tl = A.get t.tail in
  let n = tl - A.get t.head in
  if n < 0 then 0 else if n > t.mask + 1 then t.mask + 1 else n
end

include Make (Nbq_primitives.Atomic_intf.Real)
