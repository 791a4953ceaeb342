let name = "valois-dcas"

module Make (A : Nbq_primitives.Atomic_intf.ATOMIC) = struct
  module M = Nbq_primitives.Mcas.Make (A)

  (* MCAS cells are homogeneous; one word type covers both the counters
     and the slots. *)
  type 'a word =
    | Count of int
    | Slot of 'a option

  type 'a t = {
    mask : int;
    slots : 'a word M.cell array;
    head : 'a word M.cell;
    tail : 'a word M.cell;
  }

  let create ~capacity =
    let capacity = Nbq_core.Queue_intf.round_capacity capacity in
    {
      mask = capacity - 1;
      slots = Array.init capacity (fun _ -> M.make (Slot None));
      head = M.make (Count 0);
      tail = M.make (Count 0);
    }

  let capacity t = t.mask + 1

  let count snapshot =
    match M.value snapshot with
    | Count c -> c
    | Slot _ -> assert false

  let head_index t = count (M.read t.head)
  let tail_index t = count (M.read t.tail)

  let rec try_enqueue t x =
    let ts = M.read t.tail in
    let tc = count ts in
    if tc = count (M.read t.head) + t.mask + 1 then false
    else begin
      let slot_cell = t.slots.(tc land t.mask) in
      let ss = M.read slot_cell in
      match M.value ss with
      | Slot None ->
          (* The DCAS: index and slot move together, so neither can lag
             and no helping paths exist. *)
          if
            M.mcas
              [ (t.tail, ts, Count (tc + 1)); (slot_cell, ss, Slot (Some x)) ]
          then true
          else try_enqueue t x
      | Slot (Some _) ->
          (* Stale snapshot (the invariant says the tail slot is free);
             retry with fresh reads. *)
          try_enqueue t x
      | Count _ -> assert false
    end

  let rec try_dequeue t =
    let hs = M.read t.head in
    let hc = count hs in
    if hc = count (M.read t.tail) then None
    else begin
      let slot_cell = t.slots.(hc land t.mask) in
      let ss = M.read slot_cell in
      match M.value ss with
      | Slot (Some x) ->
          if
            M.mcas [ (t.head, hs, Count (hc + 1)); (slot_cell, ss, Slot None) ]
          then Some x
          else try_dequeue t
      | Slot None -> try_dequeue t (* stale snapshot *)
      | Count _ -> assert false
    end

  let length t =
    (* Tail first: a single subtraction would read Head first. *)
    let tl = tail_index t in
    let n = tl - head_index t in
    if n < 0 then 0 else if n > t.mask + 1 then t.mask + 1 else n
end

include Make (Nbq_primitives.Atomic_intf.Real)
