module L = Nbq_primitives.Llsc_cas

(* Node links are LL/SC cells over [node option]; Head/Tail always hold
   [Some _] but share the cell type (and hence the tag-variable registry)
   with the links. *)
type 'a node = {
  mutable value : 'a option;
  next : 'a node option L.t;
}

type 'a t = {
  head : 'a node option L.t;
  tail : 'a node option L.t;
  registry : 'a node option L.registry;
  pool : 'a node Nbq_reclaim.Free_pool.t;
  (* Two handles per domain: operations take nested reservations
     (outer pointer + node link). *)
  handles : ('a handles option ref) Domain.DLS.key;
}

and 'a handles = {
  outer : 'a node option L.handle;
  inner : 'a node option L.handle;
}

let create () =
  let registry = L.create_registry () in
  let dummy = { value = None; next = L.make None } in
  {
    head = L.make (Some dummy);
    tail = L.make (Some dummy);
    registry;
    pool = Nbq_reclaim.Free_pool.create ();
    handles = Domain.DLS.new_key (fun () -> ref None);
  }

let registry_size t = L.registered_count t.registry

let get_handles t =
  let cache = Domain.DLS.get t.handles in
  match !cache with
  | Some hs ->
      (* Paper-mandated re-registration between operations. *)
      L.reregister hs.outer;
      L.reregister hs.inner;
      hs
  | None ->
      let hs = { outer = L.register t.registry; inner = L.register t.registry } in
      cache := Some hs;
      hs

let alloc t v =
  match Nbq_reclaim.Free_pool.take t.pool with
  | Some n ->
      n.value <- Some v;
      (* Destroys any straggler's stale reservation on the recycled link;
         their store-conditional will fail and they will re-validate. *)
      L.unsafe_set n.next None;
      n
  | None -> { value = Some v; next = L.make None }

let recycle t n =
  n.value <- None;
  Nbq_reclaim.Free_pool.put t.pool n

let node_of = function
  | Some n -> n
  | None -> assert false (* Head/Tail cells always hold a node *)

let enqueue t x =
  let hs = get_handles t in
  let node = alloc t x in
  let rec loop () =
    let tl = L.ll t.tail hs.outer in
    let tn = node_of tl in
    match L.ll tn.next hs.inner with
    | None ->
        (* Tail still [tn] after [tn.next] was reserved as None: [tn] is the
           last node, not a recycled one that another enqueuer has yet to
           link (linking behind it would put our item after later ones). *)
        if L.vl t.tail hs.outer && L.sc tn.next hs.inner (Some node) then
          (* Linked: [tn.next] was None continuously since the reservation,
             and [tn] was in the list at the validation.  Swing Tail (helped
             by others if our reservation was stolen). *)
          ignore (L.sc t.tail hs.outer (Some node))
        else begin
          (* Release the link reservation if the validation failed. *)
          ignore (L.sc tn.next hs.inner None);
          ignore (L.sc t.tail hs.outer tl);
          loop ()
        end
    | Some n as next ->
        (* Tail lagging: restore the link reservation, help advance. *)
        ignore (L.sc tn.next hs.inner next);
        ignore (L.sc t.tail hs.outer (Some n));
        loop ()
  in
  loop ()

(* Swing a lagging Tail one node forward.  The successor is read under the
   Tail reservation, never carried over from an earlier read: by the time a
   stale successor would be installed, its predecessor may have been
   recycled and relinked as the tail, and Tail would jump backwards. *)
let help_tail t hs =
  let tl = L.ll t.tail hs.outer in
  let tn = node_of tl in
  let next = L.ll tn.next hs.inner in
  ignore (L.sc tn.next hs.inner next);
  match next with
  | Some _ -> ignore (L.sc t.tail hs.outer next)
  | None -> ignore (L.sc t.tail hs.outer tl)

let try_dequeue t =
  let hs = get_handles t in
  let rec loop () =
    let hd = L.ll t.head hs.outer in
    let hn = node_of hd in
    match L.ll hn.next hs.inner with
    | None ->
        ignore (L.sc hn.next hs.inner None);
        (* Rolling Head back doubles as validation: success means Head was
           [hn] for the whole window containing the instant where
           [hn.next = None] was reserved — the queue was empty then. *)
        if L.sc t.head hs.outer hd then None else loop ()
    | Some n as next ->
        ignore (L.sc hn.next hs.inner next);
        (* Reliable tail check (a heuristic peek could let Head overtake a
           lagging Tail, leaving Tail on a recycled node). *)
        let tl = L.ll t.tail hs.inner in
        ignore (L.sc t.tail hs.inner tl);
        if node_of tl == hn then begin
          ignore (L.sc t.head hs.outer hd);
          help_tail t hs;
          loop ()
        end
        else begin
          let v = n.value in
          if L.sc t.head hs.outer (Some n) then begin
            recycle t hn;
            v
          end
          else loop ()
        end
  in
  loop ()

let length t =
  let rec count n (node : 'a node) =
    match L.peek node.next with
    | None -> n
    | Some next -> count (n + 1) next
  in
  count 0 (node_of (L.peek t.head))

module Conc = struct
  type nonrec 'a t = 'a t

  let name = "ms-doherty"
  let create = create
  let enqueue = enqueue
  let try_dequeue = try_dequeue
  let length = length
end
