module Queue_intf = Nbq_core.Queue_intf
module Hook = Nbq_primitives.Hook
module Padding = Nbq_obs.Padding
module Sharded_counter = Nbq_obs.Sharded_counter

(* One shard's operations, as closures over whatever backs it (a CONC
   module's queue, a Registry instance, an injected-fault ring).  The
   record is copied through [Padding.copy_padded] at construction so
   adjacent shards' closure blocks never share a cache line. *)
type 'a shard_ops = {
  enq : 'a -> bool;
  deq : unit -> 'a option;
  len : unit -> int;
  enq_batch : 'a array -> int;
  deq_batch : int -> 'a list;
}

type 'a t = {
  shards : 'a shard_ops array;
  home : unit -> int;          (* affinity; result always in [0, shards) *)
  steals : Sharded_counter.t;
  hit : Hook.point -> unit;    (* Shard_steal before the first foreign probe,
                                  Shard_stolen per foreign-shard success *)
}

let ops ~enq ~deq ~len ~enq_batch ~deq_batch =
  { enq; deq; len; enq_batch; deq_batch }

let ops_of_singles ~enq ~deq ~len =
  {
    enq;
    deq;
    len;
    enq_batch =
      (fun items ->
        let n = Array.length items in
        let i = ref 0 in
        while !i < n && enq (Array.unsafe_get items !i) do incr i done;
        !i);
    deq_batch =
      (fun k ->
        let rec go acc left =
          if left <= 0 then List.rev acc
          else
            match deq () with
            | Some x -> go (x :: acc) (left - 1)
            | None -> List.rev acc
        in
        go [] k);
  }

let create ?hook:((module H : Hook.S) = (module Hook.Noop)) ?home ~shards mk
    =
  if shards < 1 then invalid_arg "Sharded.create: shards < 1";
  let home =
    match home with
    (* Domain affinity: a domain's home shard is its id modulo the shard
       count, so with [shards >= domains] every domain owns a private
       ring and only crosses over when stealing. *)
    | None -> fun () -> (Domain.self () :> int) mod shards
    (* Custom affinity (tests, adversarial torture schedules): clamp into
       range so a wild function cannot index out of bounds. *)
    | Some f -> fun () -> ((f () mod shards) + shards) mod shards
  in
  {
    shards = Array.init shards (fun i -> Padding.copy_padded (mk i));
    home;
    steals = Sharded_counter.create ();
    hit = H.hit;
  }

let shard_count t = Array.length t.shards
let steal_count t = Sharded_counter.read t.steals

let stole t =
  Sharded_counter.incr t.steals;
  t.hit Hook.Shard_stolen

let home t = t.home ()

let try_enqueue t x =
  let n = Array.length t.shards in
  let h = home t in
  if (Array.unsafe_get t.shards h).enq x then true
  else if n = 1 then false
  else begin
    t.hit Hook.Shard_steal;
    let rec sweep i =
      if i >= n then false
      else
        let s = if h + i >= n then h + i - n else h + i in
        if (Array.unsafe_get t.shards s).enq x then begin
          stole t;
          true
        end
        else sweep (i + 1)
    in
    sweep 1
  end

let try_dequeue t =
  let n = Array.length t.shards in
  let h = home t in
  match (Array.unsafe_get t.shards h).deq () with
  | Some _ as r -> r
  | None ->
      if n = 1 then None
      else begin
        t.hit Hook.Shard_steal;
        let rec sweep i =
          if i >= n then None
          else
            let s = if h + i >= n then h + i - n else h + i in
            match (Array.unsafe_get t.shards s).deq () with
            | Some _ as r ->
                stole t;
                r
            | None -> sweep (i + 1)
        in
        sweep 1
      end

(* Like [try_dequeue] but reports which shard served the item, so tests
   can assert per-shard FIFO order without trusting the facade. *)
let try_dequeue_with_source t =
  let n = Array.length t.shards in
  let h = home t in
  match (Array.unsafe_get t.shards h).deq () with
  | Some x -> Some (h, x)
  | None ->
      if n = 1 then None
      else begin
        t.hit Hook.Shard_steal;
        let rec sweep i =
          if i >= n then None
          else
            let s = if h + i >= n then h + i - n else h + i in
            match (Array.unsafe_get t.shards s).deq () with
            | Some x ->
                stole t;
                Some (s, x)
            | None -> sweep (i + 1)
        in
        sweep 1
      end

let try_enqueue_batch t items =
  let total = Array.length items in
  if total = 0 then 0
  else begin
    let n = Array.length t.shards in
    let h = home t in
    let accepted = ref ((Array.unsafe_get t.shards h).enq_batch items) in
    if !accepted < total && n > 1 then begin
      t.hit Hook.Shard_steal;
      let i = ref 1 in
      while !accepted < total && !i < n do
        let s = if h + !i >= n then h + !i - n else h + !i in
        let rest = Array.sub items !accepted (total - !accepted) in
        let k = (Array.unsafe_get t.shards s).enq_batch rest in
        if k > 0 then begin
          stole t;
          accepted := !accepted + k
        end;
        incr i
      done
    end;
    !accepted
  end

let try_dequeue_batch t k =
  if k <= 0 then []
  else begin
    let n = Array.length t.shards in
    let h = home t in
    let got = (Array.unsafe_get t.shards h).deq_batch k in
    let m = List.length got in
    if m >= k || n = 1 then got
    else begin
      t.hit Hook.Shard_steal;
      let rec sweep i chunks m =
        if m >= k || i >= n then List.concat (List.rev chunks)
        else
          let s = if h + i >= n then h + i - n else h + i in
          let more = (Array.unsafe_get t.shards s).deq_batch (k - m) in
          match more with
          | [] -> sweep (i + 1) chunks m
          | _ ->
              stole t;
              sweep (i + 1) (more :: chunks) (m + List.length more)
      in
      sweep 1 [ got ] m
    end
  end

(* Sum of per-shard lengths, each read at a different instant: a
   non-linearizable snapshot.  With [d] operations in flight the result is
   within [d] of any linearized length, which is the bound the battery
   test pins down. *)
let length t =
  Array.fold_left (fun acc s -> acc + s.len ()) 0 t.shards

let shard_length t i = t.shards.(i).len ()

(* --- Functor veneer over any CONC implementation ----------------------- *)

module type SHARDS = sig
  val shards : int
end

module Make_probed (N : SHARDS) (H : Hook.S) (Q : Queue_intf.CONC) = struct
  type nonrec 'a t = 'a t

  let name = Q.name ^ "-shard" ^ string_of_int N.shards

  (* The facade keeps the shards' boundedness but loses single-lap /
     resettable guarantees (shards fill unevenly, steals reorder), and
     its batch sweep is native. *)
  let caps =
    Queue_intf.Caps.(with_batch (if Q.caps.bounded then bounded else unbounded))

  let bounded = Q.bounded

  (* Capacity splits evenly across shards (rounded up, then up again to
     each ring's power of two), so the facade holds at least [capacity]
     items in aggregate — but a single shard can fill while others have
     room, which is why enqueue steals before reporting full. *)
  let create ~capacity =
    let per = max 1 ((capacity + N.shards - 1) / N.shards) in
    create ~hook:(module H) ~shards:N.shards (fun _ ->
        let q = Q.create ~capacity:per in
        ops
          ~enq:(fun x -> Q.try_enqueue q x)
          ~deq:(fun () -> Q.try_dequeue q)
          ~len:(fun () -> Q.length q)
          ~enq_batch:(fun items -> Q.try_enqueue_batch q items)
          ~deq_batch:(fun k -> Q.try_dequeue_batch q k))

  let try_enqueue = try_enqueue
  let try_dequeue = try_dequeue
  let try_enqueue_batch = try_enqueue_batch
  let try_dequeue_batch = try_dequeue_batch
  let length = length
end

module Make (N : SHARDS) (Q : Queue_intf.CONC) = Make_probed (N) (Hook.Noop) (Q)

(* The default composition the ISSUE names: N rings of the paper's
   CAS-based queue, with the ring's amortized batch runs (one ReRegister
   and one counter CAS per clean run) — the spurious whole-run "full" a
   lagging counter can cause is exactly what the steal sweep absorbs. *)
module Evequoz_cas (N : SHARDS) =
  Make
    (N)
    (Queue_intf.Make
       (Queue_intf.Capability.Bounded_batch (Nbq_core.Evequoz_cas.Batched)))

(* --- Parked blocking over the facade ----------------------------------- *)

module Eventcount = Nbq_wait.Eventcount

(* Eventcounts shard like the rings do: a consumer parks on its HOME
   shard's not_empty eventcount, and a producer's wake sweeps the
   eventcount array in the same cyclic home-first order the steal sweep
   uses — so in the common (affinity-respecting) case a wake touches only
   the home eventcount, and waiters parked anywhere are found exactly when
   stealing would find their items.  A wake delivered to shard s's
   eventcount can satisfy an item enqueued on any shard because a parked
   waiter's condition is the full facade operation (home probe + steal
   sweep). *)
type 'a waitable = {
  base : 'a t;
  not_empty : Eventcount.t array;
  not_full : Eventcount.t array;
}

let waitable ?hook base =
  let mk _ = Eventcount.create ?hook () in
  let n = shard_count base in
  {
    base;
    not_empty = Array.init n mk;
    not_full = Array.init n mk;
  }

let base w = w.base

(* Mirror of the steal sweep: try the home eventcount, then the others in
   cyclic order, stopping at the first delivered wake.  Stopping early is
   what keeps one enqueue from waking the whole fleet; sweeping at all is
   what keeps a waiter parked on a foreign shard from being invisible. *)
let wake_sweep ecs h =
  let n = Array.length ecs in
  let rec go i =
    if i < n then
      let s = if h + i >= n then h + i - n else h + i in
      if not (Eventcount.wake_one (Array.unsafe_get ecs s)) then go (i + 1)
  in
  go 0

let enq_cond w x () = if try_enqueue w.base x then Some () else None

let enqueue w x =
  let h = home w.base in
  match Eventcount.await w.not_full.(h) (enq_cond w x) with
  | `Ok () -> wake_sweep w.not_empty h
  | `Timeout -> assert false (* no deadline *)

let dequeue w =
  let h = home w.base in
  match Eventcount.await w.not_empty.(h) (fun () -> try_dequeue w.base) with
  | `Ok x ->
      wake_sweep w.not_full h;
      x
  | `Timeout -> assert false

let enqueue_until w ~deadline x =
  let h = home w.base in
  match Eventcount.await ~deadline w.not_full.(h) (enq_cond w x) with
  | `Ok () ->
      wake_sweep w.not_empty h;
      `Ok
  | `Timeout -> `Timeout

let dequeue_until w ~deadline =
  let h = home w.base in
  match
    Eventcount.await ~deadline w.not_empty.(h) (fun () -> try_dequeue w.base)
  with
  | `Ok x ->
      wake_sweep w.not_full h;
      `Ok x
  | `Timeout -> `Timeout
