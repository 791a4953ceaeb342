(** Module types shared by every queue in the repository.

    Two families exist: the paper's queues (and the array-based baselines)
    are {e bounded} — enqueue can fail with "full" — while the Michael–Scott
    family is {e unbounded}.  {!CONC} unifies them so tests, the
    linearizability checker and the benchmark harness can treat any
    implementation as a first-class value.  The single {!Make} functor
    builds the unified view from a {!SOURCE} capability description (use
    the {!Capability} constructors to describe a bounded, batched or
    unbounded implementation); {!Blocking} layers parked blocking
    semantics on top via the eventcounts of [Nbq_wait]. *)

(** A multi-producer multi-consumer bounded FIFO. *)
module type BOUNDED = sig
  type 'a t

  val name : string
  (** Short algorithm name used in reports, e.g. ["evequoz-llsc"]. *)

  val create : capacity:int -> 'a t
  (** [create ~capacity] makes an empty queue able to hold at least
      [capacity] items (implementations round up to a power of two).
      Raises [Invalid_argument] if [capacity < 1]. *)

  val capacity : 'a t -> int
  (** The actual (rounded) capacity. *)

  val try_enqueue : 'a t -> 'a -> bool
  (** Insert at the tail; [false] means the queue was full at some point
      during the call (linearizable "full"). Lock-free. *)

  val try_dequeue : 'a t -> 'a option
  (** Remove from the head; [None] means the queue was empty at some point
      during the call (linearizable "empty"). Lock-free. *)

  val length : 'a t -> int
  (** Number of queued items.  Exact when quiescent; a linearizable-ish
      snapshot under concurrency (may be transiently stale). *)
end

(** A multi-producer multi-consumer unbounded FIFO. *)
module type UNBOUNDED = sig
  type 'a t

  val name : string
  val create : unit -> 'a t

  val enqueue : 'a t -> 'a -> unit
  (** Always succeeds. Lock-free (for the non-blocking implementations). *)

  val try_dequeue : 'a t -> 'a option
  val length : 'a t -> int
end

(** The unified view used by the harness and the conformance battery. *)
module type CONC = sig
  type 'a t

  val name : string

  val bounded : bool
  (** [try_enqueue] can return [false] (a linearizable "full"). *)

  val create : capacity:int -> 'a t
  (** [capacity] is ignored by unbounded implementations. *)

  val try_enqueue : 'a t -> 'a -> bool
  val try_dequeue : 'a t -> 'a option

  val try_enqueue_batch : 'a t -> 'a array -> int
  (** Insert the items {e in array order}, stopping at the first "full";
      returns the number accepted (a prefix of the array).  Equivalent to
      a loop of {!try_enqueue} — implementations override it only to
      amortize per-operation overhead, never to change semantics. *)

  val try_dequeue_batch : 'a t -> int -> 'a list
  (** Remove up to [k] items in FIFO order, stopping at the first "empty";
      the result (length [<= k]) preserves queue order.  Equivalent to a
      loop of {!try_dequeue}. *)

  val length : 'a t -> int
end

(* The one batch of singles, shared by every adapter that has no native
   batch: a batch is exactly a loop of single operations [op t h], so it
   inherits the singles' linearization points item by item.  Both are
   top-level and take the queue and the handle as arguments, so a call
   allocates nothing but the items' own blocks and the result's cons
   cells; the list is built in queue order, with no final reverse. *)
let enqueue_batch_of_singles try_enqueue t h items =
  let n = Array.length items in
  let i = ref 0 in
  while !i < n && try_enqueue t h (Array.unsafe_get items !i) do incr i done;
  !i

let[@tail_mod_cons] rec dequeue_batch_of_singles try_dequeue t h k =
  if k <= 0 then []
  else
    match try_dequeue t h with
    | Some x -> x :: dequeue_batch_of_singles try_dequeue t h (k - 1)
    | None -> []

(** A bounded queue that additionally ships native batch operations —
    implementations where fetching per-operation state once per batch (a
    domain-local handle, a head snapshot) is measurably profitable. *)
module type BOUNDED_BATCH = sig
  include BOUNDED

  val try_enqueue_batch : 'a t -> 'a array -> int
  val try_dequeue_batch : 'a t -> int -> 'a list
end

(** A capability description: everything {!Make} needs to build the
    unified {!CONC} view of one implementation.  The two batch fields are
    [option]s — [None] means "derive from the singles", [Some f] means the
    implementation ships a native batch worth using.  Obtain instances
    from the {!Capability} constructors rather than writing one by
    hand. *)
module type SOURCE = sig
  type 'a t

  val name : string
  val bounded : bool
  val create : capacity:int -> 'a t
  val try_enqueue : 'a t -> 'a -> bool
  val try_dequeue : 'a t -> 'a option
  val length : 'a t -> int
  val try_enqueue_batch : ('a t -> 'a array -> int) option
  val try_dequeue_batch : ('a t -> int -> 'a list) option
end

(** Capability constructors: wrap an implementation of one of the three
    base signatures into the {!SOURCE} that {!Make} consumes, e.g.
    [Make (Capability.Bounded (Evequoz_llsc))]. *)
module Capability = struct
  module Bounded (Q : BOUNDED) : SOURCE with type 'a t = 'a Q.t = struct
    type 'a t = 'a Q.t

    let name = Q.name
    let bounded = true
    let create = Q.create
    let try_enqueue = Q.try_enqueue
    let try_dequeue = Q.try_dequeue
    let length = Q.length
    let try_enqueue_batch = None
    let try_dequeue_batch = None
  end

  module Bounded_batch (Q : BOUNDED_BATCH) : SOURCE with type 'a t = 'a Q.t =
  struct
    type 'a t = 'a Q.t

    let name = Q.name
    let bounded = true
    let create = Q.create
    let try_enqueue = Q.try_enqueue
    let try_dequeue = Q.try_dequeue
    let length = Q.length
    let try_enqueue_batch = Some Q.try_enqueue_batch
    let try_dequeue_batch = Some Q.try_dequeue_batch
  end

  module Unbounded (Q : UNBOUNDED) : SOURCE with type 'a t = 'a Q.t = struct
    type 'a t = 'a Q.t

    let name = Q.name
    let bounded = false
    let create ~capacity:_ = Q.create ()

    let try_enqueue t x =
      Q.enqueue t x;
      true

    let try_dequeue = Q.try_dequeue
    let length = Q.length

    let try_enqueue_batch =
      Some
        (fun t items ->
          Array.iter (Q.enqueue t) items;
          Array.length items)

    let try_dequeue_batch = None
  end
end

(** The one adapter functor: build the unified {!CONC} view from any
    {!SOURCE}, deriving whichever batch operation the capability does not
    provide from the single-item operations (so derived batches inherit
    the singles' linearization points item by item). *)
module Make (S : SOURCE) : CONC with type 'a t = 'a S.t = struct
  type 'a t = 'a S.t

  let name = S.name
  let bounded = S.bounded
  let create = S.create
  let try_enqueue = S.try_enqueue
  let try_dequeue = S.try_dequeue

  (* The singles with the unit handle the batch of singles passes. *)
  let enqueue_single t () x = S.try_enqueue t x
  let dequeue_single t () = S.try_dequeue t

  (* Eta-expanded so the [match] on the capability happens per call but the
     functions stay fully polymorphic (a module-level partial application
     would be weakly typed). *)
  let try_enqueue_batch t items =
    match S.try_enqueue_batch with
    | Some f -> f t items
    | None -> enqueue_batch_of_singles enqueue_single t () items

  let try_dequeue_batch t k =
    match S.try_dequeue_batch with
    | Some f -> f t k
    | None -> dequeue_batch_of_singles dequeue_single t () k

  let length = S.length
end

(** What the blocking wrapper needs from a wait layer: exactly the
    eventcount surface it uses.  [Nbq_wait.Eventcount] matches it; so does
    the model checker's simulated instantiation
    ([Nbq_modelcheck.Sim_wait]), which is how the park/wake paths of
    {!Blocking_ec} run under exhaustive schedule exploration.

    [await t ~deadline cond arg] waits until [cond arg] yields [Some v]
    and returns that same [Some v], or [None] once the absolute
    [deadline] has passed ([infinity]: never, and no clock read).  The
    condition's argument is explicit so a caller passes a function built
    once, not a closure per call. *)
module type EVENTCOUNT = sig
  type t

  val create : ?hook:(module Nbq_primitives.Hook.S) -> unit -> t

  val await :
    ?max_park:int ->
    t ->
    deadline:float ->
    ('b -> 'a option) ->
    'b ->
    'a option

  val wake_one : t -> bool
end

(** Parked blocking operations over any {!CONC} queue, with the wait layer
    and the hook exposed as functor parameters — {!Blocking_hooked} fixes
    the wait layer to the production [Nbq_wait.Eventcount], and
    {!Blocking} additionally fixes the hook to a no-op.

    Unlike a spin loop, a blocked operation here polls the queue only
    briefly (about every 0.1 microsecond, for 1.2 milliseconds) and then
    {e parks its domain} on an eventcount (one for "became non-empty",
    one for "became non-full"), so waiting costs no CPU and —
    crucially under oversubscription — no scheduler slices that the
    producers being waited for could have used.  Each successful
    enqueue/dequeue through this wrapper issues the corresponding wake;
    raw [Q] operations on the same underlying queue (via {!queue} or
    {!of_queue}) are permitted but issue no wakes, so parked peers then
    wake only via the wait layer's bounded-park backstop (~tens of
    milliseconds), never hang. *)
module Blocking_ec
    (EC : EVENTCOUNT)
    (H : Nbq_primitives.Hook.S)
    (Q : CONC) : sig
  type 'a t
  (** A queue plus its two eventcounts. *)

  val create : capacity:int -> 'a t
  val of_queue : 'a Q.t -> 'a t
  (** Wrap an existing queue (fresh eventcounts; see the note above about
      mixing with raw operations). *)

  val queue : 'a t -> 'a Q.t
  (** The underlying queue, for non-blocking [try_*] access. *)

  val enqueue : 'a t -> 'a -> unit
  (** Spin briefly, then park until the item is accepted. *)

  val dequeue : 'a t -> 'a
  (** Spin briefly, then park until an item is available. *)

  val enqueue_until : 'a t -> deadline:float -> 'a -> [ `Ok | `Timeout ]
  (** Like {!enqueue} with an absolute [Unix.gettimeofday] deadline.
      Always makes at least one attempt (a past deadline still succeeds on
      an uncontended queue) but never parks once the deadline has passed;
      timeout resolution is the wait layer's tick (~1ms). *)

  val dequeue_until : 'a t -> deadline:float -> [ `Ok of 'a | `Timeout ]

  val enqueue_budget : 'a t -> retries:int -> 'a -> [ `Ok | `Timeout ]
  (** At most [1 + max retries 0] attempts with backoff between them —
      deterministic, clock-free, and therefore {e spinning}: a budget
      bounds attempts, not time, so parking (whose wakes are time-driven)
      would change its meaning. *)

  val dequeue_budget : 'a t -> retries:int -> [ `Ok of 'a | `Timeout ]
end = struct
  type 'a t = {
    q : 'a Q.t;
    not_empty : EC.t;
    not_full : EC.t;
    enq_cond : 'a -> unit option;  (* built once per queue *)
  }

  let mk_ec () = EC.create ~hook:(module H) ()

  let of_queue q =
    {
      q;
      not_empty = mk_ec ();
      not_full = mk_ec ();
      enq_cond = (fun x -> if Q.try_enqueue q x then Some () else None);
    }

  let create ~capacity = of_queue (Q.create ~capacity)
  let queue t = t.q

  (* Every successful enqueue may have turned "empty" into "non-empty", so
     it wakes one not_empty waiter (and dually for dequeue/not_full).
     Waking unconditionally-on-success rather than only on an observed
     empty->non-empty transition is deliberate: observing the transition
     atomically with the operation is impossible from outside the queue,
     and wake_one's empty-stack fast path makes the uncontended cost a
     single atomic load. *)

  let enqueue_until t ~deadline x =
    match EC.await t.not_full ~deadline t.enq_cond x with
    | Some () ->
        ignore (EC.wake_one t.not_empty : bool);
        `Ok
    | None -> `Timeout

  let dequeue_until t ~deadline =
    match EC.await t.not_empty ~deadline Q.try_dequeue t.q with
    | Some x ->
        ignore (EC.wake_one t.not_full : bool);
        `Ok x
    | None -> `Timeout

  let enqueue t x =
    match enqueue_until t ~deadline:infinity x with
    | `Ok -> ()
    | `Timeout -> assert false (* no deadline *)

  let dequeue t =
    match EC.await t.not_empty ~deadline:infinity Q.try_dequeue t.q with
    | Some x ->
        ignore (EC.wake_one t.not_full : bool);
        x
    | None -> assert false (* no deadline *)

  (* Budget variants stay spin-based (see the signature), but still issue
     wakes on success so parked peers benefit.  No backoff precedes the
     first attempt, so the jittered one is built only when a retry
     follows a failure: a zero budget is a single attempt that allocates
     nothing of its own. *)

  let enqueue_attempt t x =
    if Q.try_enqueue t.q x then begin
      ignore (EC.wake_one t.not_empty : bool);
      `Ok
    end
    else `Timeout

  let dequeue_attempt t =
    match Q.try_dequeue t.q with
    | Some x ->
        ignore (EC.wake_one t.not_full : bool);
        `Ok x
    | None -> `Timeout

  let rec enqueue_retry t b left x =
    Nbq_primitives.Backoff.once b;
    match enqueue_attempt t x with
    | `Timeout when left > 1 -> enqueue_retry t b (left - 1) x
    | r -> r

  let rec dequeue_retry t b left =
    Nbq_primitives.Backoff.once b;
    match dequeue_attempt t with
    | `Timeout when left > 1 -> dequeue_retry t b (left - 1)
    | r -> r

  let jittered () = Nbq_primitives.Backoff.create ~jitter:true ()

  let enqueue_budget t ~retries x =
    match enqueue_attempt t x with
    | `Timeout when retries > 0 -> enqueue_retry t (jittered ()) retries x
    | r -> r

  let dequeue_budget t ~retries =
    match dequeue_attempt t with
    | `Timeout when retries > 0 -> dequeue_retry t (jittered ()) retries
    | r -> r
end

(** {!Blocking_ec} over the production wait layer. *)
module Blocking_hooked = Blocking_ec (Nbq_wait.Eventcount)

(** {!Blocking_hooked} with the no-op hook: the default parked blocking
    wrapper.  See DESIGN.md §10 for why a parked waiter can neither miss a
    wakeup nor be stranded by a crashed waker. *)
module Blocking (Q : CONC) = Blocking_hooked (Nbq_primitives.Hook.Noop) (Q)

(** The largest capacity {!round_capacity} accepts: the biggest power of two
    representable in OCaml's native [int] (2{^61} on 64-bit platforms).
    Anything above would make the doubling loop overflow into negative
    numbers and spin forever. *)
let max_capacity = (max_int / 2) + 1

(** [round_capacity c] is the smallest power of two [>= max c 2].  Shared by
    every array-based implementation so that head/tail counters can wrap
    without skipping slots (paper §4: "Q_LENGTH is a power of 2").  Raises
    [Invalid_argument] when [c < 1] or [c > max_capacity]. *)
let round_capacity capacity =
  if capacity < 1 then invalid_arg "Queue.create: capacity < 1";
  if capacity > max_capacity then
    invalid_arg "Queue.create: capacity exceeds max_capacity";
  let rec go n = if n >= capacity then n else go (n * 2) in
  go 2
