(** The event taxonomy: every countable thing the queue stack can do on its
    failure/helping paths.

    The first four events come from the paper's two synchronization cores
    (LL/SC reservations and their races, counter helping); [Full_retry] /
    [Empty_retry] are the workload-visible outcomes; the [Tag_*] events
    trace the CAS-simulated LL/SC tag-variable registry ([Register] /
    [ReRegister] / [Deregister] and recycling) whose churn the paper's
    space experiment measures; [Shard_steal] counts work-stealing
    fallbacks in the sharded front-end ([Nbq_scale.Sharded]); the
    [Wait_*] events trace the parking layer ([Nbq_wait]) — how often
    blocked operations actually slept, how many wakes were delivered, and
    how many published waiters withdrew unconsumed. *)

type t =
  | Sc_fail        (** update-path store-conditional failed *)
  | Ll_reserve     (** load-linked reservation taken *)
  | Tail_help      (** helped advance a lagging [Tail] *)
  | Head_help      (** helped advance a lagging [Head] *)
  | Full_retry     (** operation observed a full queue *)
  | Empty_retry    (** operation observed an empty queue *)
  | Tag_register   (** tag variable acquired *)
  | Tag_reregister (** [ReRegister] had to swap tag variables *)
  | Tag_deregister (** tag variable released *)
  | Tag_recycle    (** registration recycled a free tag variable *)
  | Shard_steal    (** sharded front-end completed an op on a foreign shard *)
  | Wait_park      (** blocked operation parked its domain *)
  | Wait_wake      (** wake path delivered a signal to a parked waiter *)
  | Wait_cancel    (** published waiter withdrew without consuming a wake *)

val count : int
(** Number of distinct events. *)

val index : t -> int
(** Dense index in [0, count); stable across runs, used as array index and
    JSON field order. *)

val all : t list
(** Every event, in [index] order. *)

val to_string : t -> string
(** Snake-case wire name, e.g. ["sc_fail"]; the JSON-lines field name. *)

val of_string : string -> t option

val describe : t -> string
(** One-line human description for reports. *)

val of_point : Nbq_primitives.Hook.point -> t option
(** The counter a hook point feeds, if any.  [Full_retry] and
    [Empty_retry] come from the queue wrappers, not from hook points;
    windows that sat apart from any count ([Ll_reserve], [Slot_swap],
    [Sc_attempt], [Counter_bump], ...) feed none. *)
