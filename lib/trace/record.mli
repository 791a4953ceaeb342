(** Flight-recorder record layout: {!words} ints per record, every field an
    immediate, so ring writers can use plain stores (see [Ring]). *)

val words : int
(** Ints per record (4): tag, ts, span, arg. *)

type op = Enq | Deq | Enq_batch | Deq_batch

type kind =
  | Obs of Nbq_obs.Event.t
  | Fault_hit of Nbq_primitives.Hook.point
  | Span_begin of op
  | Span_end of op

val op_name : op -> string

val obs_tag : Nbq_obs.Event.t -> int
val fault_tag : Nbq_primitives.Hook.point -> int
val span_begin_tag : op -> int
val span_end_tag : op -> int

val kind_of_tag : int -> kind option
(** Inverse of the [*_tag] encoders; [None] on a torn/garbage word. *)

val kind_name : kind -> string
(** Stable display name, e.g. ["sc_fail"], ["slot-swap"],
    ["enqueue:begin"]. *)

val category : kind -> string
(** Perfetto category: ["op"] for spans, ["obs"] for counted events,
    ["fault"] for fault-window hits. *)
