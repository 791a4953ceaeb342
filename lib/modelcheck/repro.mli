(** NBQ-FAULT-REPRO [v2-mc] lines: the model checker's counterexample
    format, consumable by [bin/torture.exe --replay] and, in code, by
    {!Dpor.replay} via {!Scenarios.find}. *)

type t = {
  algorithm : string;
  scenario : string;  (** together with [algorithm]: the {!Scenarios.find} key *)
  kind : [ `Safety | `Liveness ];
  schedule : int list;  (** per-step task choices; [[]] prints as ["-"] *)
}

val of_violation :
  algorithm:string -> scenario:string -> message:string -> int list -> t
(** [kind] is derived from the violation message
    ({!Props.is_liveness_message}). *)

val to_line : t -> string
(** One line: [NBQ-FAULT-REPRO v2-mc algorithm=… scenario=… kind=…
    schedule=0,0,1,…]. *)

val parse : string -> t option
(** Inverse of {!to_line}; tolerant of surrounding text (a pasted log
    line) and unknown extra [key=value] fields.  [None] when the line is
    not a [v2-mc] line or a required field is missing or malformed. *)
