(* Fixed-size flight-recorder records.  One record is {!words} consecutive
   ints in a ring's flat buffer:

     word 0  tag      — (kind lsl 8) lor code, see below
     word 1  ts       — monotonic ns relative to the recorder's epoch
     word 2  span     — per-domain operation span id (0 = outside any span)
     word 3  arg      — operand word (result bit, batch size, 0)

   Keeping every field an immediate int is what lets the writer use plain
   stores: the GC never scans a live pointer out of a half-written slot. *)

module Event = Nbq_obs.Event
module Hook = Nbq_primitives.Hook

let words = 4

type op = Enq | Deq | Enq_batch | Deq_batch

type kind =
  | Obs of Event.t        (** a counted hook point inside an algorithm *)
  | Fault_hit of Hook.point  (** execution entered a fault window *)
  | Span_begin of op      (** a sampled queue operation started *)
  | Span_end of op        (** ... and finished; [arg] carries the result *)

let op_index = function Enq -> 0 | Deq -> 1 | Enq_batch -> 2 | Deq_batch -> 3

let op_of_index = function
  | 0 -> Some Enq
  | 1 -> Some Deq
  | 2 -> Some Enq_batch
  | 3 -> Some Deq_batch
  | _ -> None

let op_name = function
  | Enq -> "enqueue"
  | Deq -> "dequeue"
  | Enq_batch -> "enqueue_batch"
  | Deq_batch -> "dequeue_batch"

let events = Array.of_list Event.all
let fault_points = Array.of_list Hook.windows

let fault_index p =
  let rec go i = function
    | [] -> invalid_arg "Record.fault_index"
    | q :: tl -> if q = p then i else go (i + 1) tl
  in
  go 0 Hook.windows

let obs_tag ev = Event.index ev
let fault_tag p = (1 lsl 8) lor fault_index p
let span_begin_tag o = (2 lsl 8) lor op_index o
let span_end_tag o = (3 lsl 8) lor op_index o

let kind_of_tag tag =
  let code = tag land 0xff in
  match tag lsr 8 with
  | 0 -> if code < Array.length events then Some (Obs events.(code)) else None
  | 1 ->
      if code < Array.length fault_points then
        Some (Fault_hit fault_points.(code))
      else None
  | 2 -> Option.map (fun o -> Span_begin o) (op_of_index code)
  | 3 -> Option.map (fun o -> Span_end o) (op_of_index code)
  | _ -> None

let kind_name = function
  | Obs ev -> Event.to_string ev
  | Fault_hit p -> Hook.to_string p
  | Span_begin o -> op_name o ^ ":begin"
  | Span_end o -> op_name o ^ ":end"

(* Perfetto category: spans get their own track phase; the rest render as
   instant markers on the domain's track. *)
let category = function
  | Obs _ -> "obs"
  | Fault_hit _ -> "fault"
  | Span_begin _ | Span_end _ -> "op"
