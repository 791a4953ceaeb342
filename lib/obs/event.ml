type t =
  | Sc_fail
  | Ll_reserve
  | Tail_help
  | Head_help
  | Full_retry
  | Empty_retry
  | Tag_register
  | Tag_reregister
  | Tag_deregister
  | Tag_recycle
  | Shard_steal
  | Wait_park
  | Wait_wake
  | Wait_cancel

let count = 14

let index = function
  | Sc_fail -> 0
  | Ll_reserve -> 1
  | Tail_help -> 2
  | Head_help -> 3
  | Full_retry -> 4
  | Empty_retry -> 5
  | Tag_register -> 6
  | Tag_reregister -> 7
  | Tag_deregister -> 8
  | Tag_recycle -> 9
  | Shard_steal -> 10
  | Wait_park -> 11
  | Wait_wake -> 12
  | Wait_cancel -> 13

let all =
  [
    Sc_fail; Ll_reserve; Tail_help; Head_help; Full_retry; Empty_retry;
    Tag_register; Tag_reregister; Tag_deregister; Tag_recycle; Shard_steal;
    Wait_park; Wait_wake; Wait_cancel;
  ]

let to_string = function
  | Sc_fail -> "sc_fail"
  | Ll_reserve -> "ll_reserve"
  | Tail_help -> "tail_help"
  | Head_help -> "head_help"
  | Full_retry -> "full_retry"
  | Empty_retry -> "empty_retry"
  | Tag_register -> "tag_register"
  | Tag_reregister -> "tag_reregister"
  | Tag_deregister -> "tag_deregister"
  | Tag_recycle -> "tag_recycle"
  | Shard_steal -> "shard_steal"
  | Wait_park -> "wait_park"
  | Wait_wake -> "wait_wake"
  | Wait_cancel -> "wait_cancel"

let of_string = function
  | "sc_fail" -> Some Sc_fail
  | "ll_reserve" -> Some Ll_reserve
  | "tail_help" -> Some Tail_help
  | "head_help" -> Some Head_help
  | "full_retry" -> Some Full_retry
  | "empty_retry" -> Some Empty_retry
  | "tag_register" -> Some Tag_register
  | "tag_reregister" -> Some Tag_reregister
  | "tag_deregister" -> Some Tag_deregister
  | "tag_recycle" -> Some Tag_recycle
  | "shard_steal" -> Some Shard_steal
  | "wait_park" -> Some Wait_park
  | "wait_wake" -> Some Wait_wake
  | "wait_cancel" -> Some Wait_cancel
  | _ -> None

let describe = function
  | Sc_fail -> "store-conditional failed on the update path (reservation stolen)"
  | Ll_reserve -> "load-linked reservation taken on a cell"
  | Tail_help -> "helped advance a lagging Tail for a delayed enqueuer"
  | Head_help -> "helped advance a lagging Head for a delayed dequeuer"
  | Full_retry -> "operation observed a full queue"
  | Empty_retry -> "operation observed an empty queue"
  | Tag_register -> "tag variable acquired (Register)"
  | Tag_reregister -> "per-operation ReRegister step (swaps the tag variable if a foreign reference is held)"
  | Tag_deregister -> "tag variable released (Deregister)"
  | Tag_recycle -> "registration recycled a free tag variable"
  | Shard_steal -> "sharded front-end completed an operation on a foreign shard"
  | Wait_park -> "blocked operation parked its domain on an eventcount"
  | Wait_wake -> "wake path delivered a signal to a parked waiter"
  | Wait_cancel -> "published waiter withdrew without consuming a wake"

(* A window at the same program point as a count is one hook point and
   feeds that count. *)
let of_point : Nbq_primitives.Hook.point -> t option = function
  | Ll_reserved -> Some Ll_reserve
  | Sc_fail -> Some Sc_fail
  | Tail_help | Seg_append -> Some Tail_help
  | Head_help | Seg_retire | Threshold_reset -> Some Head_help
  | Tag_register -> Some Tag_register
  | Tag_reregister -> Some Tag_reregister
  | Tag_deregister -> Some Tag_deregister
  | Tag_recycle -> Some Tag_recycle
  | Shard_stolen -> Some Shard_steal
  | Wait_park -> Some Wait_park
  | Wait_wake -> Some Wait_wake
  | Wait_cancel -> Some Wait_cancel
  | Ll_reserve | Slot_swap | Sc_attempt | Counter_bump | Shard_steal | Op_gap
  | Park_window | Wake_lost | Faa_cycle | Catchup ->
      None
