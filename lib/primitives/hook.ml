type point =
  | Ll_reserve
  | Slot_swap
  | Sc_attempt
  | Tag_register
  | Tag_reregister
  | Tag_deregister
  | Counter_bump
  | Seg_append
  | Seg_retire
  | Shard_steal
  | Op_gap
  | Park_window
  | Wake_lost
  | Faa_cycle
  | Threshold_reset
  | Catchup
  | Ll_reserved
  | Sc_fail
  | Tail_help
  | Head_help
  | Tag_recycle
  | Shard_stolen
  | Wait_park
  | Wait_wake
  | Wait_cancel

let all =
  [
    Ll_reserve; Slot_swap; Sc_attempt; Tag_register; Tag_reregister;
    Tag_deregister; Counter_bump; Seg_append; Seg_retire; Shard_steal;
    Op_gap; Park_window; Wake_lost; Faa_cycle; Threshold_reset; Catchup;
    Ll_reserved; Sc_fail; Tail_help; Head_help; Tag_recycle; Shard_stolen;
    Wait_park; Wait_wake; Wait_cancel;
  ]

let is_window = function
  | Ll_reserved | Sc_fail | Tail_help | Head_help | Tag_recycle | Shard_stolen
  | Wait_park | Wait_wake | Wait_cancel ->
      false
  | _ -> true

let windows = List.filter is_window all

let to_string = function
  | Ll_reserve -> "ll-reserve"
  | Slot_swap -> "slot-swap"
  | Sc_attempt -> "sc-attempt"
  | Tag_register -> "tag-register"
  | Tag_reregister -> "tag-reregister"
  | Tag_deregister -> "tag-deregister"
  | Counter_bump -> "counter-bump"
  | Seg_append -> "seg-append"
  | Seg_retire -> "seg-retire"
  | Shard_steal -> "shard-steal"
  | Op_gap -> "op-gap"
  | Park_window -> "park-window"
  | Wake_lost -> "wake-lost"
  | Faa_cycle -> "faa-cycle"
  | Threshold_reset -> "threshold-reset"
  | Catchup -> "catchup"
  | Ll_reserved -> "ll-reserved"
  | Sc_fail -> "sc-fail"
  | Tail_help -> "tail-help"
  | Head_help -> "head-help"
  | Tag_recycle -> "tag-recycle"
  | Shard_stolen -> "shard-stolen"
  | Wait_park -> "wait-park"
  | Wait_wake -> "wait-wake"
  | Wait_cancel -> "wait-cancel"

let of_string s = List.find_opt (fun p -> to_string p = s) windows

module type S = sig
  val hit : point -> unit
end

module Noop : S = struct
  let hit _ = ()
end

(* [compose a b] runs [a]'s hook first, then [b]'s.  Order matters when
   [b] stalls or raises: a flight recorder composed on the left has
   already written its "entered the window" record by the time the
   injector freezes or kills the thread inside it. *)
let compose (module A : S) (module B : S) : (module S) =
  (module struct
    let hit p =
      A.hit p;
      B.hit p
  end)
