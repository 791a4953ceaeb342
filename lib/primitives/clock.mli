val now_ns : unit -> int
(** Monotonic time in nanoseconds (CLOCK_MONOTONIC).  Allocates nothing
    in any build profile.  Fits an OCaml int for ~292 years of uptime. *)
