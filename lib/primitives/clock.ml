(* Nanosecond monotonic clock: bechamel's monotonic_clock stub, which
   reads CLOCK_MONOTONIC directly (Unix.gettimeofday only gives
   microseconds).  Declared here as an unboxed [noalloc] external rather
   than called through [Monotonic_clock.now], whose boxed [int64] result
   allocates whenever the call is not inlined (dune's dev profile
   compiles libraries opaquely): the wait layer's spin reads this clock
   and must allocate nothing per poll. *)

external clock_linux_get_time : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_linux_get_time ())
