(* Every benchmark timing reads this clock: CLOCK_MONOTONIC in
   nanoseconds, through the allocation-free stub bechamel ships. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
