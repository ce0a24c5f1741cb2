(** Monotonic wall clock — the single source of timer deltas.

    [Unix.gettimeofday] follows the adjustable realtime clock; a delta
    taken across an NTP step can be negative.  Every duration the
    repository measures (profiler spans, per-program verification wall
    time, progress and watchdog intervals) goes through this module
    instead, which clamps readings to be globally non-decreasing.  Safe
    to call concurrently from multiple domains. *)

val now_s : unit -> float
(** Seconds on a non-decreasing clock.  Consecutive calls — from any
    domain — never observe a smaller value. *)

val elapsed_s : since:float -> float
(** [elapsed_s ~since:t0] where [t0] came from {!now_s}: the
    non-negative seconds elapsed since [t0]. *)

val time_s : (unit -> 'a) -> 'a * float
(** Run a thunk and return its result with the elapsed wall time. *)
