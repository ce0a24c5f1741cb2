(** Span profiler: nested named spans with allocation attribution.

    One {!t} handle per domain/shard/worker; a handle is owned by
    exactly one domain, so recording never takes a lock.  A {!session}
    groups a run's handles and becomes one Chrome trace-event file
    (one [pid] per track, loadable in Perfetto).

    Spans are the one record of phase time and allocation.  Purity:
    profiling is off by default ({!null}/{!disabled}, where every
    operation is a no-op), lives entirely outside campaign digests and
    telemetry, and a profiled run is byte-identical in both to an
    unprofiled one — the same discipline as [--progress]. *)

type span = {
  sp_track : int;     (** shard/worker index; the trace's [pid] *)
  sp_name : string;
  sp_depth : int;     (** nesting depth at open time; 0 = top level *)
  sp_start_s : float; (** absolute {!Mclock} seconds *)
  sp_dur_s : float;   (** inclusive wall time *)
  sp_self_s : float;  (** [dur] minus direct children *)
  sp_minor_w : float; (** minor words allocated during the span *)
  sp_major_w : float; (** major words allocated during the span *)
}

type t
(** A per-domain recording handle. *)

type frame
(** An open span. *)

val disabled : t
(** The no-op handle: {!start} returns a shared frame and {!stop} does
    nothing; neither reads the clock or the allocation counters. *)

val start : t -> string -> frame
val stop : t -> frame -> unit
(** [stop h fr] closes the span opened by [start h name]. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span h name f] wraps [f] in a span; exception-safe; calls [f]
    directly on a disabled handle. *)

(** {1 Sessions} *)

type session

val null : session
(** The inactive session: {!track} returns {!disabled}, writers write
    nothing. *)

val session : unit -> session
(** A fresh active session. *)

val active : session -> bool

val track : session -> ?name:string -> int -> t
(** [track s i] makes a handle recording under track id [i] (the
    trace's [pid]).  Create handles before spawning the domains that
    use them; registration is the only locked operation. *)

val absorb : session -> ?name:string -> trk:int -> span list -> unit
(** Add spans recorded elsewhere (e.g. a supervised worker's, handed
    over in its profile file) under track [trk]. *)

val spans : session -> span list
(** Every recorded span, sorted by (track, start).  Only call after
    the domains using the session's handles have been joined. *)

val tracks : session -> (int * string) list

(** {1 Chrome trace-event JSON} *)

val write_chrome :
  string -> tracks:(int * string) list -> span list -> unit
(** Write a Perfetto-loadable trace: one complete ("X") event per span
    with [ts]/[dur] in microseconds, [pid] = track, [tid] = depth,
    self time in a nonstandard [sdur] field and allocation deltas in
    [args]. *)

val read_chrome : string -> span list * (int * string) list * string list
(** Parse a trace back: [(spans, tracks, complaints)].  Complaints
    (invalid JSON, missing fields, negative durations, spans that
    partially overlap an enclosing span) do not discard the events
    that did parse, so callers choose their own strictness. *)

(** {1 Aggregation} *)

type agg = {
  ag_name : string;
  ag_count : int;
  ag_total_s : float; (** inclusive *)
  ag_self_s : float;
  ag_p50_s : float;   (** per-span inclusive duration percentiles *)
  ag_p95_s : float;
  ag_minor_w : float;
  ag_major_w : float;
}

val aggregate : span list -> agg list
(** Per-name rollup, sorted by self time descending. *)

val track_attribution : span list -> (int * float * float) list
(** Per track: [(track, wall seconds first-start..last-end, seconds in
    top-level spans)] — the "how much of the shard's time is named"
    check. *)

val totals_for : span list -> trk:int -> (string * float) list
(** Inclusive seconds per span name on one track, in first-seen
    order. *)
