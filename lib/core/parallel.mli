(** Parallel campaign runner: shard one logical campaign across N
    OCaml 5 domains and merge the shard results into one
    {!Campaign.stats} — the syzkaller shape of fuzzing (independent VMs,
    central coverage merge) applied to the simulated kernel.

    Each shard owns its own simulated kernel, RNG stream
    ([seed + shard_index]), coverage map and corpus; shards share no
    mutable state, so the result is a pure function of
    [(seed, jobs, config, strategy)] regardless of domain scheduling.

    Shard-local iteration [j] of shard [s] maps to global iteration
    [j * jobs + s] (round-robin lockstep); with [jobs = 1] this is the
    identity and {!run} delegates to {!Campaign.run_t}, making the
    single-job path bit-identical to the sequential campaign. *)

(** One shard's outcome, in portable form. *)
type shard = {
  sh_index : int;
  sh_seed : int;
  sh_iterations : int;
  sh_stats : Campaign.stats;
  sh_corpus : Corpus.entry list;
  sh_edges : ((string * int) * int) list;
      (** {!Bvf_verifier.Coverage.named_edges} of the shard's map *)
}

type result = {
  pr_jobs : int;
  pr_iterations : int;
  pr_stats : Campaign.stats;
      (** merged: union coverage count, findings deduplicated at their
          earliest global iteration, counters and histograms summed, and
          a curve of summed per-shard edge counts (the raw per-VM signal,
          an upper bound on the union at each sample point) *)
  pr_cov : Bvf_verifier.Coverage.t; (** union coverage map *)
  pr_corpus : Corpus.t;
      (** shard corpora unioned and re-scored at global iterations *)
  pr_shards : shard list; (** in index order *)
}

val shard_iterations : iterations:int -> jobs:int -> int array
(** Round-robin split of the iteration budget: [iterations / jobs] each,
    plus one for the first [iterations mod jobs] shards.  Sums to
    [iterations].
    @raise Invalid_argument when [jobs < 1] or [iterations < 0]. *)

val global_iteration : jobs:int -> shard:int -> int -> int
(** [global_iteration ~jobs ~shard local] is [local * jobs + shard]. *)

val shard_failslab :
  ?failslab_rate:float -> ?failslab_seed:int -> seed:int -> int ->
  Bvf_kernel.Failslab.t option
(** [shard_failslab ?failslab_rate ?failslab_seed ~seed i] is shard
    [i]'s fault plan: [None] unless [failslab_rate > 0], else seeded
    [failslab_seed + i] ([failslab_seed] defaults to [seed]).  Both the
    domain shards of {!run} and the {!Supervisor}'s workers use it. *)

val shard : index:int -> Campaign.snapshot -> shard
(** [shard ~index s] is snapshot [s] as shard [index] of a join: its
    seed, completed iterations, stats, corpus entries and portable
    coverage listing.  A live campaign [c] enters as
    [shard ~index (Campaign.snapshot c)]. *)

val join :
  ?prof:Bvf_util.Prof.t -> jobs:int -> iterations:int -> shard list ->
  result
(** The one shard join {!run}, {!merge_snapshots} and the
    {!Supervisor} use: union the shards' coverage, merge their stats
    against the union (findings at their earliest global iteration,
    counters and histograms summed, summed per-shard curve) and their
    corpora (re-scored at global iterations).  Deterministic in the
    shard list order; [prof] records "absorb" and "merge" spans.
    @raise Invalid_argument on an empty shard list. *)

val shard_trace_path : string -> int -> string
(** [shard_trace_path trace i] is [trace ^ ".shard" ^ i] — the
    per-shard telemetry file both this runner and the {!Supervisor}
    workers write, so their merged traces come out byte-identical. *)

val merge_traces : string -> jobs:int -> unit
(** [merge_traces trace ~jobs] merges the [jobs] shard trace files into
    [trace], stable-sorted by global iteration, and removes them. *)

val merge_snapshots :
  Campaign.snapshot list -> Campaign.snapshot
(** Offline checkpoint merge (the [bvf merge] core): fold independent
    campaign snapshots — per-worker checkpoints, or checkpoints fuzzed
    on different machines — into one reportable snapshot.  Inputs keep
    their own (already global) iteration numbers; nothing is
    renumbered.  Associative and commutative on everything
    {!Campaign.digest} covers (the capped, re-scored corpus is the only
    order-sensitive field, and it is outside the digest).  The result
    has [sn_merged] set:
    it can be merged again or reported, but {!Campaign.resume} refuses
    it.
    @raise Invalid_argument on an empty list.
    @raise Campaign.Environment when inputs disagree on tool, kernel
    version, or config flags. *)

val run :
  ?sample_every:int -> ?trace:string -> ?log_level:int ->
  ?failslab_rate:float -> ?failslab_seed:int ->
  ?on_step:(int -> Campaign.t -> unit) ->
  ?prof:Bvf_util.Prof.session ->
  jobs:int -> seed:int -> iterations:int -> Campaign.strategy ->
  Bvf_kernel.Kconfig.t -> result
(** Run [iterations] total fuzzing iterations sharded across [jobs]
    domains.  Shard [i] fuzzes with seed [seed + i] (and, when
    [failslab_rate > 0], a fault plan seeded [failslab_seed + i],
    defaulting [failslab_seed] to [seed]).  [jobs = 1] runs in the
    calling domain and is bit-identical to {!Campaign.run}.

    [trace] writes a {!Telemetry} JSONL stream: each shard writes
    [trace ^ ".shard" ^ i] with iterations rewritten to global
    numbering, and the join merges (stable-sorted by iteration) into
    [trace] and removes the shard files.  With [jobs = 1] the campaign
    writes [trace] directly, byte-identical to a sequential run's
    trace.  [log_level] sets the verifier log level for every load.
    [on_step shard] builds the per-shard step observer (the
    [--progress] status line); it runs on the shard's domain after each
    completed iteration and must not mutate the campaign.
    [prof] (default {!Bvf_util.Prof.null}) records the run as profiler
    spans: track [i] carries shard [i]'s "iterate" span with the
    campaign phase spans nested inside, track [jobs] the coordinator's
    spawn/join/trace-merge/absorb/merge work.  Pure observation — a
    profiled run's digest and trace are byte-identical to an
    unprofiled one.
    @raise Invalid_argument when [jobs < 1].
    @raise Campaign.Environment if any shard raises it. *)

val digest : result -> string
(** {!Campaign.digest} of the merged stats: one canonical hex digest for
    the whole parallel campaign, deterministic for fixed (seed, jobs). *)

val pp_summary : Format.formatter -> result -> unit
