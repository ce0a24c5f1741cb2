open Cimport

(* Parallel campaign runner: shard one logical campaign across N OCaml 5
   domains, the way syzkaller shards fuzzing across VMs and merges
   coverage centrally (and the way the paper's evaluation runs many
   instances to reach meaningful iteration counts).

   Each shard is a fully independent {!Campaign.t}: its own simulated
   kernel, its own RNG stream (split as [seed + shard_index], so the
   result is a pure function of (seed, jobs)), its own coverage map and
   corpus.  Shards never share mutable state, so domains need no locks
   and the run is deterministic regardless of scheduling.

   The merge layer folds the shard results into one {!Campaign.stats}:

   - coverage is unioned through portable (site, variant) edge names
     (numeric edge ids are interner-order dependent per shard);
   - findings are deduplicated by fingerprint key, keeping the earliest
     *global* iteration — shard-local iteration [j] of shard [s] maps to
     global iteration [j * jobs + s], i.e. the shards are viewed as
     fuzzing in lockstep round-robin, exactly the schedule a sequential
     run with [jobs = 1] degenerates to;
   - counters, errno distributions and instruction histograms are
     summed;
   - the corpus is the union of shard corpora with entries re-scored
     under their global iteration numbers ({!Corpus.of_entries});
   - the merged coverage curve records, at every global iteration any
     shard sampled, the sum of the shards' local edge counts — the raw
     per-VM signal before central dedup, an upper bound on the union;
     the final [st_edges] is the true union size.

   Determinism contract: for fixed (seed, jobs, config, strategy) every
   shard result and the merged stats/digest are identical across runs
   and machines; [jobs = 1] delegates to {!Campaign.run_t} and is
   bit-identical to the sequential path. *)

type shard = {
  sh_index : int;
  sh_seed : int;
  sh_iterations : int;
  sh_stats : Campaign.stats;
  sh_corpus : Corpus.entry list;
  sh_edges : ((string * int) * int) list; (* portable coverage listing *)
}

type result = {
  pr_jobs : int;
  pr_iterations : int;
  pr_stats : Campaign.stats; (* merged *)
  pr_cov : Coverage.t;       (* union coverage *)
  pr_corpus : Corpus.t;      (* merged, re-scored *)
  pr_shards : shard list;    (* in index order *)
}

(* Round-robin split: shard [i] executes exactly the global iterations
   congruent to [i] mod [jobs], so the per-shard counts are
   [iterations / jobs] plus one for the first [iterations mod jobs]
   shards. *)
let shard_iterations ~(iterations : int) ~(jobs : int) : int array =
  if jobs < 1 then invalid_arg "Parallel.shard_iterations: jobs < 1";
  if iterations < 0 then
    invalid_arg "Parallel.shard_iterations: negative iterations";
  Array.init jobs (fun i ->
      (iterations / jobs) + if i < iterations mod jobs then 1 else 0)

let global_iteration ~(jobs : int) ~(shard : int) (local : int) : int =
  (local * jobs) + shard

(* -- Merging ----------------------------------------------------------- *)

let add_histogram (a : Disasm.class_histogram)
    (b : Disasm.class_histogram) : Disasm.class_histogram =
  {
    Disasm.alu = a.Disasm.alu + b.Disasm.alu;
    jmp = a.Disasm.jmp + b.Disasm.jmp;
    load = a.Disasm.load + b.Disasm.load;
    store = a.Disasm.store + b.Disasm.store;
    call = a.Disasm.call + b.Disasm.call;
    other = a.Disasm.other + b.Disasm.other;
  }

(* Merged findings: same dedup key as the sequential campaign, earliest
   global iteration wins.  Folding per key through [min] makes the
   result independent of hashtable iteration order. *)
let merge_findings ~(jobs : int) (shards : shard list) :
  (string, Campaign.found) Hashtbl.t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun key (f : Campaign.found) ->
            let f =
              { f with
                Campaign.fd_iteration =
                  global_iteration ~jobs ~shard:sh.sh_index
                    f.Campaign.fd_iteration }
            in
            match Hashtbl.find_opt merged key with
            | Some prev
              when prev.Campaign.fd_iteration <= f.Campaign.fd_iteration ->
              ()
            | Some _ | None -> Hashtbl.replace merged key f)
         sh.sh_stats.Campaign.st_findings)
    shards;
  merged

(* Merged coverage curve: at every global iteration some shard sampled,
   the sum of each shard's latest local edge count — per-VM coverage
   before central dedup.  Monotone and deterministic. *)
let merge_curves ~(jobs : int) (shards : shard list) :
  Campaign.sample list =
  (* per shard: samples ascending by global iteration *)
  let ascending =
    List.map
      (fun sh ->
         List.rev_map
           (fun (sa : Campaign.sample) ->
              ( global_iteration ~jobs ~shard:sh.sh_index
                  sa.Campaign.sa_iteration,
                sa.Campaign.sa_edges ))
           sh.sh_stats.Campaign.st_curve
         |> List.sort compare)
      shards
  in
  let points =
    List.sort_uniq compare (List.concat_map (List.map fst) ascending)
  in
  let at (samples : (int * int) list) (g : int) : int =
    List.fold_left
      (fun acc (it, edges) -> if it <= g then edges else acc)
      0 samples
  in
  List.map
    (fun g ->
       { Campaign.sa_iteration = g;
         sa_edges =
           List.fold_left (fun acc s -> acc + at s g) 0 ascending })
    points
  |> List.rev (* newest first, like the sequential curve *)

(* Summed per-key counters (errno and rejection-reason tables). *)
let merge_counts (size : int) (table : Campaign.stats -> ('k, int) Hashtbl.t)
    (shards : shard list) : ('k, int) Hashtbl.t =
  let merged = Hashtbl.create size in
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun k n ->
            Hashtbl.replace merged k
              (n + Option.value (Hashtbl.find_opt merged k) ~default:0))
         (table sh.sh_stats))
    shards;
  merged

let merge_stats ~(jobs : int) (cov : Coverage.t) (shards : shard list) :
  Campaign.stats =
  match shards with
  | [] -> invalid_arg "Parallel.join: no shards"
  | first :: _ ->
    let sum f = List.fold_left (fun acc sh -> acc + f sh.sh_stats) 0 shards in
    {
      Campaign.st_tool = first.sh_stats.Campaign.st_tool;
      st_version = first.sh_stats.Campaign.st_version;
      st_generated = sum (fun s -> s.Campaign.st_generated);
      st_accepted = sum (fun s -> s.Campaign.st_accepted);
      st_rejected = sum (fun s -> s.Campaign.st_rejected);
      st_errno = merge_counts 8 (fun s -> s.Campaign.st_errno) shards;
      st_reasons = merge_counts 16 (fun s -> s.Campaign.st_reasons) shards;
      st_findings = merge_findings ~jobs shards;
      st_curve = merge_curves ~jobs shards;
      st_histogram =
        List.fold_left
          (fun acc sh -> add_histogram acc sh.sh_stats.Campaign.st_histogram)
          Disasm.empty_histogram shards;
      st_edges = Coverage.edge_count cov;
      st_reboots = sum (fun s -> s.Campaign.st_reboots);
      st_env_errors = sum (fun s -> s.Campaign.st_env_errors);
      st_retries = sum (fun s -> s.Campaign.st_retries);
      st_quarantined = sum (fun s -> s.Campaign.st_quarantined);
      st_skipped = sum (fun s -> s.Campaign.st_skipped);
      st_lint = sum (fun s -> s.Campaign.st_lint);
      st_vstats =
        (let merged = Vstats.agg_zero () in
         List.iter
           (fun sh ->
              Vstats.agg_absorb merged sh.sh_stats.Campaign.st_vstats)
           shards;
         merged);
    }

let merge_corpora ~(jobs : int) (shards : shard list) : Corpus.t =
  List.concat_map
    (fun sh ->
       List.map
         (fun (e : Corpus.entry) ->
            { e with
              Corpus.added_at =
                global_iteration ~jobs ~shard:sh.sh_index
                  e.Corpus.added_at })
         sh.sh_corpus)
    shards
  |> Corpus.of_entries

(* A shard from a snapshot — a live campaign goes through
   [Campaign.snapshot c] — in the portable form the join merges. *)
let shard ~(index : int) (s : Campaign.snapshot) : shard =
  {
    sh_index = index;
    sh_seed = s.Campaign.sn_seed;
    sh_iterations = s.Campaign.sn_completed;
    sh_stats = s.Campaign.sn_stats;
    sh_corpus = Corpus.entries s.Campaign.sn_corpus;
    sh_edges = Coverage.named_edges s.Campaign.sn_cov;
  }

(* The one join every executor uses: union the shards' coverage, then
   merge their stats against it and their corpora. *)
let join ?(prof = Bvf_util.Prof.disabled) ~(jobs : int)
    ~(iterations : int) (shards : shard list) : result =
  let cov = Coverage.create () in
  Bvf_util.Prof.span prof "absorb" (fun () ->
      List.iter
        (fun sh -> ignore (Coverage.absorb_named cov sh.sh_edges))
        shards);
  Bvf_util.Prof.span prof "merge" (fun () ->
      {
        pr_jobs = jobs;
        pr_iterations = iterations;
        pr_stats = merge_stats ~jobs cov shards;
        pr_cov = cov;
        pr_corpus = merge_corpora ~jobs shards;
        pr_shards = shards;
      })

(* Shard [i]'s fault plan: rate [failslab_rate], seeded
   [failslab_seed + i] ([failslab_seed] defaults to [seed]). *)
let shard_failslab ?failslab_rate ?failslab_seed ~(seed : int) (i : int) :
  Bvf_kernel.Failslab.t option =
  match failslab_rate with
  | Some rate when rate > 0.0 ->
    Some
      (Bvf_kernel.Failslab.create ~rate
         ~seed:(Option.value failslab_seed ~default:seed + i)
         ())
  | Some _ | None -> None

let shard_trace_path (trace : string) (i : int) : string =
  trace ^ ".shard" ^ string_of_int i

(* Merge the [jobs] shard trace files into [trace] (stable by global
   iteration) and remove them. *)
let merge_traces (trace : string) ~(jobs : int) : unit =
  let paths = List.init jobs (shard_trace_path trace) in
  ignore (Telemetry.merge_shards ~into:trace paths);
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths

(* Offline checkpoint merge (bvf merge): fold independent campaign
   snapshots into one reportable snapshot through the same machinery the
   in-process join uses.  Every input keeps its own (already global)
   iteration numbers, so the shards are built with [sh_index = 0] and
   merged with [jobs = 1] — [global_iteration] degenerates to the
   identity and nothing is renumbered.  The result is associative and
   commutative on everything {!Campaign.digest} covers (counts, errno
   and reason tables, findings-at-earliest-iteration, curve, vstats,
   union coverage); only the corpus, which is capped and re-scored,
   falls outside that guarantee, and it is outside the digest too.
   Stats carry no phase timers (those are Prof spans), so nothing
   outside the digest is left to sum.  The merged snapshot carries no
   RNG stream ([sn_merged]): it can be merged again, reported, seeded
   from — but never resumed. *)
let merge_snapshots (snapshots : Campaign.snapshot list) :
  Campaign.snapshot =
  match snapshots with
  | [] -> invalid_arg "Parallel.merge_snapshots: no snapshots"
  | first :: rest ->
    List.iter
      (fun (s : Campaign.snapshot) ->
         if s.Campaign.sn_tool <> first.Campaign.sn_tool then
           raise
             (Campaign.Environment
                (Printf.sprintf
                   "cannot merge checkpoints of different tools (%s vs %s)"
                   first.Campaign.sn_tool s.Campaign.sn_tool));
         if s.Campaign.sn_kernel <> first.Campaign.sn_kernel then
           raise
             (Campaign.Environment
                (Printf.sprintf
                   "cannot merge checkpoints of different kernels (%s vs %s)"
                   (Bvf_ebpf.Version.to_string first.Campaign.sn_kernel)
                   (Bvf_ebpf.Version.to_string s.Campaign.sn_kernel)));
         if s.Campaign.sn_sanitize <> first.Campaign.sn_sanitize
            || s.Campaign.sn_unprivileged
               <> first.Campaign.sn_unprivileged
            || s.Campaign.sn_witness <> first.Campaign.sn_witness
            || s.Campaign.sn_lint <> first.Campaign.sn_lint then
           raise
             (Campaign.Environment
                "cannot merge checkpoints taken under different configs"))
      rest;
    let shards = List.map (shard ~index:0) snapshots in
    let r =
      join ~jobs:1
        ~iterations:
          (List.fold_left (fun acc sh -> acc + sh.sh_iterations) 0 shards)
        shards
    in
    { first with
      Campaign.sn_completed = r.pr_iterations;
      sn_merged = true;
      sn_rng = 0L;
      sn_failslab = Bvf_kernel.Failslab.off ();
      sn_corpus = r.pr_corpus;
      sn_cov = r.pr_cov;
      sn_stats = r.pr_stats;
    }

(* -- Driving ----------------------------------------------------------- *)

let run ?(sample_every = 64) ?trace ?log_level ?failslab_rate
    ?failslab_seed ?on_step ?(prof = Bvf_util.Prof.null) ~(jobs : int)
    ~(seed : int) ~(iterations : int) (strategy : Campaign.strategy)
    (config : Kconfig.t) : result =
  if jobs < 1 then invalid_arg "Parallel.run: jobs < 1";
  let counts = shard_iterations ~iterations ~jobs in
  (* profiler tracks: one per shard (created here, before the domains
     spawn, then owned exclusively by their domain) plus one for this
     coordinating domain's spawn/join/absorb/merge work *)
  let shard_prof =
    Array.init jobs (fun i ->
        Bvf_util.Prof.track prof ~name:(Printf.sprintf "shard%d" i) i)
  in
  let main_prof =
    Bvf_util.Prof.track prof ~name:"coordinator" jobs
  in
  (* Each shard writes its own trace file with iterations already
     rewritten to global numbering; the join merges them into [trace].
     With [jobs = 1] the mapping is the identity and the shard writes
     [trace] directly, so the trace is byte-identical to a sequential
     campaign's. *)
  let sink_for (i : int) : Telemetry.sink =
    match trace with
    | None -> Telemetry.null
    | Some path when jobs = 1 -> Telemetry.create path
    | Some path ->
      Telemetry.create
        ~iter_map:(fun local -> global_iteration ~jobs ~shard:i local)
        (shard_trace_path path i)
  in
  let run_shard (i : int) : Campaign.t =
    (* the whole shard body is one top-level "iterate" span; the
       campaign's per-phase spans nest inside it, so the span's self
       time is exactly the per-iteration harness overhead (RNG, corpus,
       telemetry emission) the ROADMAP wants named *)
    Bvf_util.Prof.span shard_prof.(i) "iterate" (fun () ->
        let telemetry = sink_for i in
        let on_step = Option.map (fun f -> f i) on_step in
        let c =
          Campaign.run_t ~sample_every ~telemetry ?log_level
            ~prof:shard_prof.(i)
            ?failslab:(shard_failslab ?failslab_rate ?failslab_seed ~seed i)
            ?on_step ~seed:(seed + i) ~iterations:counts.(i) strategy config
        in
        Telemetry.close telemetry;
        c)
  in
  if jobs = 1 then begin
    (* the sequential path, verbatim: same calls in the same domain, so
       stats and digest are bit-identical to Campaign.run *)
    let c = run_shard 0 in
    {
      pr_jobs = 1;
      pr_iterations = iterations;
      pr_stats = c.Campaign.stats;
      pr_cov = c.Campaign.cov;
      pr_corpus = c.Campaign.corpus;
      pr_shards = [ shard ~index:0 (Campaign.snapshot c) ];
    }
  end
  else begin
    let domains =
      Bvf_util.Prof.span main_prof "spawn" (fun () ->
          Array.init jobs (fun i -> Domain.spawn (fun () -> run_shard i)))
    in
    let shards =
      Bvf_util.Prof.span main_prof "join" (fun () ->
          List.init jobs (fun i ->
              shard ~index:i (Campaign.snapshot (Domain.join domains.(i)))))
    in
    Option.iter
      (fun path ->
         Bvf_util.Prof.span main_prof "trace-merge" (fun () ->
             merge_traces path ~jobs))
      trace;
    join ~prof:main_prof ~jobs ~iterations shards
  end

let digest (r : result) : string = Campaign.digest r.pr_stats

let pp_summary fmt (r : result) : unit =
  Format.fprintf fmt "%a" Campaign.pp_summary r.pr_stats;
  if r.pr_jobs > 1 then
    List.iter
      (fun sh ->
         Format.fprintf fmt
           "  shard %d (seed %d): %d programs, %d edges, %d findings, %d reboots@."
           sh.sh_index sh.sh_seed sh.sh_stats.Campaign.st_generated
           sh.sh_stats.Campaign.st_edges
           (Hashtbl.length sh.sh_stats.Campaign.st_findings)
           sh.sh_stats.Campaign.st_reboots)
      r.pr_shards
