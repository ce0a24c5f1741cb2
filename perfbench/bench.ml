(* The BVF benchmark program: one workload run per invocation, or the
   host calibration.  perfbench/run.py builds and drives it; README.md in
   this directory defines every workload and metric.

     bench.exe prepare --workload W --seed N --out-dir DIR
     bench.exe run --workload fuzz|batch-cold|serve-hot --seed N
                   --seconds S --trace 0|1 --out-dir DIR
     bench.exe calibrate
     bench.exe probe
     bench.exe setup --workload W --seed N

   [prepare] writes a workload's inputs (request files, the expected
   responses) to DIR; [run] then measures in a fresh process, so the
   heap peak it records is the program's, not the input generator's.
   [run] starts [probe] (the host-speed reference) and [setup] (the
   setup_s timing) as children of its own, each in a fresh process.

   A run prints one JSON object on its last stdout line: the metrics
   (host-normalised and raw), the exact work it did, its output checks
   and the attempted/failed counts.  Every layer number is taken from
   outside the layer, by timing calls into its public functions; nothing
   under lib/ is instrumented for the benchmark. *)

open Bvf_core
module Verifier = Bvf_verifier.Verifier
module Vstats = Bvf_verifier.Vstats
module Coverage = Bvf_verifier.Coverage
module Loader = Bvf_runtime.Loader
module Exec = Bvf_runtime.Exec
module Kconfig = Bvf_kernel.Kconfig
module Kstate = Bvf_kernel.Kstate
module Percentile = Bvf_util.Percentile

let version = Bvf_ebpf.Version.Bpf_next

(* Seconds on CLOCK_MONOTONIC at nanosecond resolution (clock_stubs.c):
   a per-request latency of a few microseconds needs finer steps than
   the microsecond wall clock behind Bvf_util.Mclock. *)
external now_ns : unit -> (int64[@unboxed])
  = "perfbench_now_ns" "perfbench_now_ns_unboxed"
[@@noalloc]

let now () = Int64.to_float (now_ns ()) *. 1e-9
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

let sorted (l : float list) : float array =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let pct (l : float list) (p : int) : float = Percentile.of_sorted (sorted l) p
let median (l : float list) : float = pct l 50
let sum (l : float list) : float = List.fold_left ( +. ) 0. l

(* The mean of the fastest 90% of [l]: a typical request's cost with the
   slowest tenth, where a handful of programs that exhaust the verifier's
   budget sit, left out. *)
let tmean90 (l : float list) : float =
  let a = sorted l in
  let k = max 1 ((Array.length a * 9 + 9) / 10) in
  Array.fold_left ( +. ) 0. (Array.sub a 0 (min k (Array.length a))) /. fi k

(* Workload sizes: the fixed work one repetition does for a seed. *)
let fuzz_iterations = 2000
let batch_generated = 2000
let serve_cap = 1024
let serve_working_set = 2048
let serve_requests = 10000
let serve_skew = 0.6  (* Zipf exponent of the request stream *)

(* The band serve-hot's hit ratio must stay in.  A miss costs a hit
   plus a verification, so latency_p50_us is a hit's latency only while
   more than half the requests hit; near one half a cache change would
   move the median by the gap between a hit and a miss instead of by its
   own effect, and above the band too few requests miss, insert and
   evict.  With an LRU of [serve_cap] the stream above hits about 63% of
   the time (README.md). *)
let serve_hit_band = (0.55, 0.75)

(* Requests, and fuzz iterations, between two probes inside a
   repetition ([steps]). *)
let serve_segment = 1000
let fuzz_segment = 500
let service_cache_cap = 65536  (* the bvf batch/serve default *)

let timed (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Wall time and minor words of one call. *)
let measured (f : unit -> 'a) : 'a * float * float =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  (x, dt, Gc.minor_words () -. w0)

(* The process's major-heap high-water mark; the record keeps its value
   at the end of the first repetition, which depends only on the seed. *)
let heap_peak_mb () : float =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* A non-allocating spin, for the parallelism calibration. *)
let spin (n : int) : int =
  let x = ref 0 in
  for i = 1 to n do
    x := !x lxor (i * 0x9E3779B1)
  done;
  !x

(* -- host-speed normalisation --------------------------------------------- *)

(* The host this benchmark was defined on runs at two speeds that switch
   every few seconds to minutes (other tenants); in the slow phase every
   timing here is 1.4-1.7x longer.  So a run times a fixed reference
   computation before and after every repetition, and reports each timed
   metric of that repetition at the reference's nominal speed:

     reported = measured * reference_nominal_s / reference time

   where the reference time is the mean of the two probes around the
   repetition (rates divide instead).  The reference mixes the
   allocation, tree and hash-table work the verifier and the codec do.
   Each probe runs in a fresh process ([bench.exe probe]) with the
   default GC settings, so the probe sees the host and nothing of the
   workload's heap or GC state: a change that shrinks the program's
   heap is not cancelled by a matching speed-up of the divisor.  Raw
   values stay in the run record.  The reference is part of the
   benchmark's definition: changing it, or [reference_nominal_s],
   changes every timed number. *)

module Ref_map = Map.Make (Int)

let reference () : int =
  let a = ref 0 in
  for _ = 1 to 2 do
    let l = List.init 25_000 (fun i -> (i, float_of_int i)) in
    a := List.fold_left (fun a (i, f) -> a + i + int_of_float f) !a (List.rev l)
  done;
  let m = ref Ref_map.empty and x = ref 12345 in
  for _ = 1 to 10_000 do
    x := ((!x * 1103515245) + 12345) land 0xffffff;
    m := Ref_map.add !x !x !m
  done;
  let b = ref 0 in
  for i = 1 to 10_000 do
    match Ref_map.find_opt (i * 7) !m with Some v -> b := !b + v | None -> ()
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 5_000 do
    Hashtbl.replace h (string_of_int (i * 31)) i
  done;
  let c = ref 0 in
  for i = 1 to 10_000 do
    match Hashtbl.find_opt h (string_of_int i) with
    | Some v -> c := !c + v
    | None -> ()
  done;
  !a + !b + !c

(* The reference's time in the fast phase of that host (a 2-vCPU cloud
   VM), in a fresh process. *)
let reference_nominal_s = 0.008

(* [bench.exe probe]: the median of three reference runs, each from a
   collected heap, after one warm-up run. *)
let probe_main () =
  ignore (Sys.opaque_identity (reference ()));
  let once () =
    Gc.full_major ();
    let t0 = now () in
    ignore (Sys.opaque_identity (reference ()));
    now () -. t0
  in
  print_endline (Printf.sprintf "%.17g" (median (List.init 3 (fun _ -> once ()))))

let probes : float list ref = ref []

(* The numbers [bench.exe args] prints, from a child process that has
   ended when this returns. *)
let child (args : string list) : float list =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> failwith ("bench.exe " ^ String.concat " " args ^ " failed"));
  String.split_on_char ' ' (String.trim out) |> List.map float_of_string

(* One probe. *)
let probe () : float =
  let dt = List.hd (child [ "probe" ]) in
  probes := dt :: !probes;
  dt

(* A measurement with the factor that brings its times to the reference
   speed. *)
type 'a scaled = { v : 'a; scale : float }

let scaled ~(before : float) ~(after : float) (x : 'a) : 'a scaled =
  { v = x; scale = reference_nominal_s /. ((before +. after) /. 2.) }

(* [f ()] between two probes. *)
let around (f : unit -> 'a) : 'a scaled =
  let before = probe () in
  let x = f () in
  scaled ~before ~after:(probe ()) x

(* Repeat [f] until [deadline], at least once, each repetition from a
   collected heap; consecutive repetitions share the probe between
   them. *)
let repeat_until ~(deadline : float) (f : unit -> 'a) : 'a scaled list =
  let rec go before acc =
    Gc.full_major ();
    let x = f () in
    let after = probe () in
    let acc = scaled ~before ~after x :: acc in
    if now () >= deadline then List.rev acc else go after acc
  in
  go (probe ()) []

(* Step times inside one long repetition.  A fuzz campaign or a serve
   pass lasts up to seconds, longer than that host keeps one speed, so
   the callback that runs between steps ([Campaign.run]'s [on_step],
   [Service.serve]'s [stop]) calls [mark], which also probes the host
   every [segment] marks.  Step i runs from the end of mark i to the
   start of mark i + 1; a segment's steps are scaled by the probes at
   its two ends, and the probes' time is left out of every step and of
   [paused]-corrected wall times. *)
type steps = {
  segment : int;
  marked : float array;
  resumed : float array;
  scales : float array;  (* per segment *)
  mutable last : float;  (* the latest probe *)
  mutable paused : float;  (* time spent probing *)
  mutable marks : int;
}

let steps ~(segment : int) (n : int) : steps =
  { segment; marked = Array.make n 0.; resumed = Array.make n 0.;
    scales = Array.make ((n / segment) + 1) 1.; last = probe (); paused = 0.;
    marks = 0 }

let end_segment (st : steps) (seg : int) =
  let p = probe () in
  st.scales.(seg) <- reference_nominal_s /. ((st.last +. p) /. 2.);
  st.last <- p

let mark (st : steps) =
  let i = st.marks and t = now () in
  let n = Array.length st.marked in
  if i < n then st.marked.(i) <- t;
  if i > 0 && i < n && i mod st.segment = 0 then
    end_segment st ((i / st.segment) - 1);
  let t' = now () in
  if i < n then st.resumed.(i) <- t';
  st.paused <- st.paused +. (t' -. t);
  st.marks <- i + 1

(* The first [count] steps, raw and scaled; closes a partial last
   segment. *)
let step_times (st : steps) (count : int) : float list * float list =
  let count = max 0 (min count (Array.length st.marked - 1)) in
  if count mod st.segment <> 0 then end_segment st (count / st.segment);
  let raw i = st.marked.(i + 1) -. st.resumed.(i) in
  (List.init count raw,
   List.init count (fun i -> raw i *. st.scales.(i / st.segment)))

(* setup_s.  A set-up takes tens of microseconds, too little to time
   alone or to scale by probes tens of milliseconds away.  So it is
   timed in a fresh process ([bench.exe setup]), as a fresh bvf process
   sets up before its first program: [setup_pairs] pairs of one
   reference run and one block of [setup_block] consecutive set-ups,
   each from a collected heap, after one warm-up pair.  Each block's
   mean is scaled by the reference run beside it.  The process prints
   every pair's scaled and raw mean; a run starts it before and after
   its workload and reports the medians of both sets together. *)
let setup_pairs = 30
let setup_block = 300

let setup_main (f : unit -> 'a) =
  let block () =
    for _ = 1 to setup_block do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  ignore (Sys.opaque_identity (reference ()));
  block ();
  let pairs =
    List.init setup_pairs (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        ignore (Sys.opaque_identity (reference ()));
        let r = now () -. t0 in
        Gc.full_major ();
        let t0 = now () in
        block ();
        ((now () -. t0) /. fi setup_block, r))
  in
  print_endline
    (String.concat " "
       (List.map
          (fun (s, r) -> Printf.sprintf "%.17g %.17g" (s *. reference_nominal_s /. r) s)
          pairs))

(* How a metric's unit scales with host speed: times with the reference
   time, rates inversely, counts and ratios not at all. *)
let host_scaled (unit : string) (scale : float) (v : float) : float =
  match unit with
  | "s" | "us" | "ns" -> v *. scale
  | "1/s" | "MB/s" -> v /. scale
  | _ -> v

(* -- the run report ----------------------------------------------------- *)

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;  (* at the reference speed *)
  m_raw : float;  (* as measured *)
}

type report = {
  mutable metrics : metric list;  (* newest first *)
  mutable work : (string * string) list;  (* name, JSON value *)
  mutable checks : (string * bool * string) list;
  mutable attempted : int;
  mutable failed : int;
}

let add r m_name m_unit m_value m_raw =
  r.metrics <- { m_name; m_unit; m_value; m_raw } :: r.metrics

(* A metric of one measurement; [scale] is its reference factor. *)
let metric ?(scale = 1.) r name unit raw =
  add r name unit (host_scaled unit scale raw) raw

(* A metric as the median over repetitions of [f]. *)
let metric_over r name unit (reps : 'a scaled list) (f : 'a -> float) =
  add r name unit
    (median (List.map (fun x -> host_scaled unit x.scale (f x.v)) reps))
    (median (List.map (fun x -> f x.v) reps))

(* A latency statistic [f] (in seconds) of step times that carry their
   own host scaling ([steps]), in microseconds: the median over
   repetitions of [f] on the scaled and on the raw step times. *)
let prescaled r name (reps : 'a scaled list) (scaled : 'a -> float list)
    (raw : 'a -> float list) (f : float list -> float) =
  let over g = median (List.map (fun x -> f (g x.v) *. 1e6) reps) in
  add r name "us" (over scaled) (over raw)

let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  Telemetry.escape b s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float (v : float) : string =
  Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.)

let work_int r name v = r.work <- (name, string_of_int v) :: r.work
let work_float r name v = r.work <- (name, json_float v) :: r.work
let work_str r name s = r.work <- (name, json_string s) :: r.work
let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks

(* Every repetition of a deterministic workload must produce the same
   value; [detail] names the distinct values seen. *)
let check_repeats r name (values : string list) =
  let distinct = List.sort_uniq compare values in
  check r name (List.length distinct = 1) (String.concat "," distinct)

(* The (scaled, raw) block means of one [bench.exe setup] child. *)
let setup_samples ~workload ~seed : (float * float) list =
  let rec pairs = function
    | v :: raw :: rest -> (v, raw) :: pairs rest
    | _ -> []
  in
  pairs (child [ "setup"; "--workload"; workload; "--seed"; string_of_int seed ])

(* -- verifier counters ------------------------------------------------------ *)

type vcount = {
  mutable vc_programs : int;
  mutable vc_accepted : int;
  mutable vc_insn : int;
  mutable vc_states : int;
  mutable vc_prune_hits : int;
  mutable vc_prune_misses : int;
}

let vcount () =
  { vc_programs = 0; vc_accepted = 0; vc_insn = 0; vc_states = 0;
    vc_prune_hits = 0; vc_prune_misses = 0 }

let vcount_add (c : vcount) ~(accepted : bool) ~(insn : int)
    (vs : Vstats.t option) =
  c.vc_programs <- c.vc_programs + 1;
  if accepted then c.vc_accepted <- c.vc_accepted + 1;
  c.vc_insn <- c.vc_insn + insn;
  match vs with
  | Some v ->
    c.vc_states <- c.vc_states + v.Vstats.vs_total_states;
    c.vc_prune_hits <- c.vc_prune_hits + v.Vstats.vs_prune_hits;
    c.vc_prune_misses <- c.vc_prune_misses + v.Vstats.vs_prune_misses
  | None -> ()

let vcount_verdict (c : vcount) (v : Vcache.verdict) =
  vcount_add c ~accepted:v.Vcache.cv_accepted ~insn:v.Vcache.cv_insn_processed
    v.Vcache.cv_vstats

(* The exact verify-layer metrics of a set of verifications. *)
let verify_counts r (c : vcount) =
  metric r "verify.insn_processed" "count" (fi c.vc_insn);
  metric r "verify.accept_ratio" "ratio"
    (ratio (fi c.vc_accepted) (fi c.vc_programs));
  metric r "verify.prune_hit_ratio" "ratio"
    (ratio (fi c.vc_prune_hits) (fi (c.vc_prune_hits + c.vc_prune_misses)));
  metric r "verify.states_per_insn" "ratio"
    (ratio (fi c.vc_states) (fi c.vc_insn))

(* Per-verification wall times and minor words of a replay. *)
type vtimes = { vt_times : float list; vt_words : float list }

(* The timed verify-layer metrics of a replay. *)
let verify_times r ~(insn : int) (t : vtimes scaled) =
  let scale = t.scale and times = t.v.vt_times in
  let n = List.length times in
  metric ~scale r "verify.ns_per_insn" "ns" (ratio (sum times *. 1e9) (fi insn));
  metric ~scale r "verify.us_per_prog" "us" (ratio (sum times *. 1e6) (fi n));
  metric ~scale r "verify.p99_us" "us" (pct times 99 *. 1e6);
  metric r "verify.words_per_insn" "words" (ratio (sum t.v.vt_words) (fi insn))

(* -- fuzz ----------------------------------------------------------------- *)

let fuzz_config () = Kconfig.default version

type fuzz_rep = {
  fr_stats : Campaign.stats;
  fr_wall : float;  (* probes excluded *)
  fr_steps : float list;  (* per-iteration wall times, first excluded *)
  fr_scaled : float list;  (* the same, each scaled by its segment's probes *)
  fr_heap : float;  (* heap_peak_mb at the end of the repetition *)
}

(* One [bvf fuzz]-equivalent campaign; [observe] runs inside [on_step]
   after the step is marked. *)
let fuzz_campaign ?(strategy = Campaign.bvf_strategy)
    ?(observe = fun (_ : Campaign.t) -> ()) ~seed () : fuzz_rep =
  let st = steps ~segment:fuzz_segment fuzz_iterations in
  let t0 = now () in
  let stats =
    Campaign.run ~seed ~iterations:fuzz_iterations
      ~on_step:(fun c -> mark st; observe c)
      strategy (fuzz_config ())
  in
  let wall = now () -. t0 -. st.paused in
  (* the first mark comes after the first iteration, so the campaign's
     set-up is in no step *)
  let raw, scaled = step_times st (st.marks - 1) in
  { fr_stats = stats; fr_wall = wall; fr_steps = raw; fr_scaled = scaled;
    fr_heap = heap_peak_mb () }

let unattributed (s : Campaign.stats) : int =
  Hashtbl.fold
    (fun _ f n -> if f.Campaign.fd_finding.Oracle.f_bug = None then n + 1 else n)
    s.Campaign.st_findings 0

let insn_processed (s : Campaign.stats) : int =
  s.Campaign.st_vstats.Vstats.ag_insn_processed

(* What a traced campaign records about its generation layer. *)
type gen_trace = {
  mutable gt_requests : Verifier.request list;  (* newest first *)
  mutable gt_s : float;
  mutable gt_w : float;
  mutable gt_insns : int;
}

(* [bvf_strategy] with its generator timed: the wrapper passes the same
   RNG through, so the campaign (and its digest) is unchanged. *)
let traced_strategy (g : gen_trace) : Campaign.strategy =
  let inner = Campaign.bvf_strategy in
  { inner with
    Campaign.s_generate =
      (fun rng cfg seed ->
         let req, dt, dw =
           measured (fun () -> inner.Campaign.s_generate rng cfg seed)
         in
         g.gt_requests <- req :: g.gt_requests;
         g.gt_s <- g.gt_s +. dt;
         g.gt_w <- g.gt_w +. dw;
         g.gt_insns <- g.gt_insns + Array.length req.Verifier.r_insns;
         req) }

type fuzz_replay = {
  fp_verify : vtimes;
  fp_counts : vcount;
  fp_rejected : int;
  fp_insns : int list;  (* insn_processed per program *)
  fp_exec_s : float;
  fp_exec_w : float;
  fp_exec_insns : int;
  fp_executed : int;
}

(* Replay a captured campaign stream in a fresh standard-maps session:
   verify every program, execute the accepted ones, reboot on fatal
   reports — the campaign's own load/run cycle, timed from outside. *)
let fuzz_replay (reqs : Verifier.request list) : fuzz_replay =
  let config = fuzz_config () in
  let cov = Coverage.create () in
  let fresh () =
    let s = Loader.create ~cov config in
    ignore (Campaign.standard_maps s);
    s
  in
  let session = ref (fresh ()) in
  let counts = vcount () in
  let rejected = ref 0 in
  let vtimes = ref [] and vwords = ref [] and insns = ref [] in
  let exec_s = ref 0. and exec_w = ref 0. in
  let exec_insns = ref 0 and executed = ref 0 in
  List.iter
    (fun req ->
       let s = !session in
       let baseline = Kstate.report_count s.Loader.kst in
       let (verdict, _, vs), dt, dw =
         measured (fun () ->
             Verifier.load_with_stats s.Loader.kst ~cov:s.Loader.cov req)
       in
       vtimes := dt :: !vtimes;
       vwords := dw :: !vwords;
       let insn =
         match vs with Some v -> v.Vstats.vs_insn_processed | None -> 0
       in
       insns := insn :: !insns;
       vcount_add counts ~accepted:(Result.is_ok verdict) ~insn vs;
       (match verdict with
        | Ok prog ->
          Loader.attach s prog;
          let res, dt, dw = measured (fun () -> Loader.execute s prog) in
          exec_s := !exec_s +. dt;
          exec_w := !exec_w +. dw;
          exec_insns := !exec_insns + res.Exec.insns_executed;
          incr executed
        | Error _ -> incr rejected);
       let reports =
         List.filteri (fun i _ -> i >= baseline)
           (Kstate.peek_reports s.Loader.kst)
       in
       if List.exists Campaign.is_fatal reports then session := fresh ()
       else Bvf_kernel.Kmem.compact s.Loader.kst.Kstate.mem)
    reqs;
  { fp_verify = { vt_times = !vtimes; vt_words = !vwords };
    fp_counts = counts; fp_rejected = !rejected; fp_insns = !insns;
    fp_exec_s = !exec_s; fp_exec_w = !exec_w; fp_exec_insns = !exec_insns;
    fp_executed = !executed }

let fuzz ~seed ~seconds ~trace r =
  let t_start = now () in
  let reps =
    repeat_until
      ~deadline:(t_start +. (if trace then seconds /. 2. else seconds))
      (fun () -> fuzz_campaign ~seed ())
  in
  let account (rep : fuzz_rep) =
    let s = rep.fr_stats in
    r.attempted <- r.attempted + s.Campaign.st_generated;
    r.failed <- r.failed + s.Campaign.st_env_errors + unattributed s
  in
  List.iter (fun x -> account x.v) reps;
  let first = (List.hd reps).v.fr_stats in
  let digest = Campaign.digest first in
  check_repeats r "fuzz.digest_repeats"
    (List.map (fun x -> Campaign.digest x.v.fr_stats) reps);
  work_int r "repetitions" (List.length reps);
  work_int r "iterations" first.Campaign.st_generated;
  work_int r "insn_processed" (insn_processed first);
  work_int r "accepted" first.Campaign.st_accepted;
  work_int r "rejected" first.Campaign.st_rejected;
  work_int r "edges" first.Campaign.st_edges;
  work_int r "bugs_found" (List.length (Campaign.bugs_found first));
  work_str r "digest" digest;
  if not trace then begin
    prescaled r "latency_p50_us" reps
      (fun rep -> rep.fr_scaled) (fun rep -> rep.fr_steps) (fun l -> pct l 50);
    prescaled r "latency_tmean_us" reps
      (fun rep -> rep.fr_scaled) (fun rep -> rep.fr_steps) tmean90;
    work_float r "heap_peak_mb" (List.hd reps).v.fr_heap
  end
  else begin
    metric_over r "campaign.progs_per_s" "1/s" reps (fun rep ->
        ratio (fi fuzz_iterations) rep.fr_wall);
    metric_over r "campaign.edges_per_s" "1/s" reps (fun rep ->
        ratio (fi rep.fr_stats.Campaign.st_edges) rep.fr_wall);
    metric_over r "campaign.ns_per_insn" "ns" reps (fun rep ->
        ratio (rep.fr_wall *. 1e9) (fi (insn_processed rep.fr_stats)));
    metric r "campaign.edges" "count" (fi first.Campaign.st_edges);
    metric r "campaign.bugs_found" "count"
      (fi (List.length (Campaign.bugs_found first)));
    metric r "campaign.reboots" "count" (fi first.Campaign.st_reboots);
    (* traced repetitions: generator timed, coverage read at each step *)
    let traced () =
      let g = { gt_requests = []; gt_s = 0.; gt_w = 0.; gt_insns = 0 } in
      let productive = ref 0 and last_edges = ref 0 in
      let observe (c : Campaign.t) =
        let e = Coverage.edge_count c.Campaign.cov in
        if e > !last_edges then incr productive;
        last_edges := e
      in
      let rep = fuzz_campaign ~strategy:(traced_strategy g) ~observe ~seed () in
      (rep, g, !productive)
    in
    let treps = repeat_until ~deadline:(t_start +. seconds) traced in
    let trep x = let rep, _, _ = x.v in rep in
    List.iter (fun x -> account (trep x)) treps;
    check_repeats r "fuzz.traced_digest_equals_untraced"
      (digest :: List.map (fun x -> Campaign.digest (trep x).fr_stats) treps);
    let rep, g, productive = (List.hd treps).v in
    let n = fi rep.fr_stats.Campaign.st_generated in
    metric_over r "gen.us_per_prog" "us" treps (fun (_, g, _) ->
        g.gt_s *. 1e6 /. n);
    metric r "gen.words_per_prog" "words" (g.gt_w /. n);
    metric r "gen.insns_per_prog" "count" (fi g.gt_insns /. n);
    let scaled (rep, _, _) = rep.fr_scaled and raw (rep, _, _) = rep.fr_steps in
    prescaled r "step.p50_us" treps scaled raw (fun l -> pct l 50);
    prescaled r "step.p99_us" treps scaled raw (fun l -> pct l 99);
    metric r "feedback.productive_ratio" "ratio" (fi productive /. n);
    let p = around (fun () -> fuzz_replay (List.rev g.gt_requests)) in
    let rp = p.v and scale = p.scale in
    verify_times r ~insn:rp.fp_counts.vc_insn { v = rp.fp_verify; scale };
    verify_counts r rp.fp_counts;
    (* the costliest 5% of programs: their share of the verifier's work *)
    let by_cost = List.sort (fun a b -> compare b a) rp.fp_insns in
    let top = (List.length by_cost + 19) / 20 in
    let top_insn =
      List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < top) by_cost)
    in
    metric r "verify.top5pct_insn_share" "ratio"
      (ratio (fi top_insn) (fi rp.fp_counts.vc_insn));
    metric ~scale r "exec.ns_per_insn" "ns"
      (ratio (rp.fp_exec_s *. 1e9) (fi rp.fp_exec_insns));
    metric r "exec.words_per_prog" "words"
      (ratio rp.fp_exec_w (fi rp.fp_executed));
    let st = rep.fr_stats in
    let mismatches =
      abs (rp.fp_counts.vc_accepted - st.Campaign.st_accepted)
      + abs (rp.fp_rejected - st.Campaign.st_rejected)
    in
    work_int r "replay.accepted" rp.fp_counts.vc_accepted;
    work_int r "replay.rejected" rp.fp_rejected;
    metric r "replay.mismatches" "count" (fi mismatches);
    check r "fuzz.replay_consistent" (mismatches = 0)
      (Printf.sprintf "campaign %d accepted / %d rejected, replay %d / %d"
         st.Campaign.st_accepted st.Campaign.st_rejected
         rp.fp_counts.vc_accepted rp.fp_rejected);
    metric r "trace.overhead_ratio" "ratio"
      (ratio
         (median (List.map (fun x -> x.v.fr_wall *. x.scale) reps))
         (median (List.map (fun x -> (trep x).fr_wall *. x.scale) treps)))
  end

(* -- service inputs -------------------------------------------------------- *)

let service_config () = Kconfig.fixed version

let gen_config (session : Loader.t) : Gen.config =
  { Gen.c_version = version;
    c_maps =
      List.map (fun (fd, m) -> (fd, m.Bvf_kernel.Map.def))
        session.Loader.kst.Kstate.maps }

(* [n] distinct generated programs (distinct from [seen] too), each one
   encodable as a wire-format request. *)
let distinct_programs rng (session : Loader.t) ~(seen : (string, unit) Hashtbl.t)
    (n : int) : Verifier.request list =
  let cfg = gen_config session in
  let out = ref [] and k = ref 0 in
  while !k < n do
    let req = Gen.generate rng cfg in
    let fp = Verifier.request_fingerprint req in
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.add seen fp ();
      match Service.request_to_json { Service.q_id = ""; q_req = req } with
      | exception Invalid_argument _ -> ()
      | _ -> out := req :: !out; incr k
    end
  done;
  List.rev !out

let write_lines (path : string) (lines : string list) : int =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc;
  List.fold_left (fun n l -> n + String.length l + 1) 0 lines

(* Fold over a file's lines without holding the file in memory, so the
   output checks do not raise the run's heap peak. *)
let fold_lines (path : string) (f : 'a -> string -> 'a) (init : 'a) : 'a =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (f acc l)
    | exception End_of_file -> close_in ic; acc
  in
  go init

(* The prepared input's exact work counts, one "name value" per line. *)
let write_meta (path : string) (kv : (string * int) list) : unit =
  ignore
    (write_lines path (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) kv)
     : int)

let read_meta (path : string) (key : string) : int =
  fold_lines path
    (fun acc l ->
       match String.split_on_char ' ' l with
       | [ k; v ] when k = key -> int_of_string v
       | _ -> acc)
    0

(* A response without its trailing cache field: the byte-identity form
   the service contract compares (docs/SERVICE.md). *)
let strip_cache (line : string) : string =
  let marker = ",\"cache\":\"" in
  let m = String.length marker and n = String.length line in
  let rec find i =
    if i < 0 then line
    else if String.sub line i m = marker then String.sub line 0 i ^ "}"
    else find (i - 1)
  in
  find (n - m)

(* Digest of a response file with the cache fields stripped. *)
let responses_digest (path : string) : string =
  Digest.to_hex
    (fold_lines path
       (fun acc l -> Digest.string (acc ^ Digest.string (strip_cache l)))
       "")

let cache_metrics r (cs : Vcache.stats) =
  metric r "cache.hit_ratio" "ratio"
    (ratio (fi cs.Vcache.cs_hits) (fi (cs.Vcache.cs_hits + cs.Vcache.cs_misses)));
  metric r "cache.evictions" "count" (fi cs.Vcache.cs_evictions)

(* -- batch-cold ------------------------------------------------------------- *)

let batch_requests dir = Filename.concat dir "batch-requests.jsonl"
let batch_responses dir = Filename.concat dir "batch-responses.jsonl"
let batch_meta dir = Filename.concat dir "batch-meta.txt"

(* The request file: the selftest corpus, then distinct generated
   programs drawn from [seed]. *)
let batch_prepare ~seed ~out_dir =
  let suite = Selftests.build version in
  let session = Service.create_session (service_config ()) in
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun req -> Hashtbl.replace seen (Verifier.request_fingerprint req) ())
    suite.Selftests.requests;
  let generated =
    distinct_programs (Rng.create seed) session ~seen batch_generated
  in
  let line prefix i req =
    Service.request_to_json
      { Service.q_id = Printf.sprintf "%s-%04d" prefix i; q_req = req }
  in
  let bytes =
    write_lines (batch_requests out_dir)
      (List.mapi (line "selftest") suite.Selftests.requests
       @ List.mapi (line "gen") generated)
  in
  write_meta (batch_meta out_dir)
    [ ("requests", List.length suite.Selftests.requests + batch_generated);
      ("selftests", List.length suite.Selftests.requests);
      ("generated", batch_generated);
      ("request_bytes", bytes) ]

let is_selftest (id : string) : bool =
  String.length id > 9 && String.sub id 0 9 = "selftest-"

type batch_rep = {
  br_wall : float;  (* request bytes to response bytes *)
  br_parse : float;  (* read_jsonl *)
  br_encode : float;  (* item_to_json over every item *)
  br_write : float;  (* writing the encoded lines *)
  br_summary : Service.summary;
  br_cache : Vcache.stats;
  br_digest : string;
  br_selftests_admitted : int;
  br_heap : float;
  br_requests : float list;  (* per request: key, probe, verify, insert *)
  br_verify : vtimes;  (* the verifications alone *)
  br_counts : vcount;
  br_mismatches : int;  (* replayed responses that differ from the batch's *)
}

let selftests_admitted (items : Service.item list) : int =
  List.length
    (List.filter
       (fun (it : Service.item) ->
          is_selftest it.Service.it_id
          && match it.Service.it_outcome with
          | Service.Verdict v -> v.o_verdict.Vcache.cv_accepted
          | Service.Invalid _ -> false)
       items)

(* One repetition.  First the bvf batch path, request bytes to response
   bytes, with each stage timed.  run_batch verifies all its requests in
   one call and so gives no time per request; the repetition then takes
   each request once more through the same steps run_batch takes for a
   miss at one job (key, probe, cold verification in a fresh session,
   insert), timed from outside, and checks that every replayed verdict
   encodes to the batch's response. *)
let batch_rep ~config ~req_path ~out_path () : batch_rep =
  let cache = Vcache.create ~cap:service_cache_cap in
  let t0 = now () in
  let inputs, parse = timed (fun () -> Service.read_jsonl req_path) in
  let items, summary = Service.run_batch ~jobs:1 ~cache config inputs in
  let oc = open_out_bin out_path in
  let encode = ref 0. and write = ref 0. in
  List.iter
    (fun it ->
       let line, dt = timed (fun () -> Service.item_to_json it) in
       encode := !encode +. dt;
       let (), dt = timed (fun () -> output_string oc line; output_char oc '\n') in
       write := !write +. dt)
    items;
  let (), dt = timed (fun () -> close_out oc) in
  let wall = now () -. t0 in
  let heap = heap_peak_mb () in
  let session = Service.create_session config in
  let replay_cache = Vcache.create ~cap:service_cache_cap in
  let config_fp, maps_fp = Service.fingerprints session in
  let requests = ref [] and times = ref [] and words = ref [] in
  let counts = vcount () and mismatches = ref 0 in
  List.iter2
    (fun (input : Service.input) (it : Service.item) ->
       match input.Service.in_req, it.Service.it_outcome with
       | Ok req, Service.Verdict { o_key = key; o_verdict = v; _ } ->
         let t0 = now () in
         let k = Vcache.key ~config_fp ~maps_fp req in
         let found = Vcache.find replay_cache k in
         let v', dt, dw =
           measured (fun () -> Service.verify_request session req)
         in
         Vcache.insert replay_cache k v';
         requests := (now () -. t0) :: !requests;
         times := dt :: !times;
         words := dw :: !words;
         vcount_verdict counts v';
         let id = it.Service.it_id in
         if found <> None || k <> key
            || Service.response_to_json ~id ~key v'
               <> Service.response_to_json ~id ~key v
         then incr mismatches
       | _ -> incr mismatches)
    inputs items;
  { br_wall = wall; br_parse = parse; br_encode = !encode;
    br_write = !write +. dt; br_summary = summary;
    br_cache = Vcache.stats cache; br_digest = responses_digest out_path;
    br_selftests_admitted = selftests_admitted items; br_heap = heap; br_requests = !requests;
    br_verify = { vt_times = !times; vt_words = !words };
    br_counts = counts; br_mismatches = !mismatches }

let batch_cold ~seconds ~trace ~out_dir r =
  let config = service_config () in
  let req_path = batch_requests out_dir and out_path = batch_responses out_dir in
  let meta = read_meta (batch_meta out_dir) in
  let n = meta "requests" and bytes = meta "request_bytes" in
  let one = batch_rep ~config ~req_path ~out_path in
  let t_start = now () in
  let reps =
    repeat_until
      ~deadline:(t_start +. (if trace then seconds /. 2. else seconds)) one
  in
  (* a traced run's second half: the same repetitions, for the overhead
     ratio — every batch-cold layer is timed from outside in both *)
  let treps =
    if trace then repeat_until ~deadline:(t_start +. seconds) one else []
  in
  let all = reps @ treps in
  List.iter
    (fun x ->
       r.attempted <- r.attempted + n;
       r.failed <- r.failed + x.v.br_summary.Service.bs_invalid)
    all;
  let first = (List.hd reps).v in
  let summary = first.br_summary in
  check_repeats r "batch.response_digest_repeats"
    (List.map (fun x -> x.v.br_digest) all);
  let selftests = meta "selftests" in
  check r "batch.selftests_admitted" (first.br_selftests_admitted = selftests)
    (Printf.sprintf "%d of %d selftests" first.br_selftests_admitted selftests);
  check r "batch.no_error_responses" (summary.Service.bs_invalid = 0)
    (Printf.sprintf "%d invalid" summary.Service.bs_invalid);
  check r "batch.all_miss"
    (summary.Service.bs_hits = 0 && summary.Service.bs_misses = n)
    (Printf.sprintf "%d hits" summary.Service.bs_hits);
  (* replay consistency: every replayed verdict encodes to the batch's
     response, and the replay admits what the batch admitted *)
  let mismatches (rep : batch_rep) =
    rep.br_mismatches
    + abs (rep.br_counts.vc_accepted - rep.br_summary.Service.bs_admitted)
  in
  let bad = List.fold_left (fun n x -> n + mismatches x.v) 0 all in
  check r "batch.replay_consistent" (bad = 0)
    (Printf.sprintf "replay admitted %d, batch admitted %d, %d responses differ"
       first.br_counts.vc_accepted summary.Service.bs_admitted
       first.br_mismatches);
  let counts = first.br_counts in
  work_int r "repetitions" (List.length all);
  work_int r "requests" n;
  work_int r "request_bytes" bytes;
  work_int r "selftests" selftests;
  work_int r "generated" (meta "generated");
  work_int r "insn_processed" counts.vc_insn;
  work_int r "admitted" summary.Service.bs_admitted;
  work_int r "rejected" summary.Service.bs_rejected;
  work_str r "response_digest" first.br_digest;
  (* a request's latency: its own key, probe, verification and insert,
     plus its share of reading, parsing, encoding and writing *)
  let codec (rep : batch_rep) =
    (rep.br_parse +. rep.br_encode +. rep.br_write) /. fi n
  in
  if not trace then begin
    metric_over r "latency_p50_us" "us" reps (fun rep ->
        (median rep.br_requests +. codec rep) *. 1e6);
    metric_over r "latency_tmean_us" "us" reps (fun rep ->
        (tmean90 rep.br_requests +. codec rep) *. 1e6);
    work_float r "heap_peak_mb" first.br_heap
  end
  else begin
    metric_over r "service.progs_per_s" "1/s" reps (fun rep ->
        ratio (fi n) rep.br_wall);
    metric_over r "service.ns_per_insn" "ns" reps (fun rep ->
        ratio (rep.br_wall *. 1e9) (fi counts.vc_insn));
    metric_over r "parse.us_per_req" "us" all (fun t -> t.br_parse *. 1e6 /. fi n);
    metric_over r "parse.mb_per_s" "MB/s" all (fun t ->
        ratio (fi bytes /. 1e6) t.br_parse);
    metric_over r "encode.us_per_req" "us" all (fun t ->
        t.br_encode *. 1e6 /. fi n);
    metric_over r "io.us_per_req" "us" all (fun t -> t.br_write *. 1e6 /. fi n);
    cache_metrics r first.br_cache;
    let v = List.hd reps in
    verify_times r ~insn:counts.vc_insn { v = v.v.br_verify; scale = v.scale };
    verify_counts r counts;
    metric r "replay.mismatches" "count" (fi (mismatches first));
    metric r "trace.overhead_ratio" "ratio"
      (ratio
         (median (List.map (fun x -> x.v.br_wall *. x.scale) reps))
         (median (List.map (fun x -> x.v.br_wall *. x.scale) treps)))
  end

(* -- serve-hot -------------------------------------------------------------- *)

(* A Zipf sampler over ranks [0, n): rank k has weight 1/(k+1)^s. *)
let zipf rng ~(s : float) (n : int) : unit -> int =
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. (fi (k + 1) ** s));
    cdf.(k) <- !total
  done;
  fun () ->
    let u = fi (Rng.int rng 1_000_000_000) /. 1e9 *. !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

let serve_requests_file dir = Filename.concat dir "serve-requests.jsonl"
let serve_expected dir = Filename.concat dir "serve-expected.jsonl"
let serve_responses dir = Filename.concat dir "serve-responses.jsonl"
let serve_replay dir = Filename.concat dir "serve-replay.jsonl"
let serve_meta dir = Filename.concat dir "serve-meta.txt"

(* The request stream, a Zipf draw over a seeded permutation of a
   working set of distinct generated programs, and the expected
   response to each request: its program's cold verdict. *)
let serve_prepare ~seed ~out_dir =
  let rng = Rng.create seed in
  let session = Service.create_session (service_config ()) in
  let working =
    Array.of_list
      (distinct_programs rng session ~seen:(Hashtbl.create 4096)
         serve_working_set)
  in
  let perm = Array.init serve_working_set Fun.id in
  for i = serve_working_set - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let draw = zipf rng ~s:serve_skew serve_working_set in
  let stream = List.init serve_requests (fun i -> (i, perm.(draw ()))) in
  let id i = Printf.sprintf "r%05d" i in
  let bytes =
    write_lines (serve_requests_file out_dir)
      (List.map
         (fun (i, p) ->
            Service.request_to_json { Service.q_id = id i; q_req = working.(p) })
         stream)
  in
  let config_fp, maps_fp = Service.fingerprints session in
  let keys = Array.map (Vcache.key ~config_fp ~maps_fp) working in
  let cold = Array.map (Service.verify_request session) working in
  ignore
    (write_lines (serve_expected out_dir)
       (List.map
          (fun (i, p) -> Service.response_to_json ~id:(id i) ~key:keys.(p) cold.(p))
          stream)
     : int);
  write_meta (serve_meta out_dir)
    [ ("requests", serve_requests);
      ("request_bytes", bytes);
      ("delivered_insn_processed",
       List.fold_left
         (fun n (_, p) -> n + cold.(p).Vcache.cv_insn_processed) 0 stream) ]

(* Responses of [path] that differ from the expected cold verdicts once
   the cache field is stripped, plus any missing or extra line. *)
let serve_mismatches ~(expected : string) (path : string) : int =
  let ic = open_in_bin expected in
  let bad =
    fold_lines path
      (fun bad l ->
         match input_line ic with
         | e -> if strip_cache l = e then bad else bad + 1
         | exception End_of_file -> bad + 1)
      0
  in
  let rec rest n =
    match input_line ic with _ -> rest (n + 1) | exception End_of_file -> n
  in
  let bad = bad + rest 0 in
  close_in ic;
  bad

type serve_rep = {
  sr_wall : float;
  sr_latencies : float list;  (* one per request: read to flushed response *)
  sr_scaled : float list;  (* the same, each scaled by its segment's probes *)
  sr_stats : Service.serve_stats;
  sr_cache : Vcache.stats;
  sr_mismatches : int;  (* responses differing from the cold verdict *)
  sr_heap : float;
}

(* What a traced repetition measured, totals over the stream. *)
type serve_trace = {
  tr_wall : float;
  tr_parse : float;
  tr_key : float;
  tr_probe : float;
  tr_insert : float;
  tr_encode : float;
  tr_io : float;
  tr_verify : vtimes;  (* per miss *)
  tr_counts : vcount;  (* verifications, i.e. misses *)
  tr_hits : int;
}

(* serve's request loop re-enacted through the same public calls in the
   same order, each one timed.  serve parses every line twice — once to
   recognise a metrics request, once as a program request — and so does
   this loop. *)
let serve_traced ~config ~(stream_path : string) ~(out_path : string) :
  serve_trace =
  let session = Service.create_session config in
  let cache = Vcache.create ~cap:serve_cap in
  let config_fp, maps_fp = Service.fingerprints session in
  let ic = open_in_bin stream_path and oc = open_out_bin out_path in
  let parse = ref 0. and key = ref 0. and probe = ref 0. in
  let insert = ref 0. and encode = ref 0. and io = ref 0. in
  let vtimes = ref [] and vwords = ref [] in
  let counts = vcount () in
  let hits = ref 0 in
  let t0 = now () in
  (try
     while true do
       let line, dt = timed (fun () -> input_line ic) in
       io := !io +. dt;
       let _, dt =
         timed (fun () ->
             match Telemetry.parse_object (String.trim line) with
             | fields -> List.assoc_opt "metrics" fields
             | exception Telemetry.Parse -> None)
       in
       let input, dt' =
         timed (fun () -> Service.input_of_json ~fallback_id:"" line)
       in
       parse := !parse +. dt +. dt';
       match input.Service.in_req with
       | Error _ -> ()
       | Ok req ->
         let k, dt = timed (fun () -> Vcache.key ~config_fp ~maps_fp req) in
         key := !key +. dt;
         let found, dt = timed (fun () -> Vcache.find cache k) in
         probe := !probe +. dt;
         let v, hit =
           match found with
           | Some v -> incr hits; (v, true)
           | None ->
             let v, dt, dw =
               measured (fun () -> Service.verify_request session req)
             in
             vtimes := dt :: !vtimes;
             vwords := dw :: !vwords;
             vcount_verdict counts v;
             let (), dt = timed (fun () -> Vcache.insert cache k v) in
             insert := !insert +. dt;
             (v, false)
         in
         let resp, dt =
           timed (fun () ->
               Service.response_to_json ~id:input.Service.in_id ~key:k ~hit v)
         in
         encode := !encode +. dt;
         let (), dt =
           timed (fun () ->
               output_string oc resp;
               output_char oc '\n';
               flush oc)
         in
         io := !io +. dt
     done
   with End_of_file -> ());
  let wall = now () -. t0 in
  close_in ic;
  close_out oc;
  { tr_wall = wall; tr_parse = !parse; tr_key = !key; tr_probe = !probe;
    tr_insert = !insert; tr_encode = !encode; tr_io = !io;
    tr_verify = { vt_times = !vtimes; vt_words = !vwords };
    tr_counts = counts; tr_hits = !hits }

let serve_hot ~seconds ~trace ~out_dir r =
  let config = service_config () in
  let stream_path = serve_requests_file out_dir in
  let resp_path = serve_responses out_dir in
  let meta = read_meta (serve_meta out_dir) in
  let bytes = meta "request_bytes" in
  let delivered_insn = meta "delivered_insn_processed" in
  let one () =
    let session = Service.create_session config in
    let cache = Vcache.create ~cap:serve_cap in
    let ic = open_in_bin stream_path and oc = open_out_bin resp_path in
    (* serve polls [stop] once before each read, so the steps between
       polls are exactly its requests *)
    let st = steps ~segment:serve_segment (serve_requests + 1) in
    let stop () = mark st; false in
    let t0 = now () in
    let stats = Service.serve ~cache ~session ~stop ic oc in
    let wall = now () -. t0 -. st.paused in
    close_in ic;
    close_out oc;
    let heap = heap_peak_mb () in
    let latencies, scaled = step_times st (st.marks - 1) in
    { sr_wall = wall; sr_latencies = latencies; sr_scaled = scaled;
      sr_stats = stats; sr_cache = Vcache.stats cache; sr_heap = heap;
      sr_mismatches =
        serve_mismatches ~expected:(serve_expected out_dir) resp_path }
  in
  let t_start = now () in
  let reps =
    repeat_until
      ~deadline:(t_start +. (if trace then seconds /. 2. else seconds)) one
  in
  List.iter
    (fun x ->
       let st = x.v.sr_stats in
       r.attempted <- r.attempted + serve_requests;
       r.failed <- r.failed + st.Service.sv_invalid
                   + (serve_requests - st.Service.sv_requests))
    reps;
  let first = (List.hd reps).v in
  let stats = first.sr_stats in
  check r "serve.responses_equal_cold"
    (List.for_all (fun x -> x.v.sr_mismatches = 0) reps)
    (String.concat ","
       (List.map (fun x -> string_of_int x.v.sr_mismatches) reps));
  check r "serve.all_answered"
    (List.for_all
       (fun x ->
          x.v.sr_stats.Service.sv_requests = serve_requests
          && List.length x.v.sr_latencies = serve_requests)
       reps)
    (Printf.sprintf "%d requests" stats.Service.sv_requests);
  check_repeats r "serve.hits_repeat"
    (List.map (fun x -> string_of_int x.v.sr_stats.Service.sv_hits) reps);
  let hit_ratio = ratio (fi stats.Service.sv_hits) (fi serve_requests) in
  let lo, hi = serve_hit_band in
  check r "serve.hit_ratio_in_band" (lo <= hit_ratio && hit_ratio <= hi)
    (Printf.sprintf "%.4f, band [%.2f, %.2f]" hit_ratio lo hi);
  let digest = responses_digest resp_path in
  work_int r "repetitions" (List.length reps);
  work_int r "requests" serve_requests;
  work_int r "request_bytes" bytes;
  work_int r "working_set" serve_working_set;
  work_int r "cache_cap" serve_cap;
  work_int r "hits" stats.Service.sv_hits;
  work_int r "misses" stats.Service.sv_misses;
  work_int r "evictions" first.sr_cache.Vcache.cs_evictions;
  work_int r "delivered_insn_processed" delivered_insn;
  work_int r "latency_samples" (List.length first.sr_latencies);
  work_str r "response_digest" digest;
  if not trace then begin
    let scaled rep = rep.sr_scaled and raw rep = rep.sr_latencies in
    prescaled r "latency_p50_us" reps scaled raw (fun l -> pct l 50);
    prescaled r "latency_tmean_us" reps scaled raw tmean90;
    work_float r "heap_peak_mb" first.sr_heap
  end
  else begin
    metric_over r "service.progs_per_s" "1/s" reps (fun rep ->
        ratio (fi serve_requests) rep.sr_wall);
    metric_over r "service.ns_per_insn" "ns" reps (fun rep ->
        ratio (rep.sr_wall *. 1e9) (fi delivered_insn));
    prescaled r "serve.latency_p99_us" reps
      (fun rep -> rep.sr_scaled) (fun rep -> rep.sr_latencies) (fun l -> pct l 99);
    cache_metrics r first.sr_cache;
    let treps =
      repeat_until ~deadline:(t_start +. seconds) (fun () ->
          serve_traced ~config ~stream_path ~out_path:(serve_replay out_dir))
    in
    List.iter (fun _ -> r.attempted <- r.attempted + serve_requests) treps;
    let per_req name f =
      metric_over r name "us" treps (fun t -> f t *. 1e6 /. fi serve_requests)
    in
    per_req "parse.us_per_req" (fun t -> t.tr_parse);
    metric_over r "parse.mb_per_s" "MB/s" treps (fun t ->
        ratio (fi bytes /. 1e6) t.tr_parse);
    per_req "key.us_per_req" (fun t -> t.tr_key);
    per_req "cache.probe_us" (fun t -> t.tr_probe);
    per_req "encode.us_per_req" (fun t -> t.tr_encode);
    per_req "io.us_per_req" (fun t -> t.tr_io);
    let t = List.hd treps in
    let misses = t.v.tr_counts.vc_programs in
    metric_over r "cache.insert_us" "us" treps (fun t ->
        ratio (t.tr_insert *. 1e6) (fi misses));
    verify_times r ~insn:t.v.tr_counts.vc_insn
      { v = t.v.tr_verify; scale = t.scale };
    verify_counts r t.v.tr_counts;
    let mismatches =
      abs (t.v.tr_hits - stats.Service.sv_hits)
      + abs (misses - stats.Service.sv_misses)
      + (if responses_digest (serve_replay out_dir) = digest then 0 else 1)
    in
    metric r "replay.mismatches" "count" (fi mismatches);
    check r "serve.replay_consistent" (mismatches = 0)
      (Printf.sprintf "replay %d hits / %d misses, serve %d / %d" t.v.tr_hits
         misses stats.Service.sv_hits stats.Service.sv_misses);
    metric r "trace.overhead_ratio" "ratio"
      (ratio
         (median (List.map (fun x -> x.v.sr_wall *. x.scale) reps))
         (median (List.map (fun x -> x.v.tr_wall *. x.scale) treps)))
  end

(* -- metric tables and output ---------------------------------------------- *)

let end_to_end = [ "setup_s"; "latency_p50_us"; "latency_tmean_us" ]

let fuzz_only = [ "fuzz" ]
let service = [ "batch-cold"; "serve-hot" ]
let all = [ "fuzz"; "batch-cold"; "serve-hot" ]

(* Every per-layer metric and the workloads that exercise its layer; a
   traced run reports 0 for a layer its workload does not reach. *)
let per_layer =
  [ ("campaign.progs_per_s", "1/s", fuzz_only);
    ("campaign.edges_per_s", "1/s", fuzz_only);
    ("campaign.ns_per_insn", "ns", fuzz_only);
    ("campaign.edges", "count", fuzz_only);
    ("campaign.bugs_found", "count", fuzz_only);
    ("campaign.reboots", "count", fuzz_only);
    ("gen.us_per_prog", "us", fuzz_only);
    ("gen.words_per_prog", "words", fuzz_only);
    ("gen.insns_per_prog", "count", fuzz_only);
    ("step.p50_us", "us", fuzz_only);
    ("step.p99_us", "us", fuzz_only);
    ("feedback.productive_ratio", "ratio", fuzz_only);
    ("verify.top5pct_insn_share", "ratio", fuzz_only);
    ("exec.ns_per_insn", "ns", fuzz_only);
    ("exec.words_per_prog", "words", fuzz_only);
    ("verify.ns_per_insn", "ns", all);
    ("verify.us_per_prog", "us", all);
    ("verify.p99_us", "us", all);
    ("verify.words_per_insn", "words", all);
    ("verify.insn_processed", "count", all);
    ("verify.accept_ratio", "ratio", all);
    ("verify.prune_hit_ratio", "ratio", all);
    ("verify.states_per_insn", "ratio", all);
    ("service.progs_per_s", "1/s", service);
    ("service.ns_per_insn", "ns", service);
    ("serve.latency_p99_us", "us", [ "serve-hot" ]);
    ("parse.us_per_req", "us", service);
    ("parse.mb_per_s", "MB/s", service);
    ("encode.us_per_req", "us", service);
    ("io.us_per_req", "us", service);
    ("key.us_per_req", "us", [ "serve-hot" ]);
    ("cache.probe_us", "us", [ "serve-hot" ]);
    ("cache.insert_us", "us", [ "serve-hot" ]);
    ("cache.hit_ratio", "ratio", service);
    ("cache.evictions", "count", service);
    ("replay.mismatches", "count", all);
    ("trace.overhead_ratio", "ratio", all) ]

(* Fill the layers this workload does not reach with 0 and check that
   every metric it should report is there and finite.  Returns the names
   to print, in table order. *)
let finish r ~workload ~trace : string list =
  let have name = List.exists (fun m -> m.m_name = name) r.metrics in
  let expected =
    if trace then
      List.filter_map
        (fun (n, _, ws) -> if List.mem workload ws then Some n else None)
        per_layer
    else end_to_end
  in
  let missing = List.filter (fun n -> not (have n)) expected in
  check r "metrics.complete" (missing = []) (String.concat "," missing);
  if trace then
    List.iter
      (fun (n, u, ws) -> if not (List.mem workload ws) then metric r n u 0.)
      per_layer;
  let bad =
    List.filter
      (fun m -> not (Float.is_finite m.m_value && Float.is_finite m.m_raw))
      r.metrics
  in
  check r "metrics.finite" (bad = [])
    (String.concat "," (List.map (fun m -> m.m_name) bad));
  if trace then List.map (fun (n, _, _) -> n) per_layer else end_to_end

let print_result r ~workload ~seed ~trace ~(names : string list) =
  let obj kv =
    "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) kv)
    ^ "}"
  in
  let metrics field =
    obj
      (List.filter_map
         (fun n ->
            List.find_opt (fun m -> m.m_name = n) r.metrics
            |> Option.map (fun m ->
                (n, obj [ ("value", json_float (field m));
                          ("unit", json_string m.m_unit) ])))
         names)
  in
  let checks =
    "[" ^ String.concat ","
      (List.rev_map
         (fun (n, ok, d) ->
            obj [ ("name", json_string n); ("ok", string_of_bool ok);
                  ("detail", json_string d) ])
         r.checks)
    ^ "]"
  in
  let host =
    obj
      [ ("ocaml", json_string Sys.ocaml_version);
        ("reference_nominal_ms", json_float (reference_nominal_s *. 1e3));
        ("reference_ms_median", json_float (median !probes *. 1e3));
        ("reference_ms",
         "[" ^ String.concat ","
           (List.rev_map (fun p -> json_float (p *. 1e3)) !probes) ^ "]") ]
  in
  print_endline
    (obj
       [ ("workload", json_string workload);
         ("seed", string_of_int seed);
         ("trace", if trace then "1" else "0");
         ("correct", string_of_bool (List.for_all (fun (_, ok, _) -> ok) r.checks));
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", metrics (fun m -> m.m_value));
         ("raw_metrics", metrics (fun m -> m.m_raw));
         ("work", obj (List.rev r.work));
         ("checks", checks);
         ("host", host) ])

(* Effective parallelism: the same non-allocating spin on one domain,
   then on two at once.  2 * t1 / t2 is about 2 on two free cores and
   about 1 when the domains share one. *)
let calibrate () =
  let n = 50_000_000 in
  let one () = snd (timed (fun () -> Sys.opaque_identity (spin n))) in
  let two () =
    snd
      (timed (fun () ->
           let d = Domain.spawn (fun () -> spin n) in
           let a = spin n in
           Sys.opaque_identity (a lxor Domain.join d)))
  in
  let t1 = median (List.init 3 (fun _ -> one ())) in
  let t2 = median (List.init 3 (fun _ -> two ())) in
  Printf.printf
    "{\"spin_1_domain_s\":%s,\"spin_2_domains_s\":%s,\"effective_parallelism\":%s}\n"
    (json_float t1) (json_float t2) (json_float (2. *. t1 /. t2))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out_dir = ref "." and mode = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "fuzz|batch-cold|serve-hot");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out-dir", Arg.Set_string out_dir, "DIR inputs and scratch files") ]
    (fun a -> mode := a)
    "bench.exe (prepare | run | setup) [options] | bench.exe (calibrate | probe)";
  let unknown w =
    prerr_endline ("bench.exe: unknown workload " ^ w);
    exit 2
  in
  match !mode with
  | "calibrate" -> calibrate ()
  | "probe" -> probe_main ()
  | "setup" ->
    let seed = !seed in
    (match !workload with
     | "fuzz" ->
       setup_main (fun () ->
           Campaign.create ~seed Campaign.bvf_strategy (fuzz_config ()))
     | "batch-cold" ->
       let config = service_config () in
       setup_main (fun () ->
           (Vcache.create ~cap:service_cache_cap, Service.create_session config))
     | "serve-hot" ->
       let config = service_config () in
       setup_main (fun () ->
           (Vcache.create ~cap:serve_cap, Service.create_session config))
     | w -> unknown w)
  | "prepare" ->
    (match !workload with
     | "fuzz" -> ()  (* a campaign's only input is its seed *)
     | "batch-cold" -> batch_prepare ~seed:!seed ~out_dir:!out_dir
     | "serve-hot" -> serve_prepare ~seed:!seed ~out_dir:!out_dir
     | w -> unknown w)
  | "run" ->
    let r = { metrics = []; work = []; checks = []; attempted = 0; failed = 0 } in
    let trace = !trace = 1 and seconds = !seconds and seed = !seed in
    let setup () =
      if trace then [] else setup_samples ~workload:!workload ~seed
    in
    let before = setup () in
    (match !workload with
     | "fuzz" -> fuzz ~seed ~seconds ~trace r
     | "batch-cold" -> batch_cold ~seconds ~trace ~out_dir:!out_dir r
     | "serve-hot" -> serve_hot ~seconds ~trace ~out_dir:!out_dir r
     | w -> unknown w);
    let samples = before @ setup () in
    if samples <> [] then
      add r "setup_s" "s" (median (List.map fst samples))
        (median (List.map snd samples));
    let names = finish r ~workload:!workload ~trace in
    print_result r ~workload:!workload ~seed ~trace ~names
  | m ->
    prerr_endline ("bench.exe: expected prepare, run or calibrate, got " ^ m);
    exit 2
