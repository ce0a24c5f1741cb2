open Cimport

(* Supervised campaign runner: the {!Parallel} sharding scheme run
   across forked OS processes under a heartbeat watchdog, so an
   analyzer crash or hang costs one worker one segment — not the
   campaign.  The protocol is plain files under the state directory:

     worker-<i>.ckpt   incremental checkpoint (worker_snapshot)
     worker-<i>.hb     heartbeat, atomically renamed before every step
     worker-<i>.done   completion marker (exit 0 without it = crash)
     worker-<i>.err    last uncaught exception, for post-mortems
     worker-<i>.prof   the worker's profiler spans (only with a profile)
     quarantine.list   global iterations implicated by a crash
     crash-NNN.json    one Triage.harness_crash artifact per kill

   Each worker is one Campaign.run_t over its shard: heartbeat,
   quarantine skip and fault hook in the pre-step hook, a
   worker_snapshot writer as the barrier saver.  Determinism: a worker
   replays its segment from the last barrier checkpoint exactly (same
   RNG stream, same reboot schedule), except for quarantined
   iterations, which burn the iteration's generation draws without
   loading (Campaign.step_skip).  A disturbed run is
   therefore digest-comparable to a fault-free run given the same
   quarantine set — the chaos harness's oracle. *)

(* /2: Campaign.stats gained per-phase minor-words attribution fields,
   changing the marshalled layout.
   /3: the per-phase timer and minor-words fields left Campaign.stats,
   shrinking the marshalled layout again. *)
let worker_tag = "bvf-worker/3"

(* Worker profiles reach the parent through the checkpoint container:
   the child's spans (one track) under a versioned tag, so a damaged or
   stale file is an [Error] the parent drops, never an unmarshal. *)
let prof_tag = "bvf-worker-prof/1"

type worker_snapshot = {
  wk_shard : int;
  wk_workers : int;
  wk_trace_pos : int;
  wk_snapshot : Campaign.snapshot;
}

(* -- Protocol files ----------------------------------------------------- *)

let hb_path dir i = Filename.concat dir (Printf.sprintf "worker-%d.hb" i)

let ckpt_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.ckpt" i)

let done_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.done" i)

let err_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.err" i)

let prof_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.prof" i)

let quarantine_path dir = Filename.concat dir "quarantine.list"

let rec mkdirs (dir : string) : unit =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove_if_exists (path : string) : unit =
  try Sys.remove path with Sys_error _ -> ()

let lock_path dir = Filename.concat dir "supervisor.lock"

(* Exclusive per-state-dir lock.  Two supervisors sharing one directory
   clobber each other's heartbeat and checkpoint files (each believes
   the other's workers are its own crashed children), so the directory
   is owned by exactly one live supervisor: the lock file records the
   owner's pid, and a lock whose owner is dead is stale and broken. *)
let rec acquire_lock (path : string) ~(attempts : int) : unit =
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
  with
  | fd ->
    let s = string_of_int (Unix.getpid ()) ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s));
    Unix.close fd
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
    let owner =
      match open_in path with
      | exception Sys_error _ -> None
      | ic ->
        let pid =
          try int_of_string_opt (String.trim (input_line ic))
          with End_of_file -> None
        in
        close_in ic;
        pid
    in
    let alive =
      match owner with
      | Some pid -> (try Unix.kill pid 0; true with _ -> false)
      | None -> false
    in
    (match owner with
     | Some pid when alive ->
       raise
         (Campaign.Environment
            (Printf.sprintf
               "state directory is in use by a running supervisor \
                (pid %d holds %s)" pid path))
     | _ when attempts > 0 ->
       remove_if_exists path;
       acquire_lock path ~attempts:(attempts - 1)
     | _ ->
       raise
         (Campaign.Environment ("cannot acquire supervisor lock: " ^ path)))

let quarantine_of_file (path : string) : int list =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let out = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match int_of_string_opt line with
           | Some g -> out := g :: !out
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.sort_uniq compare !out

let write_quarantine (dir : string) (globals : int list) : unit =
  let b = Buffer.create 128 in
  List.iter (fun g -> Printf.bprintf b "%d\n" g) globals;
  Checkpoint.atomic_write (quarantine_path dir) (Buffer.contents b)

(* heartbeat line: "seq local global pid" *)
let read_hb (path : string) : (int * int * int) option =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let r =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | seq :: local :: global :: _ -> (
          match
            ( int_of_string_opt seq,
              int_of_string_opt local,
              int_of_string_opt global )
          with
          | Some s, Some l, Some g -> Some (s, l, g)
          | _ -> None)
        | _ -> None)
    in
    close_in ic;
    r

let load_worker ~(path : string) :
  (worker_snapshot, Checkpoint.error) result =
  (Checkpoint.load ~path ~tag:worker_tag
   : (worker_snapshot, Checkpoint.error) result)

let load_prof ~(path : string) :
  (Bvf_util.Prof.span list, Checkpoint.error) result =
  (Checkpoint.load ~path ~tag:prof_tag
   : (Bvf_util.Prof.span list, Checkpoint.error) result)

(* OCaml signal numbers are runtime-internal (negative); report the
   conventional POSIX numbers in artifacts. *)
let unix_signal (sg : int) : int =
  if sg = Sys.sighup then 1
  else if sg = Sys.sigint then 2
  else if sg = Sys.sigquit then 3
  else if sg = Sys.sigill then 4
  else if sg = Sys.sigabrt then 6
  else if sg = Sys.sigfpe then 8
  else if sg = Sys.sigkill then 9
  else if sg = Sys.sigusr1 then 10
  else if sg = Sys.sigsegv then 11
  else if sg = Sys.sigusr2 then 12
  else if sg = Sys.sigpipe then 13
  else if sg = Sys.sigalrm then 14
  else if sg = Sys.sigterm then 15
  else sg

(* -- Globalizing worker checkpoints ------------------------------------- *)

(* Renumber a worker checkpoint's local iterations to global ones so it
   can enter Parallel.merge_snapshots (the bvf merge path for
   checkpoints salvaged from a killed run).  A single-shard merge
   through the Parallel machinery does exactly the remap. *)
let globalize (w : worker_snapshot) : Campaign.snapshot =
  let s = w.wk_snapshot in
  let r =
    Parallel.join ~jobs:w.wk_workers ~iterations:s.Campaign.sn_completed
      [ Parallel.shard ~index:w.wk_shard s ]
  in
  { s with
    Campaign.sn_merged = true;
    sn_rng = 0L;
    sn_failslab = Bvf_kernel.Failslab.off ();
    sn_cov = r.Parallel.pr_cov;
    sn_corpus = r.Parallel.pr_corpus;
    sn_stats = r.Parallel.pr_stats;
  }

(* -- Supervisor (parent process) ---------------------------------------- *)

type worker_outcome =
  | Outcome_completed
  | Outcome_retired
  | Outcome_interrupted

type worker_report = {
  wr_worker : int;
  wr_outcome : worker_outcome;
  wr_assigned : int;
  wr_completed : int;
  wr_restarts : int;
}

type report = {
  rp_workers : worker_report list;
  rp_crashes : Triage.harness_crash list;
  rp_quarantined : int list;
  rp_abandoned : (int * int * int) list;
}

type wstate =
  | Running of {
      rn_pid : int;
      mutable rn_hb : (int * int * int) option; (* seq, local, global *)
      mutable rn_hb_time : float; (* last time rn_hb changed *)
    }
  | Waiting of float (* restart backoff: not before this time *)
  | Finished of worker_outcome

type wslot = {
  ws_index : int;
  mutable ws_state : wstate;
  mutable ws_restarts : int;
}

type outcome =
  | Completed of Parallel.result * report
  | Interrupted of report

let pp_report fmt (r : report) : unit =
  List.iter
    (fun w ->
       Format.fprintf fmt
         "  worker %d: %s, %d/%d iterations, %d restart%s@." w.wr_worker
         (match w.wr_outcome with
          | Outcome_completed -> "completed"
          | Outcome_retired -> "retired"
          | Outcome_interrupted -> "interrupted")
         w.wr_completed w.wr_assigned w.wr_restarts
         (if w.wr_restarts = 1 then "" else "s"))
    r.rp_workers;
  List.iter
    (fun c ->
       Format.fprintf fmt "  crash: %s@." (Triage.harness_crash_to_string c))
    r.rp_crashes;
  (match r.rp_quarantined with
   | [] -> ()
   | q ->
     Format.fprintf fmt "  quarantined iterations: %s@."
       (String.concat ", " (List.map string_of_int q)));
  List.iter
    (fun (w, lo, hi) ->
       Format.fprintf fmt "  abandoned: worker %d local %d..%d@." w lo hi)
    r.rp_abandoned

let run ?(sample_every = 64) ?(log_level = 0) ?trace ?failslab_rate
    ?failslab_seed ?(checkpoint_every = 1000) ?(deadline_s = 30.)
    ?(poll_s = 0.05) ?(max_restarts = 5) ?(backoff_s = 0.5)
    ?(quarantine = []) ?fault ?(prof = Bvf_util.Prof.null) ?stop
    ~(workers : int) ~(seed : int) ~(iterations : int) ~(dir : string)
    (strategy : Campaign.strategy) (config : Kconfig.t) : outcome =
  if workers < 1 then invalid_arg "Supervisor.run: workers < 1";
  let sup_prof = Bvf_util.Prof.track prof ~name:"supervisor" workers in
  mkdirs dir;
  acquire_lock (lock_path dir) ~attempts:1;
  Fun.protect ~finally:(fun () -> remove_if_exists (lock_path dir))
  @@ fun () ->
  let counts = Parallel.shard_iterations ~iterations ~jobs:workers in
  let quarantine_set =
    ref
      (List.sort_uniq compare
         (quarantine @ quarantine_of_file (quarantine_path dir)))
  in
  write_quarantine dir !quarantine_set;
  let crashes = ref [] (* newest first *) and ncrashes = ref 0 in
  (* Runs in the forked child; never returns (Unix._exit only, so the
     parent's at_exit hooks and buffers are untouched). *)
  let worker (shard : int) : unit =
    let stop_sig = ref 0 in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> stop_sig := 143));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop_sig := 130));
    let global local = Parallel.global_iteration ~jobs:workers ~shard local in
    let ckpt = ckpt_path dir shard in
    try
      (* resume from the last barrier checkpoint when one exists; a
         corrupt one falls back to a fresh deterministic replay from
         iteration 0, which reaches the same barriers *)
      let existing =
        if Sys.file_exists ckpt then Result.to_option (load_worker ~path:ckpt)
        else None
      in
      let sink =
        match trace with
        | None -> Telemetry.null
        | Some t ->
          let path = Parallel.shard_trace_path t shard in
          (match existing with
           | Some w ->
             Telemetry.reopen ~iter_map:global path ~pos:w.wk_trace_pos
           | None -> Telemetry.create ~iter_map:global path)
      in
      (* the child records into its own session (the parent's lives in
         another process); spans reach the parent through the
         worker-<i>.prof file written at clean exit, and align with the
         parent's because Mclock timestamps are absolute *)
      let psession =
        if Bvf_util.Prof.active prof then Bvf_util.Prof.session ()
        else Bvf_util.Prof.null
      in
      let wprof =
        Bvf_util.Prof.track psession
          ~name:(Printf.sprintf "worker%d" shard) shard
      in
      let seq = ref 0 in
      (* pre-step hook: heartbeat, then the quarantine skip (the set as
         of this fork, also on disk) or the test fault hook *)
      let pre_step (local : int) : bool =
        Bvf_util.Prof.span wprof "heartbeat" (fun () ->
            incr seq;
            Checkpoint.atomic_write (hb_path dir shard)
              (Printf.sprintf "%d %d %d %d\n" !seq local (global local)
                 (Unix.getpid ()));
            (* at most the in-flight iteration's events are lost to
               SIGKILL *)
            Telemetry.flush sink);
        List.mem (global local) !quarantine_set
        || begin
          Option.iter
            (fun f -> f ~worker:shard ~local ~global:(global local))
            fault;
          false
        end
      in
      (* the trace position is read after run_t emitted the Checkpoint
         event, so a restart resumes just after it *)
      let save (s : Campaign.snapshot) =
        Checkpoint.save ~path:ckpt ~tag:worker_tag
          { wk_shard = shard; wk_workers = workers;
            wk_trace_pos = Telemetry.pos sink; wk_snapshot = s }
      in
      (* one top-level span covering the worker's whole fuzzing segment,
         mirroring Parallel's per-shard "iterate"; left open (and the
         profile unsaved) on the stop path — interrupted runs carry no
         profile *)
      let fr_iter = Bvf_util.Prof.start wprof "iterate" in
      let resume_from = Option.map (fun w -> w.wk_snapshot) existing in
      let done_already =
        Option.fold ~none:0 ~some:(fun s -> s.Campaign.sn_completed)
          resume_from
      in
      let c =
        Campaign.run_t ~sample_every ~telemetry:sink ~log_level ~prof:wprof
          ~checkpoint_every ~save
          ?failslab:(Parallel.shard_failslab ?failslab_rate ?failslab_seed
                       ~seed shard)
          ?resume_from ~skip:pre_step ~stop:(fun () -> !stop_sig <> 0)
          ~seed:(seed + shard) ~iterations:(counts.(shard) - done_already)
          strategy config
      in
      (* a stop ended run_t early after saving its checkpoint; resume
         performs the post-save reboot *)
      if c.Campaign.stats.Campaign.st_generated < counts.(shard) then begin
        Telemetry.close sink;
        Unix._exit !stop_sig
      end;
      (match
         Bvf_util.Prof.span wprof "checkpoint" (fun () ->
             save (Campaign.snapshot c))
       with
       | Ok () -> ()
       | Error e ->
         failwith
           ("worker checkpoint write failed: "
            ^ Checkpoint.error_to_string e));
      Bvf_util.Prof.stop wprof fr_iter;
      (* spans must be on disk before the done marker: once the parent
         sees worker-<i>.done it may read the profile immediately.  A
         failed write only drops this worker's track, like a damaged
         file: profiling is an observer and never fails the shard. *)
      if Bvf_util.Prof.active psession then
        ignore
          (Checkpoint.save ~path:(prof_path dir shard) ~tag:prof_tag
             (Bvf_util.Prof.spans psession));
      Checkpoint.atomic_write (done_path dir shard) "ok\n";
      Telemetry.close sink;
      Unix._exit 0
    with e ->
      (try
         Checkpoint.atomic_write (err_path dir shard)
           (Printexc.to_string e ^ "\n")
       with _ -> ());
      Unix._exit 70
  in
  let spawn (i : int) : wstate =
    remove_if_exists (hb_path dir i);
    remove_if_exists (done_path dir i);
    remove_if_exists (prof_path dir i);
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try worker i with _ -> ());
      Unix._exit 70
    | pid ->
      Running
        { rn_pid = pid; rn_hb = None;
          rn_hb_time = Bvf_util.Mclock.now_s () }
  in
  let slots =
    Array.init workers (fun i ->
        { ws_index = i; ws_state = Waiting 0.; ws_restarts = 0 })
  in
  let record_crash (slot : wslot) (cause : Triage.crash_cause) : unit =
    (* the on-disk heartbeat is written before every iteration, so at
       crash time it names the implicated iteration even when the
       worker died between two supervisor polls; the polled cache is a
       fallback for an unreadable file *)
    let hb =
      match read_hb (hb_path dir slot.ws_index) with
      | Some _ as fresh -> fresh
      | None ->
        (match slot.ws_state with Running r -> r.rn_hb | _ -> None)
    in
    slot.ws_restarts <- slot.ws_restarts + 1;
    let crash =
      {
        Triage.hc_worker = slot.ws_index;
        hc_iteration = Option.map (fun (_, _, g) -> g) hb;
        hc_cause = cause;
        hc_restarts = slot.ws_restarts;
      }
    in
    crashes := crash :: !crashes;
    let artifact =
      Filename.concat dir (Printf.sprintf "crash-%03d.json" !ncrashes)
    in
    incr ncrashes;
    (try
       Checkpoint.atomic_write artifact
         (Triage.harness_crash_to_json crash ^ "\n")
     with Sys_error _ -> ());
    (* quarantine the iteration the heartbeat implicates, so the
       restart makes forward progress past a deterministic crasher *)
    (match hb with
     | Some (_, _, g) when not (List.mem g !quarantine_set) ->
       quarantine_set := List.sort compare (g :: !quarantine_set);
       write_quarantine dir !quarantine_set
     | _ -> ());
    if slot.ws_restarts > max_restarts then
      slot.ws_state <- Finished Outcome_retired
    else
      slot.ws_state <-
        Waiting
          (Bvf_util.Mclock.now_s ()
           +. (backoff_s *. (2. ** float_of_int (slot.ws_restarts - 1))))
  in
  let interrupting = ref false and interrupt_at = ref 0. in
  let all_finished () =
    Array.for_all
      (fun s -> match s.ws_state with Finished _ -> true | _ -> false)
      slots
  in
  Array.iter
    (fun s ->
       s.ws_state <-
         Bvf_util.Prof.span sup_prof "fork" (fun () -> spawn s.ws_index))
    slots;
  while not (all_finished ()) do
    if
      (not !interrupting)
      && match stop with Some f -> f () | None -> false
    then begin
      interrupting := true;
      interrupt_at := Bvf_util.Mclock.now_s ();
      Array.iter
        (fun s ->
           match s.ws_state with
           | Running r -> (
             try Unix.kill r.rn_pid Sys.sigterm with
             | Unix.Unix_error _ -> ())
           | Waiting _ -> s.ws_state <- Finished Outcome_interrupted
           | Finished _ -> ())
        slots
    end;
    Array.iter
      (fun s ->
         match s.ws_state with
         | Finished _ -> ()
         | Waiting until ->
           if !interrupting then
             s.ws_state <- Finished Outcome_interrupted
           else if Bvf_util.Mclock.now_s () >= until then
             s.ws_state <-
               Bvf_util.Prof.span sup_prof "restart" (fun () ->
                   spawn s.ws_index)
         | Running r -> (
           match Unix.waitpid [ Unix.WNOHANG ] r.rn_pid with
           | 0, _ ->
             (* alive: track heartbeat freshness *)
             (match read_hb (hb_path dir s.ws_index) with
              | Some (hseq, _, _) as hb
                when (match r.rn_hb with
                      | Some (s0, _, _) -> s0 <> hseq
                      | None -> true) ->
                r.rn_hb <- hb;
                r.rn_hb_time <- Bvf_util.Mclock.now_s ()
              | Some _ | None ->
                if
                  (not !interrupting)
                  && Bvf_util.Mclock.elapsed_s ~since:r.rn_hb_time
                     > deadline_s
                then begin
                  (* hung: no heartbeat within the deadline *)
                  (try Unix.kill r.rn_pid Sys.sigkill with
                   | Unix.Unix_error _ -> ());
                  ignore (Unix.waitpid [] r.rn_pid);
                  record_crash s Triage.Crash_hang
                end
                else if
                  !interrupting
                  && Bvf_util.Mclock.elapsed_s ~since:!interrupt_at
                     > deadline_s
                then begin
                  (* refuses to die during shutdown: force it *)
                  (try Unix.kill r.rn_pid Sys.sigkill with
                   | Unix.Unix_error _ -> ());
                  ignore (Unix.waitpid [] r.rn_pid);
                  s.ws_state <- Finished Outcome_interrupted
                end)
           | _, Unix.WEXITED 0
             when Sys.file_exists (done_path dir s.ws_index) ->
             s.ws_state <- Finished Outcome_completed
           | _, Unix.WEXITED code ->
             if !interrupting && (code = 0 || code = 130 || code = 143)
             then s.ws_state <- Finished Outcome_interrupted
             else record_crash s (Triage.Crash_exit code)
           | _, Unix.WSIGNALED sg ->
             if !interrupting then
               s.ws_state <- Finished Outcome_interrupted
             else record_crash s (Triage.Crash_signal (unix_signal sg))
           | _, Unix.WSTOPPED _ -> ()))
      slots;
    if not (all_finished ()) then Unix.sleepf poll_s
  done;
  (* -- Join ------------------------------------------------------------- *)
  let fr_join = Bvf_util.Prof.start sup_prof "join" in
  let finals =
    Array.init workers (fun i ->
        let p = ckpt_path dir i in
        if Sys.file_exists p then
          match load_worker ~path:p with
          | Ok w -> Some w
          | Error _ -> None
        else None)
  in
  let rp_workers =
    Array.to_list
      (Array.map
         (fun s ->
            {
              wr_worker = s.ws_index;
              wr_outcome =
                (match s.ws_state with
                 | Finished o -> o
                 | Running _ | Waiting _ -> assert false);
              wr_assigned = counts.(s.ws_index);
              wr_completed =
                (match finals.(s.ws_index) with
                 | Some w -> w.wk_snapshot.Campaign.sn_completed
                 | None -> 0);
              wr_restarts = s.ws_restarts;
            })
         slots)
  in
  let report =
    {
      rp_workers;
      rp_crashes = List.rev !crashes;
      rp_quarantined = !quarantine_set;
      rp_abandoned =
        List.filter_map
          (fun w ->
             if
               w.wr_outcome <> Outcome_completed
               && w.wr_completed < w.wr_assigned
             then Some (w.wr_worker, w.wr_completed, w.wr_assigned - 1)
             else None)
          rp_workers;
    }
  in
  let outcome =
    if !interrupting then Interrupted report
    else begin
    (* merge the final worker checkpoints through Parallel's join *)
    Option.iter
      (fun t ->
         (* a retired worker's trace may carry events past its last
            barrier; trim to the checkpointed offset so the merged
            trace matches the merged stats *)
         Array.iteri
           (fun i final ->
              let p = Parallel.shard_trace_path t i in
              if Sys.file_exists p then
                match final with
                | Some w ->
                  let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
                  Unix.ftruncate fd w.wk_trace_pos;
                  Unix.close fd
                | None -> remove_if_exists p)
           finals;
         Parallel.merge_traces t ~jobs:workers)
      trace;
    let shards =
      List.concat
        (List.init workers (fun i ->
             match finals.(i) with
             | Some w -> [ Parallel.shard ~index:i w.wk_snapshot ]
             | None -> []))
    in
    if shards = [] then
      raise
        (Campaign.Environment
           "supervised campaign: no worker produced a checkpoint to merge");
    Completed
      (Parallel.join ~prof:sup_prof ~jobs:workers ~iterations shards, report)
  end
  in
  (* fold each completed worker's spans back into the parent session;
     a crashed or interrupted worker never wrote its profile, so its
     track is simply absent from the trace *)
  if Bvf_util.Prof.active prof then
    for i = 0 to workers - 1 do
      match load_prof ~path:(prof_path dir i) with
      | Ok spans ->
        Bvf_util.Prof.absorb prof
          ~name:(Printf.sprintf "worker%d" i) ~trk:i spans
      | Error _ -> ()
    done;
  Bvf_util.Prof.stop sup_prof fr_join;
  outcome
