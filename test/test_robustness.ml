(* Robustness tests: deterministic fault injection (failslab) and
   durable campaigns (checkpoint/resume, retry, the reboot-storm
   breaker).

   The two load-bearing properties:
   - soundness under fault injection: an injected allocation failure is
     environment noise — it surfaces as a clean -ENOMEM outcome and the
     oracle never turns it into a finding;
   - resume determinism: a campaign killed at a checkpoint and resumed
     replays the exact continuation of the uninterrupted run (same
     findings, same coverage, same stats digest). *)

module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Failslab = Bvf_kernel.Failslab
module Venv = Bvf_verifier.Venv
module Verifier = Bvf_verifier.Verifier
module Loader = Bvf_runtime.Loader
module Rng = Bvf_core.Rng
module Gen = Bvf_core.Gen
module Corpus = Bvf_core.Corpus
module Oracle = Bvf_core.Oracle
module Campaign = Bvf_core.Campaign
module Checkpoint = Bvf_core.Checkpoint
module Supervisor = Bvf_core.Supervisor
module Prof = Bvf_util.Prof

(* -- Failslab ----------------------------------------------------------- *)

let test_failslab_deterministic () =
  let a = Failslab.create ~rate:0.3 ~seed:9 () in
  let b = Failslab.create ~rate:0.3 ~seed:9 () in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "same decision"
      (Failslab.should_fail a ~site:"s")
      (Failslab.should_fail b ~site:"s")
  done;
  Alcotest.(check int) "same injected count" (Failslab.injected a)
    (Failslab.injected b);
  Alcotest.(check bool) "roughly the configured rate" true
    (let r = float_of_int (Failslab.injected a) /. 1000.0 in
     r > 0.2 && r < 0.4)

let test_failslab_extremes () =
  let z = Failslab.off () in
  for _ = 1 to 200 do
    Alcotest.(check bool) "off never fails" false
      (Failslab.should_fail z ~site:"x")
  done;
  Alcotest.(check int) "off consults nothing" 0 (Failslab.attempts z);
  let one = Failslab.create ~rate:1.0 ~seed:1 () in
  for _ = 1 to 200 do
    Alcotest.(check bool) "rate 1 always fails" true
      (Failslab.should_fail one ~site:"x")
  done;
  let spaced = Failslab.create ~space:10 ~rate:1.0 ~seed:1 () in
  for _ = 1 to 10 do
    Alcotest.(check bool) "grace period holds" false
      (Failslab.should_fail spaced ~site:"x")
  done;
  Alcotest.(check bool) "fails after grace" true
    (Failslab.should_fail spaced ~site:"x");
  match Failslab.create ~rate:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for rate 1.5"

(* Oracle soundness under total allocation blackout: with a 100% fault
   rate every load fails with a transient errno, produces no kernel
   reports, and the oracle reports no findings — an injected
   environmental fault is never a correctness-bug finding. *)
let test_failslab_blackout_sound () =
  let plan = Failslab.create ~rate:1.0 ~seed:5 () in
  let config = Kconfig.fixed Version.Bpf_next in
  let session = Loader.create ~failslab:plan config in
  let maps = Campaign.standard_maps session in
  Alcotest.(check int) "no map survives creation" 0 (List.length maps);
  let cfg = { Gen.c_version = Version.Bpf_next; Gen.c_maps = maps } in
  let rng = Rng.create 31 in
  for _ = 1 to 200 do
    let req = Gen.generate rng cfg in
    let result = Loader.load_and_run session req in
    (match result.Loader.verdict with
     | Error e ->
       Alcotest.(check bool) "errno is transient" true
         (Venv.errno_is_transient e.Venv.errno)
     | Ok _ -> Alcotest.fail "loaded despite 100% failslab");
    Alcotest.(check int) "no kernel reports" 0
      (List.length result.Loader.reports);
    Alcotest.(check int) "no oracle findings" 0
      (List.length (Oracle.classify config result))
  done

(* A stale map fd (e.g. the map's creation failed with -ENOMEM earlier)
   is a clean -EBADF load error, never an exception. *)
let test_stale_map_fd_clean_error () =
  let session = Loader.create (Kconfig.default Version.Bpf_next) in
  let insns = Asm.prog [ [ Asm.ld_map_fd Insn.R6 999 ]; Asm.ret 0l ] in
  match
    Loader.load_and_run session (Verifier.request Prog.Socket_filter insns)
  with
  | { Loader.verdict = Error e; reports = []; _ } ->
    Alcotest.(check string) "EBADF" "EBADF"
      (Venv.errno_to_string e.Venv.errno)
  | _ -> Alcotest.fail "expected a clean EBADF rejection"

(* Fixed kernel + fault injection: the campaign completes, retries
   transients, and reports zero findings of any kind. *)
let test_campaign_failslab_fixed_clean () =
  let plan = Failslab.create ~rate:0.2 ~seed:3 () in
  let stats =
    Campaign.run ~failslab:plan ~seed:8 ~iterations:1200
      Campaign.bvf_strategy
      (Kconfig.fixed Version.Bpf_next)
  in
  Alcotest.(check int) "all iterations ran" 1200 stats.Campaign.st_generated;
  Alcotest.(check int) "zero findings under fault injection" 0
    (Hashtbl.length stats.Campaign.st_findings);
  Alcotest.(check bool) "fault plan was exercised" true
    (Failslab.injected plan > 0);
  Alcotest.(check bool) "transients were retried" true
    (stats.Campaign.st_retries > 0)

(* The acceptance-criterion campaign: 5k iterations at a 10% fault rate
   against the buggy kernel complete without an exception, and every
   finding is attributed to an injected bug — none to injected faults. *)
let test_campaign_failslab_5k () =
  let plan = Failslab.create ~rate:0.1 ~seed:7 () in
  let stats =
    Campaign.run ~failslab:plan ~checkpoint_every:1000 ~seed:4
      ~iterations:5000 Campaign.bvf_strategy
      (Kconfig.default Version.Bpf_next)
  in
  Alcotest.(check int) "all iterations ran" 5000 stats.Campaign.st_generated;
  Alcotest.(check bool) "fault plan was exercised" true
    (Failslab.injected plan > 0);
  Alcotest.(check bool) "found bugs despite the faults" true
    (List.length (Campaign.bugs_found stats) >= 4);
  Hashtbl.iter
    (fun _ (f : Campaign.found) ->
       Alcotest.(check bool) "finding attributed to an injected bug" true
         (f.Campaign.fd_finding.Oracle.f_bug <> None))
    stats.Campaign.st_findings

(* -- Rng state ---------------------------------------------------------- *)

let test_rng_state_roundtrip () =
  let a = Rng.create 42 in
  for _ = 1 to 17 do
    ignore (Rng.next a)
  done;
  let b = Rng.of_state (Rng.state a) in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same continuation" (Rng.next a) (Rng.next b)
  done

(* -- Reboot-storm breaker ----------------------------------------------- *)

let dummy_req = Verifier.request Prog.Socket_filter [| Insn.Exit |]

let test_corpus_quarantine () =
  let c = Corpus.create () in
  Corpus.add c ~iteration:1 ~new_edges:5 dummy_req;
  let e =
    match Corpus.pick_entry c (Rng.create 1) with
    | Some e -> e
    | None -> Alcotest.fail "expected a pick"
  in
  Alcotest.(check bool) "first blame keeps the entry" false
    (Corpus.blame c e ~quarantine_after:3);
  Corpus.absolve e;
  Alcotest.(check bool) "absolution resets the count" false
    (Corpus.blame c e ~quarantine_after:3);
  Alcotest.(check bool) "second consecutive blame keeps" false
    (Corpus.blame c e ~quarantine_after:3);
  Alcotest.(check bool) "third consecutive blame quarantines" true
    (Corpus.blame c e ~quarantine_after:3);
  Alcotest.(check int) "entry removed" 0 (Corpus.size c);
  Alcotest.(check int) "quarantine counted" 1 (Corpus.quarantined c)

(* -- Checkpoint container ----------------------------------------------- *)

let test_checkpoint_container () =
  let path = Filename.temp_file "bvf_ck" ".ckpt" in
  (match Checkpoint.save ~path ~tag:"test/1" [ 1; 2; 3 ] with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  (match
     (Checkpoint.load ~path ~tag:"test/1"
      : (int list, Checkpoint.error) result)
   with
   | Ok v -> Alcotest.(check (list int)) "round trip" [ 1; 2; 3 ] v
   | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  (match
     (Checkpoint.load ~path ~tag:"test/2"
      : (int list, Checkpoint.error) result)
   with
   | Error (Checkpoint.Tag_mismatch _) -> ()
   | _ -> Alcotest.fail "expected a tag mismatch");
  (* flip a payload byte: the digest must catch it *)
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string contents in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match
     (Checkpoint.load ~path ~tag:"test/1"
      : (int list, Checkpoint.error) result)
   with
   | Error (Checkpoint.Corrupt _) -> ()
   | _ -> Alcotest.fail "expected corruption to be detected");
  (* arbitrary files are rejected up front *)
  let oc = open_out_bin path in
  output_string oc "hello world\n";
  close_out oc;
  (match
     (Checkpoint.load ~path ~tag:"test/1"
      : (int list, Checkpoint.error) result)
   with
   | Error Checkpoint.Bad_magic -> ()
   | _ -> Alcotest.fail "expected bad magic");
  Sys.remove path

(* Fuzz the checkpoint loader: every truncation and every single-bit
   corruption of a valid checkpoint file must come back as a clean
   [Error] — never an exception, never a silently wrong [Ok].  This is
   the surface a crashed writer or a bad disk hands the supervisor. *)
let test_checkpoint_loader_fuzz () =
  let path = Filename.temp_file "bvf_ldfz" ".ckpt" in
  let _ =
    Campaign.run ~checkpoint_every:50 ~save:(Campaign.save_snapshot ~path)
      ~seed:11 ~iterations:50 Campaign.bvf_strategy
      (Kconfig.default Version.V6_1)
  in
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let len = String.length contents in
  let write_bytes (b : bytes) : unit =
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  let expect_error what =
    match Campaign.load_checkpoint ~path with
    | Ok _ -> Alcotest.failf "%s loaded as Ok" what
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  (* truncations, including the empty file *)
  let t = ref 0 in
  while !t < len do
    write_bytes (Bytes.of_string (String.sub contents 0 !t));
    expect_error (Printf.sprintf "truncation to %d bytes" !t);
    t := !t + max 1 (len / 97)
  done;
  (* single bit flips across the file (header, digest and payload) *)
  let off = ref 0 in
  while !off < len do
    let b = Bytes.of_string contents in
    Bytes.set b !off (Char.chr (Char.code (Bytes.get b !off) lxor 0x10));
    write_bytes b;
    expect_error (Printf.sprintf "bit flip at offset %d" !off);
    off := !off + max 1 (len / 211)
  done;
  (* the pristine bytes still load *)
  write_bytes (Bytes.of_string contents);
  (match Campaign.load_checkpoint ~path with
   | Ok s ->
     Alcotest.(check int) "pristine file loads" 50 s.Campaign.sn_completed
   | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
  Sys.remove path

(* -- Resume determinism ------------------------------------------------- *)

(* 2N iterations straight (with a checkpoint barrier every N) must be
   indistinguishable from N iterations, kill, resume from the
   checkpoint, N more: same findings, same coverage, same stats
   digest. *)
let test_checkpoint_resume_determinism () =
  let config = Kconfig.default Version.V6_1 in
  let n = 250 in
  let path_a = Filename.temp_file "bvf_straight" ".ckpt" in
  let path_b = Filename.temp_file "bvf_resumed" ".ckpt" in
  let straight =
    Campaign.run
      ~failslab:(Failslab.create ~rate:0.1 ~seed:2 ())
      ~checkpoint_every:n ~save:(Campaign.save_snapshot ~path:path_a)
      ~seed:55 ~iterations:(2 * n) Campaign.bvf_strategy config
  in
  let first =
    Campaign.run
      ~failslab:(Failslab.create ~rate:0.1 ~seed:2 ())
      ~checkpoint_every:n ~save:(Campaign.save_snapshot ~path:path_b)
      ~seed:55 ~iterations:n
      Campaign.bvf_strategy config
  in
  Alcotest.(check int) "first half ran" n first.Campaign.st_generated;
  let snap =
    match Campaign.load_checkpoint ~path:path_b with
    | Ok s -> s
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  in
  Alcotest.(check int) "snapshot taken at the barrier" n
    snap.Campaign.sn_completed;
  let resumed =
    Campaign.run ~resume_from:snap ~checkpoint_every:n ~seed:0
      ~iterations:n Campaign.bvf_strategy config
  in
  Alcotest.(check int) "resumed to completion" (2 * n)
    resumed.Campaign.st_generated;
  Alcotest.(check (list string)) "same findings fingerprints"
    (Campaign.fingerprints straight)
    (Campaign.fingerprints resumed);
  Alcotest.(check int) "same coverage edge count"
    straight.Campaign.st_edges resumed.Campaign.st_edges;
  Alcotest.(check string) "same stats digest"
    (Campaign.digest straight) (Campaign.digest resumed);
  Sys.remove path_a;
  Sys.remove path_b

(* External stop (the CLI's SIGINT/SIGTERM path): the campaign finishes
   the in-flight iteration, writes a final checkpoint and stops.  The
   stop acts as an extra barrier (save, then reboot — checked before
   the scheduled-barrier test, so a stop landing ON a barrier runs the
   sequence once).  Resuming replays the exact continuation, so:
   - a stop aligned with a scheduled barrier resumes to the same digest
     as the uninterrupted run (identical barrier schedules);
   - a stop anywhere is deterministic: two independent
     stop-at-i/resume sequences produce identical digests. *)
let test_stop_resume_digest_identity () =
  let config = Kconfig.default Version.V6_1 in
  let total = 300 in
  let stop_resume (stop_at : int) : Campaign.stats =
    let path = Filename.temp_file "bvf_stop" ".ckpt" in
    let polls = ref 0 in
    let stopped =
      Campaign.run ~checkpoint_every:100
        ~save:(Campaign.save_snapshot ~path)
        ~stop:(fun () -> incr polls; !polls >= stop_at)
        ~seed:21 ~iterations:total Campaign.bvf_strategy config
    in
    Alcotest.(check int) "stopped after the in-flight iteration" stop_at
      stopped.Campaign.st_generated;
    let snap =
      match Campaign.load_checkpoint ~path with
      | Ok s -> s
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
    in
    Alcotest.(check int) "final checkpoint taken at the stop" stop_at
      snap.Campaign.sn_completed;
    Sys.remove path;
    Campaign.run ~resume_from:snap ~checkpoint_every:100 ~seed:0
      ~iterations:(total - stop_at) Campaign.bvf_strategy config
  in
  let straight =
    Campaign.run ~checkpoint_every:100 ~seed:21 ~iterations:total
      Campaign.bvf_strategy config
  in
  (* barrier-aligned stop: bit-for-bit the uninterrupted campaign *)
  let resumed_200 = stop_resume 200 in
  Alcotest.(check string) "barrier-aligned stop resumes to same digest"
    (Campaign.digest straight)
    (Campaign.digest resumed_200);
  (* arbitrary stop: the extra stop barrier (one more reboot) is in the
     digest, so compare two independent interrupted runs instead *)
  let a = stop_resume 137 and b = stop_resume 137 in
  Alcotest.(check string) "arbitrary stop resumes deterministically"
    (Campaign.digest a) (Campaign.digest b);
  Alcotest.(check int) "arbitrary stop completes the budget" total
    a.Campaign.st_generated;
  Alcotest.(check int) "one extra reboot from the stop barrier"
    (straight.Campaign.st_reboots + 1)
    a.Campaign.st_reboots
let test_resume_validation () =
  let config = Kconfig.default Version.V6_1 in
  let path = Filename.temp_file "bvf_val" ".ckpt" in
  let _ =
    Campaign.run ~checkpoint_every:100 ~save:(Campaign.save_snapshot ~path)
      ~seed:3 ~iterations:100 Campaign.bvf_strategy config
  in
  let snap =
    match Campaign.load_checkpoint ~path with
    | Ok s -> s
    | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  in
  (match
     Campaign.resume Campaign.bvf_strategy
       (Kconfig.default Version.Bpf_next) snap
   with
   | exception Campaign.Environment _ -> ()
   | _ -> Alcotest.fail "expected kernel-version mismatch to be refused");
  Sys.remove path

(* -- Checkpoint schemas and adversarial loaders ---------------------------- *)

let read_bytes (path : string) : string =
  In_channel.with_open_bin path In_channel.input_all

let write_string (path : string) (s : string) : unit =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Files saved under the previous schema tags ("bvf-campaign/7",
   "bvf-worker/2": stats still carried the phase timer fields) are a
   schema error, which [bvf fuzz --resume] reports as exit 4. *)
let test_old_schema_tags_refused () =
  let path = Filename.temp_file "bvf_old" ".ckpt" in
  let refused what tag load =
    (match Checkpoint.save ~path ~tag [ 1; 2; 3 ] with
     | Ok () -> ()
     | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
    match load path with
    | Error (Checkpoint.Tag_mismatch { found; _ }) ->
      Alcotest.(check string) (what ^ " names the stale tag") tag found
    | Error e ->
      Alcotest.failf "%s: expected a tag mismatch, got %s" what
        (Checkpoint.error_to_string e)
    | Ok () -> Alcotest.failf "%s loaded under a stale tag" what
  in
  refused "campaign checkpoint" "bvf-campaign/7" (fun path ->
      Result.map ignore (Campaign.load_checkpoint ~path));
  refused "worker checkpoint" "bvf-worker/2" (fun path ->
      Result.map ignore (Supervisor.load_worker ~path));
  Sys.remove path

type loader = {
  ld_name : string;
  ld_bytes : string;  (* a real file this loader accepts *)
  ld_load : string -> (unit, Checkpoint.error) result;
}

(* The three loaders with real inputs: a campaign checkpoint, and the
   worker checkpoint and worker profile of a one-worker supervised
   run. *)
let loaders : loader array Lazy.t =
  lazy
    (let config = Kconfig.default Version.V6_1 in
     let ckpt = Filename.temp_file "bvf_adv" ".ckpt" in
     ignore
       (Campaign.run ~checkpoint_every:40
          ~save:(Campaign.save_snapshot ~path:ckpt) ~seed:5 ~iterations:40
          Campaign.bvf_strategy config);
     let dir = Filename.temp_file "bvf_adv_sv" "" in
     Sys.remove dir;
     (match
        Supervisor.run ~checkpoint_every:20 ~poll_s:0.02
          ~prof:(Prof.session ()) ~workers:1 ~seed:5 ~iterations:40 ~dir
          Campaign.bvf_strategy config
      with
      | Supervisor.Completed _ -> ()
      | Supervisor.Interrupted _ -> Alcotest.fail "supervised run interrupted");
     let worker = Filename.concat dir "worker-0.ckpt" in
     let prof = Filename.concat dir "worker-0.prof" in
     let ld name path load =
       { ld_name = name; ld_bytes = read_bytes path;
         ld_load = (fun p -> Result.map ignore (load p)) }
     in
     let all =
       [| ld "campaign checkpoint" ckpt
            (fun path -> Campaign.load_checkpoint ~path);
          ld "worker checkpoint" worker
            (fun path -> Supervisor.load_worker ~path);
          ld "worker profile" prof (fun path -> Supervisor.load_prof ~path) |]
     in
     Sys.remove ckpt;
     Array.iter Sys.remove (Sys.readdir dir |> Array.map (Filename.concat dir));
     Unix.rmdir dir;
     all)

(* [lines_after k s]: [s] from just past its [k]-th newline ("" if it
   has fewer). *)
let rec lines_after (k : int) (s : string) : string =
  if k = 0 then s
  else
    match String.index_opt s '\n' with
    | None -> ""
    | Some i ->
      lines_after (k - 1) (String.sub s (i + 1) (String.length s - i - 1))

let lines_upto (k : int) (s : string) : string =
  String.sub s 0 (String.length s - String.length (lines_after k s))

(* A loader and its file after one to four edits: truncations, bit
   flips, byte splices with any of the three real files, and swaps of
   the container's header line or header+digest lines with another
   file's (the sections a reader trusts before it unmarshals). *)
let gen_damaged : (int * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let edit =
    let* kind = int_bound 4 and* a = int_bound 1_000_000
    and* b = int_bound 1_000_000 and* other = int_bound 2
    and* bit = int_bound 7 in
    return (kind, a, b, other, bit)
  in
  let apply text (kind, a, b, other, bit) =
    let donor = (Lazy.force loaders).(other).ld_bytes in
    let n = String.length text in
    match kind with
    | 0 -> String.sub text 0 (if n = 0 then 0 else a mod n)
    | 1 when n > 0 ->
      let by = Bytes.of_string text in
      let i = a mod n in
      Bytes.set by i (Char.chr (Char.code (Bytes.get by i) lxor (1 lsl bit)));
      Bytes.to_string by
    | 2 ->
      let i = if n = 0 then 0 else a mod n in
      let j = b mod String.length donor in
      String.sub text 0 i
      ^ String.sub donor j (String.length donor - j)
    | 3 ->
      let k = 1 + (a mod 2) in
      lines_upto k donor ^ lines_after k text
    | _ ->
      let k = 1 + (a mod 2) in
      lines_upto k text ^ lines_after k donor
  in
  let* which = int_bound 2 in
  let* edits = list_size (int_range 1 4) edit in
  let pristine = (Lazy.force loaders).(which).ld_bytes in
  return (which, List.fold_left apply pristine edits)

let checkpoint_loaders_never_raise =
  QCheck2.Test.make ~count:500
    ~name:"checkpoint loaders return Error on damaged files, never raise"
    ~print:(fun (w, text) ->
        Printf.sprintf "%s, %d bytes" (Lazy.force loaders).(w).ld_name
          (String.length text))
    gen_damaged
    (fun (which, text) ->
       let ld = (Lazy.force loaders).(which) in
       let path = Filename.temp_file "bvf_adv_dmg" ".ckpt" in
       write_string path text;
       let result =
         match ld.ld_load path with
         (* an edit sequence can land back on the pristine bytes *)
         | Ok () -> text = ld.ld_bytes
         | Error _ -> text <> ld.ld_bytes
         | exception e ->
           QCheck2.Test.fail_reportf "%s raised %s" ld.ld_name
             (Printexc.to_string e)
       in
       Sys.remove path;
       result)

let () =
  Alcotest.run "bvf_robustness"
    [
      ( "failslab",
        [ Alcotest.test_case "deterministic" `Quick
            test_failslab_deterministic;
          Alcotest.test_case "extremes" `Quick test_failslab_extremes;
          Alcotest.test_case "blackout is sound" `Quick
            test_failslab_blackout_sound;
          Alcotest.test_case "stale map fd" `Quick
            test_stale_map_fd_clean_error ] );
      ( "campaign under faults",
        [ Alcotest.test_case "fixed kernel clean" `Slow
            test_campaign_failslab_fixed_clean;
          Alcotest.test_case "5k at 10%" `Slow test_campaign_failslab_5k ] );
      ( "rng state",
        [ Alcotest.test_case "roundtrip" `Quick test_rng_state_roundtrip ] );
      ( "storm breaker",
        [ Alcotest.test_case "quarantine" `Quick test_corpus_quarantine ] );
      ( "checkpoint",
        [ Alcotest.test_case "container" `Quick test_checkpoint_container;
          Alcotest.test_case "loader fuzz" `Slow
            test_checkpoint_loader_fuzz;
          Alcotest.test_case "resume determinism" `Slow
            test_checkpoint_resume_determinism;
          Alcotest.test_case "stop/resume digest identity" `Slow
            test_stop_resume_digest_identity;
          Alcotest.test_case "old schema tags refused" `Quick
            test_old_schema_tags_refused;
          QCheck_alcotest.to_alcotest checkpoint_loaders_never_raise;
          Alcotest.test_case "resume validation" `Quick
            test_resume_validation ] );
    ]
