(* Span-profiler tests: the purity contract (a profiled run's digest
   and telemetry trace are byte-identical to an unprofiled one, both
   sequential and sharded), the Chrome trace-event round trip (parses
   back, nests correctly, malformed input is reported not swallowed),
   non-negative GC attribution, the shared percentile helper, and the
   serve loop's metrics request. *)

module Version = Bvf_ebpf.Version
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Kconfig = Bvf_kernel.Kconfig
module Verifier = Bvf_verifier.Verifier
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Telemetry = Bvf_core.Telemetry
module Selftests = Bvf_core.Selftests
module Service = Bvf_core.Service
module Vcache = Bvf_core.Vcache
module Prof = Bvf_util.Prof
module Percentile = Bvf_util.Percentile

let strategy = Campaign.bvf_strategy
let config () = Kconfig.default Version.Bpf_next
let read_all path = In_channel.with_open_bin path In_channel.input_all

(* -- Percentile (the shared nearest-rank helper) ----------------------- *)

let test_percentile () =
  Alcotest.(check (float 0.0)) "empty is zero" 0.0
    (Percentile.of_sorted [||] 50);
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "p50 of 4" 2.0 (Percentile.of_sorted a 50);
  Alcotest.(check (float 0.0)) "p95 of 4" 3.0 (Percentile.of_sorted a 95);
  Alcotest.(check (float 0.0)) "p100 is max" 4.0
    (Percentile.of_sorted a 100);
  Alcotest.(check int) "int variant" 30
    (Percentile.of_sorted_int [| 10; 20; 30; 40 |] 95);
  (* of_samples sorts a copy: unsorted input, same answer *)
  Alcotest.(check (float 0.0)) "samples sort first" 2.0
    (Percentile.of_samples [ 4.0; 1.0; 3.0; 2.0 ] 50);
  Alcotest.(check (float 0.0)) "singleton" 7.0
    (Percentile.of_samples [ 7.0 ] 95)

(* -- Recording --------------------------------------------------------- *)

let test_recording_nests_and_attributes () =
  let s = Prof.session () in
  let h = Prof.track s ~name:"t0" 0 in
  Prof.span h "outer" (fun () ->
      Prof.span h "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Prof.span h "tail" (fun () -> ignore (Sys.opaque_identity [ 1; 2 ])));
  let spans = Prof.spans s in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name =
    List.find (fun sp -> sp.Prof.sp_name = name) spans
  in
  let outer = find "outer" and inner = find "inner" in
  let tail = find "tail" in
  Alcotest.(check int) "outer is top level" 0 outer.Prof.sp_depth;
  Alcotest.(check int) "inner is nested" 1 inner.Prof.sp_depth;
  Alcotest.(check int) "sibling nests under the same frame" 1
    tail.Prof.sp_depth;
  List.iter
    (fun child ->
       Alcotest.(check bool) "children fit inside the parent" true
         (child.Prof.sp_start_s >= outer.Prof.sp_start_s
          && child.Prof.sp_start_s +. child.Prof.sp_dur_s
             <= outer.Prof.sp_start_s +. outer.Prof.sp_dur_s +. 1e-9))
    [ inner; tail ];
  Alcotest.(check bool) "self time excludes children" true
    (outer.Prof.sp_self_s
     <= outer.Prof.sp_dur_s -. inner.Prof.sp_dur_s -. tail.Prof.sp_dur_s
        +. 1e-9);
  List.iter
    (fun sp ->
       Alcotest.(check bool) "durations non-negative" true
         (sp.Prof.sp_dur_s >= 0.0 && sp.Prof.sp_self_s >= 0.0);
       Alcotest.(check bool) "GC deltas non-negative" true
         (sp.Prof.sp_minor_w >= 0.0 && sp.Prof.sp_major_w >= 0.0))
    spans

(* A disabled handle is a true no-op: campaigns call start/stop on it
   for every phase of every iteration. *)
let test_disabled_allocates_nothing () =
  let d = Prof.track Prof.null 0 in
  let m0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Prof.stop d (Prof.start d "x")
  done;
  Alcotest.(check (float 0.0)) "no minor words" 0.0
    (Gc.minor_words () -. m0)

(* -- Chrome trace-event round trip ------------------------------------- *)

let test_chrome_round_trip () =
  let s = Prof.session () in
  let h0 = Prof.track s ~name:"shard0" 0 in
  let h1 = Prof.track s ~name:"shard1" 1 in
  Prof.span h0 "iterate" (fun () ->
      Prof.span h0 "gen" (fun () -> ());
      Prof.span h0 "verify" (fun () ->
          Prof.span h0 "sanitize" (fun () -> ())));
  Prof.span h1 "iterate" (fun () -> ());
  let path = Filename.temp_file "bvf_prof" ".json" in
  Prof.write_chrome path ~tracks:(Prof.tracks s) (Prof.spans s);
  let spans, tracks, complaints = Prof.read_chrome path in
  Sys.remove path;
  Alcotest.(check (list string)) "well-formed trace: no complaints" []
    complaints;
  Alcotest.(check int) "all spans survive" (List.length (Prof.spans s))
    (List.length spans);
  Alcotest.(check (list (Alcotest.pair Alcotest.int Alcotest.string)))
    "track names survive" [ (0, "shard0"); (1, "shard1") ]
    (List.sort compare tracks);
  let names trk =
    List.filter (fun sp -> sp.Prof.sp_track = trk) spans
    |> List.map (fun sp -> sp.Prof.sp_name)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "track 0 span names"
    [ "gen"; "iterate"; "sanitize"; "verify" ] (names 0);
  Alcotest.(check (list string)) "track 1 span names" [ "iterate" ]
    (names 1)

let test_chrome_malformed_reported () =
  let write lines =
    let path = Filename.temp_file "bvf_prof_bad" ".json" in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc lines);
    let r = Prof.read_chrome path in
    Sys.remove path;
    r
  in
  let _, _, c1 = write "this is not json" in
  Alcotest.(check bool) "invalid JSON is a complaint" true (c1 <> []);
  let _, _, c2 =
    write
      {|{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"ts":0,"dur":-5}]}|}
  in
  Alcotest.(check bool) "negative duration is a complaint" true (c2 <> []);
  (* partial overlap on one track can come from no well-nested run *)
  let spans, _, c3 =
    write
      ({|{"traceEvents":[|}
       ^ {|{"ph":"X","name":"a","pid":0,"tid":0,"ts":0,"dur":10},|}
       ^ {|{"ph":"X","name":"b","pid":0,"tid":0,"ts":5,"dur":10}]}|})
  in
  Alcotest.(check bool) "partial overlap is a complaint" true (c3 <> []);
  Alcotest.(check int) "overlapping events still parse" 2
    (List.length spans)

(* -- Adversarial Chrome trace reader ------------------------------------ *)

(* A real [write_chrome] output: two named tracks, spans nested three
   deep and a name that needs escaping. *)
let chrome_text : string Lazy.t =
  lazy
    (let s = Prof.session () in
     let h0 = Prof.track s ~name:"shard0" 0 in
     let h1 = Prof.track s ~name:"worker \"1\"" 1 in
     for _ = 1 to 3 do
       Prof.span h0 "iterate" (fun () ->
           Prof.span h0 "gen" (fun () -> ());
           Prof.span h0 "verify" (fun () ->
               Prof.span h0 "sanitize" (fun () -> ())))
     done;
     Prof.span h1 "heart\nbeat" (fun () -> ());
     let path = Filename.temp_file "bvf_prof_src" ".json" in
     Prof.write_chrome path ~tracks:(Prof.tracks s) (Prof.spans s);
     let text = read_all path in
     Sys.remove path;
     text)

(* Truncations, bit flips, and lines duplicated, dropped or spliced
   from two halves of different lines, applied one to four times. *)
let gen_damaged_chrome : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let edit =
    let* kind = int_bound 4 and* a = int_bound 100_000
    and* b = int_bound 100_000 and* bit = int_bound 7 in
    return (kind, a, b, bit)
  in
  let apply text (kind, a, b, bit) =
    let n = String.length text in
    if n = 0 then text
    else
      match kind with
      | 0 -> String.sub text 0 (a mod n)
      | 1 ->
        let by = Bytes.of_string text in
        let i = a mod n in
        Bytes.set by i
          (Char.chr (Char.code (Bytes.get by i) lxor (1 lsl bit)));
        Bytes.to_string by
      | _ ->
        let lines = Array.of_list (String.split_on_char '\n' text) in
        let m = Array.length lines in
        let i = a mod m and j = b mod m in
        let l = Array.to_list lines in
        let l =
          match kind with
          | 2 ->
            List.concat
              (List.mapi (fun k x -> if k = i then [ x; x ] else [ x ]) l)
          | 3 -> List.filteri (fun k _ -> k <> i) l
          | _ ->
            let x = lines.(i) and y = lines.(j) in
            let spliced =
              String.sub x 0 (String.length x / 2)
              ^ String.sub y (String.length y / 2)
                  (String.length y - String.length y / 2)
            in
            List.mapi (fun k z -> if k = i then spliced else z) l
        in
        String.concat "\n" l
  in
  let* edits = list_size (int_range 1 4) edit in
  return (List.fold_left apply (Lazy.force chrome_text) edits)

let read_chrome_never_raises =
  QCheck2.Test.make ~count:1000
    ~name:"read_chrome never raises on damaged traces"
    ~print:(Printf.sprintf "%S") gen_damaged_chrome
    (fun text ->
       let path = Filename.temp_file "bvf_prof_dmg" ".json" in
       Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc text);
       let result =
         match Prof.read_chrome path with
         | _, _, complaints ->
           (* a cut before the closing brace can never parse clean *)
           let full = Lazy.force chrome_text in
           let n = String.length text in
           not
             (n < String.length full - 1
              && String.sub full 0 n = text
              && complaints = [])
         | exception e ->
           QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)
       in
       Sys.remove path;
       result)

(* -- Purity: profiled == unprofiled, sequential and sharded ------------ *)

let campaign_run ~profiled =
  let path = Filename.temp_file "bvf_prof_seq" ".jsonl" in
  let sink = Telemetry.create path in
  let s = if profiled then Prof.session () else Prof.null in
  let h = Prof.track s ~name:"shard0" 0 in
  let stats =
    Prof.span h "iterate" (fun () ->
        Campaign.run ~telemetry:sink ~prof:h ~seed:31 ~iterations:150
          strategy (config ()))
  in
  Telemetry.close sink;
  let trace = read_all path in
  Sys.remove path;
  (Campaign.digest stats, trace, Prof.spans s)

(* Spans are the one record of phase allocation: every campaign phase
   has spans that together allocated something, and each "sanitize"
   span sits inside a "verify" span one level up on its track. *)
let check_phase_spans (spans : Prof.span list) : unit =
  List.iter
    (fun name ->
       let minor =
         List.fold_left
           (fun acc sp ->
              if sp.Prof.sp_name = name then acc +. sp.Prof.sp_minor_w
              else acc)
           0.0 spans
       in
       Alcotest.(check bool) (name ^ " spans carry minor words") true
         (minor > 0.0))
    [ "gen"; "verify"; "sanitize"; "exec" ];
  let end_s sp = sp.Prof.sp_start_s +. sp.Prof.sp_dur_s in
  List.iter
    (fun sp ->
       if sp.Prof.sp_name = "sanitize" then
         Alcotest.(check bool) "sanitize nests inside verify" true
           (List.exists
              (fun v ->
                 v.Prof.sp_name = "verify"
                 && v.Prof.sp_track = sp.Prof.sp_track
                 && v.Prof.sp_depth = sp.Prof.sp_depth - 1
                 && v.Prof.sp_start_s <= sp.Prof.sp_start_s
                 && end_s sp <= end_s v +. 1e-9)
              spans))
    spans

let test_sequential_profile_pure () =
  let d1, t1, spans = campaign_run ~profiled:true in
  let d2, t2, no_spans = campaign_run ~profiled:false in
  Alcotest.(check string) "digest unchanged by --profile" d1 d2;
  Alcotest.(check string) "trace byte-identical with --profile" t1 t2;
  check_phase_spans spans;
  Alcotest.(check int) "unprofiled run records nothing" 0
    (List.length no_spans);
  Alcotest.(check bool) "profiled run recorded spans" true (spans <> []);
  let phase name =
    List.exists (fun sp -> sp.Prof.sp_name = name) spans
  in
  List.iter
    (fun n ->
       Alcotest.(check bool) (n ^ " span present") true (phase n))
    [ "iterate"; "gen"; "verify"; "sanitize"; "exec" ];
  List.iter
    (fun sp ->
       Alcotest.(check bool) "GC deltas non-negative" true
         (sp.Prof.sp_minor_w >= 0.0 && sp.Prof.sp_major_w >= 0.0))
    spans

let parallel_run ~profiled =
  let path = Filename.temp_file "bvf_prof_par" ".jsonl" in
  let s = if profiled then Prof.session () else Prof.null in
  let r =
    Parallel.run ~jobs:2 ~trace:path ~prof:s ~seed:31 ~iterations:150
      strategy (config ())
  in
  let trace = read_all path in
  Sys.remove path;
  (Parallel.digest r, trace, Prof.spans s)

let test_parallel_profile_pure () =
  let d1, t1, spans = parallel_run ~profiled:true in
  let d2, t2, _ = parallel_run ~profiled:false in
  Alcotest.(check string) "jobs=2 digest unchanged by --profile" d1 d2;
  Alcotest.(check string) "jobs=2 trace byte-identical with --profile"
    t1 t2;
  (* acceptance gate: each shard's wall time is >= 90% attributed to
     named top-level spans (the single "iterate" span per shard) *)
  List.iter
    (fun (trk, wall, top) ->
       if trk < 2 then
         Alcotest.(check bool)
           (Printf.sprintf "track %d >= 90%% named" trk)
           true
           (wall <= 0.0 || top /. wall >= 0.9))
    (Prof.track_attribution spans);
  (* the coordinator track carries the join machinery *)
  let coord = Prof.totals_for spans ~trk:2 in
  List.iter
    (fun n ->
       Alcotest.(check bool) ("coordinator " ^ n ^ " present") true
         (List.mem_assoc n coord))
    [ "spawn"; "join"; "absorb"; "merge" ]

(* Allocation attribution lives in spans only: a profiled campaign's
   digest is the unprofiled one, and its spans attribute every phase. *)
let test_alloc_attribution_outside_digest () =
  let run prof =
    Campaign.digest
      (Campaign.run ~prof ~seed:31 ~iterations:80 strategy (config ()))
  in
  let s = Prof.session () in
  let profiled = run (Prof.track s 0) in
  Alcotest.(check string) "phase allocation excluded from digest"
    (run Prof.disabled) profiled;
  check_phase_spans (Prof.spans s)

(* -- serve metrics ------------------------------------------------------ *)

let test_serve_metrics_round_trip () =
  let accepted =
    match (Selftests.build ~count:4 Version.Bpf_next).Selftests.requests with
    | r :: _ -> r
    | [] -> Alcotest.fail "empty selftest corpus"
  in
  (* r0 never initialized: the fixed verifier rejects it *)
  let rejected =
    { Verifier.r_prog_type = Prog.Socket_filter; r_attach = None;
      r_offload = false; r_insns = Asm.prog [ [ Asm.exit_ ] ] }
  in
  let line id req =
    Service.request_to_json { Service.q_id = id; q_req = req }
  in
  let in_path = Filename.temp_file "bvf_serve" ".in" in
  let out_path = Filename.temp_file "bvf_serve" ".out" in
  Out_channel.with_open_bin in_path (fun oc ->
      List.iter
        (fun l -> Out_channel.output_string oc (l ^ "\n"))
        [ {|{"id":"m0","metrics":true}|};
          line "ok1" accepted;
          line "ok2" accepted;  (* same program: a cache hit *)
          line "no1" rejected;
          {|{"id":"bad","prog_type":"socket_filter"}|};  (* missing prog *)
          {|{"metrics":true}|} ]);
  let ic = open_in in_path in
  let oc = open_out out_path in
  let cache = Vcache.create ~cap:64 in
  let session = Service.create_session (Kconfig.fixed Version.Bpf_next) in
  let stats =
    Service.serve ~cache ~session ~stop:(fun () -> false) ic oc
  in
  close_in ic;
  close_out oc;
  let lines =
    String.split_on_char '\n' (String.trim (read_all out_path))
  in
  Sys.remove in_path;
  Sys.remove out_path;
  Alcotest.(check int) "one response line per input" 6
    (List.length lines);
  (* metrics requests are invisible to the serve counters *)
  Alcotest.(check int) "requests" 3 stats.Service.sv_requests;
  Alcotest.(check int) "invalid" 1 stats.Service.sv_invalid;
  Alcotest.(check int) "hits" 1 stats.Service.sv_hits;
  Alcotest.(check int) "misses" 2 stats.Service.sv_misses;
  let field fields k =
    match List.assoc_opt k fields with
    | Some (Telemetry.Jnum x) -> x
    | _ -> Alcotest.failf "metrics response lacks %s" k
  in
  let m0 = Telemetry.parse_object (List.nth lines 0) in
  Alcotest.(check (float 0.0)) "fresh server: zero requests" 0.0
    (field m0 "requests");
  Alcotest.(check bool) "id echoed" true
    (List.assoc_opt "id" m0 = Some (Telemetry.Jstr "m0"));
  let m = Telemetry.parse_object (List.nth lines 5) in
  Alcotest.(check bool) "default id" true
    (List.assoc_opt "id" m = Some (Telemetry.Jstr "metrics"));
  Alcotest.(check (float 0.0)) "requests counted" 3.0
    (field m "requests");
  Alcotest.(check (float 0.0)) "invalid counted" 1.0 (field m "invalid");
  Alcotest.(check (float 0.0)) "admitted counted" 2.0
    (field m "admitted");
  Alcotest.(check (float 0.0)) "rejected counted" 1.0
    (field m "rejected");
  Alcotest.(check (float 0.0)) "hits counted" 1.0
    (field m "cache_hits");
  Alcotest.(check (float 0.0)) "misses counted" 2.0
    (field m "cache_misses");
  Alcotest.(check (float 0.0)) "verify latency per miss" 2.0
    (field m "verify_count");
  Alcotest.(check (float 0.0)) "histogram covers every verification" 2.0
    (field m "verify_le_100us" +. field m "verify_le_1ms"
     +. field m "verify_le_10ms" +. field m "verify_gt_10ms");
  Alcotest.(check bool) "p50 <= p95, both positive" true
    (let p50 = field m "verify_p50_s" and p95 = field m "verify_p95_s" in
     0.0 < p50 && p50 <= p95)

let () =
  Alcotest.run "profiler"
    [
      ( "percentile",
        [ Alcotest.test_case "nearest rank" `Quick test_percentile ] );
      ( "recording",
        [
          Alcotest.test_case "nesting and attribution" `Quick
            test_recording_nests_and_attributes;
          Alcotest.test_case
            "disabled start/stop allocate 0 minor words over 1,000 calls"
            `Quick test_disabled_allocates_nothing;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "round trip" `Quick test_chrome_round_trip;
          Alcotest.test_case "malformed reported" `Quick
            test_chrome_malformed_reported;
          QCheck_alcotest.to_alcotest read_chrome_never_raises;
        ] );
      ( "purity",
        [
          Alcotest.test_case "sequential --profile identical" `Quick
            test_sequential_profile_pure;
          Alcotest.test_case "jobs=2 --profile identical" `Quick
            test_parallel_profile_pure;
          Alcotest.test_case "alloc attribution outside digest" `Quick
            test_alloc_attribution_outside_digest;
        ] );
      ( "serve",
        [
          Alcotest.test_case "metrics round trip" `Quick
            test_serve_metrics_round_trip;
        ] );
    ]
