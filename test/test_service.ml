(* Service-layer tests (docs/SERVICE.md): the verdict cache returns
   byte-identical results to a cold verification (including log and
   counters), evicts strictly LRU, survives the disk round trip and
   treats damaged files as errors; batches are deterministic across
   --jobs; the JSONL codec round-trips; the service telemetry events
   round-trip and aggregate; the request decoders agree with reference
   copies of their slower predecessors, and no mangled request line
   makes the codec or the serve loop raise. *)

module Version = Bvf_ebpf.Version
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Kconfig = Bvf_kernel.Kconfig
module Verifier = Bvf_verifier.Verifier
module Reject_reason = Bvf_verifier.Reject_reason
module Checkpoint = Bvf_core.Checkpoint
module Telemetry = Bvf_core.Telemetry
module Selftests = Bvf_core.Selftests
module Service = Bvf_core.Service
module Vcache = Bvf_core.Vcache
module Gen = Bvf_core.Gen
module Rng = Bvf_core.Rng
module Word = Bvf_ebpf.Word
module Encode = Bvf_ebpf.Encode

let version = Version.Bpf_next
let config = Kconfig.fixed version

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* Render a verdict the way batch output does (no cache field): the
   byte-identity the service contract promises. *)
let render (v : Vcache.verdict) : string =
  Service.response_to_json ~id:"x" ~key:"k" v

let corpus ?(n = 24) () : Verifier.request list =
  (Selftests.build ~count:n version).Selftests.requests

let inputs_of (reqs : Verifier.request list) : Service.input list =
  List.mapi
    (fun i req ->
       { Service.in_id = Printf.sprintf "p%03d" i; in_req = Ok req })
    reqs

(* a program the fixed verifier rejects: r0 never initialized *)
let rejected_req : Verifier.request =
  { Verifier.r_prog_type = Prog.Socket_filter; r_attach = None;
    r_offload = false; r_insns = Asm.prog [ [ Asm.exit_ ] ] }

(* -- cache semantics ------------------------------------------------------ *)

let test_hit_equals_cold_verify () =
  (* the cached verdict is byte-identical to a cold verification, log
     and counters included, and cold verification is itself a pure
     function of the request *)
  let session = Service.create_session config in
  let config_fp, maps_fp = Service.fingerprints session in
  let cache = Vcache.create ~cap:64 in
  List.iter
    (fun req ->
       let key = Vcache.key ~config_fp ~maps_fp req in
       let cold = Service.verify_request ~log_level:2 session req in
       Vcache.insert cache key cold;
       (match Vcache.find cache key with
        | None -> Alcotest.fail "inserted verdict not found"
        | Some hit ->
          Alcotest.(check string) "hit == cold" (render cold) (render hit);
          Alcotest.(check bool) "vstats survive the cache" true
            (cold.Vcache.cv_vstats = hit.Vcache.cv_vstats));
       (* a second cold verify, in a *fresh* session, is identical:
          verdicts never depend on session history *)
       let again =
         Service.verify_request ~log_level:2
           (Service.create_session config) req
       in
       Alcotest.(check string) "cold is pure" (render cold) (render again))
    (rejected_req :: corpus ~n:8 ())

let test_rejected_verdict_fields () =
  let session = Service.create_session config in
  let v = Service.verify_request ~log_level:1 session rejected_req in
  Alcotest.(check bool) "rejected" false v.Vcache.cv_accepted;
  Alcotest.(check bool) "has a reason" true (v.Vcache.cv_reason <> None);
  Alcotest.(check bool) "has an errno" true (v.Vcache.cv_errno <> "");
  Alcotest.(check bool) "has a message" true (v.Vcache.cv_msg <> "");
  Alcotest.(check bool) "has a log" true (v.Vcache.cv_vlog <> "")

let dummy (tag : int) : Vcache.verdict =
  { Vcache.cv_accepted = true; cv_insns = tag; cv_insn_processed = tag;
    cv_errno = ""; cv_reason = None; cv_pc = 0; cv_msg = "";
    cv_vlog = ""; cv_vstats = None }

let test_lru_eviction () =
  let c = Vcache.create ~cap:2 in
  Vcache.insert c "k1" (dummy 1);
  Vcache.insert c "k2" (dummy 2);
  (* touch k1 so k2 becomes the eviction victim *)
  Alcotest.(check bool) "k1 hits" true (Vcache.find c "k1" <> None);
  Vcache.insert c "k3" (dummy 3);
  Alcotest.(check int) "bounded" 2 (Vcache.length c);
  Alcotest.(check bool) "k2 evicted" true (Vcache.find c "k2" = None);
  Alcotest.(check bool) "k1 kept" true (Vcache.find c "k1" <> None);
  Alcotest.(check bool) "k3 kept" true (Vcache.find c "k3" <> None);
  let s = Vcache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Vcache.cs_evictions;
  (* replacing an existing key is a refresh, not an eviction *)
  Vcache.insert c "k3" (dummy 33);
  Alcotest.(check int) "still bounded" 2 (Vcache.length c);
  Alcotest.(check int) "no extra eviction" 1
    (Vcache.stats c).Vcache.cs_evictions;
  (match Vcache.find c "k3" with
   | Some v -> Alcotest.(check int) "refreshed" 33 v.Vcache.cv_insns
   | None -> Alcotest.fail "refreshed entry missing");
  Alcotest.(check bool) "cap 0 refused" true
    (match Vcache.create ~cap:0 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_disk_round_trip () =
  let path = tmp "bvf-test-vcache.bin" in
  let c = Vcache.create ~cap:8 in
  List.iter (fun i -> Vcache.insert c (string_of_int i) (dummy i))
    [ 1; 2; 3; 4 ];
  ignore (Vcache.find c "2" : Vcache.verdict option); (* 2 becomes MRU *)
  (match Vcache.save c ~path with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "save: %s" (Checkpoint.error_to_string e));
  (match Vcache.load ~path ~cap:8 with
   | Error e -> Alcotest.failf "load: %s" (Checkpoint.error_to_string e)
   | Ok c' ->
     Alcotest.(check (list string)) "entries and recency survive"
       (List.map fst (Vcache.entries c))
       (List.map fst (Vcache.entries c'));
     Alcotest.(check int) "counters reset" 0
       (Vcache.stats c').Vcache.cs_insertions);
  (* a smaller cap keeps only the most recently used entries *)
  (match Vcache.load ~path ~cap:2 with
   | Error e -> Alcotest.failf "load: %s" (Checkpoint.error_to_string e)
   | Ok c2 ->
     Alcotest.(check (list string)) "MRU entries survive a smaller cap"
       [ "2"; "4" ]
       (List.map fst (Vcache.entries c2)));
  Sys.remove path

let test_disk_damage_is_error () =
  let path = tmp "bvf-test-vcache-damage.bin" in
  let c = Vcache.create ~cap:4 in
  Vcache.insert c "k" (dummy 1);
  (match Vcache.save c ~path with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Checkpoint.error_to_string e));
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let write s = Out_channel.with_open_bin path
      (fun oc -> Out_channel.output_string oc s) in
  let expect_error what =
    match Vcache.load ~path ~cap:4 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s loaded as Ok" what
  in
  (* bit flip in the payload *)
  let flipped = Bytes.of_string bytes in
  let mid = Bytes.length flipped - 3 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xff));
  write (Bytes.to_string flipped);
  expect_error "bit-flipped cache";
  (* truncation *)
  write (String.sub bytes 0 (String.length bytes / 2));
  expect_error "truncated cache";
  (* foreign container: right magic, wrong tag *)
  (match Checkpoint.save ~path ~tag:"not-a-vcache/1" [ ("k", 1) ] with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Checkpoint.error_to_string e));
  (match Vcache.load ~path ~cap:4 with
   | Error (Checkpoint.Tag_mismatch _) -> ()
   | Error e ->
     Alcotest.failf "expected Tag_mismatch, got %s"
       (Checkpoint.error_to_string e)
   | Ok _ -> Alcotest.fail "foreign tag loaded as Ok");
  Sys.remove path;
  (* missing file *)
  expect_error "missing cache"

(* -- batch ---------------------------------------------------------------- *)

let batch_lines ?(jobs = 1) ?(cache = Vcache.create ~cap:4096)
    (inputs : Service.input list) : string list * Service.summary =
  let items, summary = Service.run_batch ~jobs ~cache config inputs in
  (List.map Service.item_to_json items, summary)

(* drop the one history-dependent field, as the CI gate does with sed *)
let strip_cache_field (line : string) : string =
  let marker = {|,"cache":"|} in
  let ml = String.length marker and n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
    let j = String.index_from line (i + ml) '"' in
    String.sub line 0 i ^ String.sub line (j + 1) (n - j - 1)

let test_batch_jobs_deterministic () =
  let inputs =
    inputs_of (corpus ~n:24 ())
    @ [ { Service.in_id = "rej"; in_req = Ok rejected_req };
        { Service.in_id = "bad"; in_req = Error "no parse" } ]
  in
  let lines1, s1 = batch_lines ~jobs:1 inputs in
  let lines4, s4 = batch_lines ~jobs:4 inputs in
  Alcotest.(check (list string)) "jobs 1 == jobs 4" lines1 lines4;
  Alcotest.(check int) "admitted agree" s1.Service.bs_admitted
    s4.Service.bs_admitted;
  Alcotest.(check int) "one rejection" 1 s1.Service.bs_rejected;
  Alcotest.(check int) "one invalid" 1 s1.Service.bs_invalid

let test_batch_warm_rerun_hits () =
  let inputs = inputs_of (corpus ~n:24 ()) in
  let cache = Vcache.create ~cap:4096 in
  let cold, sc = batch_lines ~jobs:2 ~cache inputs in
  let warm, sw = batch_lines ~jobs:2 ~cache inputs in
  Alcotest.(check int) "cold misses all" 24 sc.Service.bs_misses;
  Alcotest.(check int) "warm hits all" 24 sw.Service.bs_hits;
  Alcotest.(check int) "warm verifies nothing" 0 sw.Service.bs_misses;
  (* stripped of the one history-dependent field, warm == cold *)
  Alcotest.(check (list string)) "warm == cold up to the cache field"
    (List.map strip_cache_field cold)
    (List.map strip_cache_field warm)

let test_batch_cache_off_identity () =
  (* the cache changes nothing: a cached batch and an uncached batch
     produce the same verdict lines *)
  let inputs = inputs_of (rejected_req :: corpus ~n:12 ()) in
  let cache = Vcache.create ~cap:4096 in
  let with_cache, _ = batch_lines ~jobs:2 ~cache inputs in
  let _, _ = batch_lines ~jobs:2 ~cache inputs in
  let warm, _ = batch_lines ~jobs:2 ~cache inputs in
  let no_cache, _ =
    (* cap 1 with 13 distinct programs: every probe misses, the cache
       never answers *)
    batch_lines ~jobs:2 ~cache:(Vcache.create ~cap:1) inputs
  in
  Alcotest.(check (list string)) "cache on == cache off"
    (List.map strip_cache_field with_cache)
    (List.map strip_cache_field no_cache);
  Alcotest.(check (list string)) "warm == cache off"
    (List.map strip_cache_field warm)
    (List.map strip_cache_field no_cache)

let test_batch_telemetry_events () =
  let inputs = inputs_of (rejected_req :: corpus ~n:4 ()) in
  let path = tmp "bvf-test-service-trace.jsonl" in
  let sink = Telemetry.create path in
  let cache = Vcache.create ~cap:64 in
  let _ = Service.run_batch ~sink ~jobs:1 ~cache config inputs in
  let _ = Service.run_batch ~sink ~jobs:1 ~cache config inputs in
  Telemetry.close sink;
  let events = Telemetry.read_file path in
  let summary = Telemetry.summarize events in
  (match summary.Telemetry.su_service with
   | None -> Alcotest.fail "no service summary"
   | Some sv ->
     Alcotest.(check int) "requests" 10 sv.Telemetry.ssu_requests;
     Alcotest.(check int) "misses (cold pass)" 5 sv.Telemetry.ssu_misses;
     Alcotest.(check int) "hits (warm pass)" 5 sv.Telemetry.ssu_hits;
     Alcotest.(check int) "admitted" 8 sv.Telemetry.ssu_admitted;
     Alcotest.(check int) "rejected" 2 sv.Telemetry.ssu_rejected);
  Sys.remove path

(* -- JSONL codec ---------------------------------------------------------- *)

let test_request_round_trip () =
  List.iteri
    (fun i req ->
       let r = { Service.q_id = Printf.sprintf "req-%d" i; q_req = req } in
       let line = Service.request_to_json r in
       match Service.request_of_json line with
       | Error msg -> Alcotest.failf "round trip failed: %s" msg
       | Ok r' ->
         Alcotest.(check string) "id" r.Service.q_id r'.Service.q_id;
         Alcotest.(check bool) "request" true
           (r.Service.q_req = r'.Service.q_req))
    (corpus ~n:12 ())

let test_request_errors () =
  let err line =
    match Service.request_of_json line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "parsed: %s" line
  in
  Alcotest.(check string) "not json" "malformed JSON" (err "nope");
  Alcotest.(check string) "missing id" "missing id"
    (err {|{"prog_type":"xdp","prog":"9500000000000000"}|});
  Alcotest.(check bool) "bad hex names the request" true
    (err {|{"id":"r1","prog_type":"xdp","prog":"zz"}|} = "r1: prog is not hex");
  Alcotest.(check bool) "odd digits" true
    (err {|{"id":"r1","prog_type":"xdp","prog":"950"}|}
     = "r1: prog hex has an odd digit count");
  Alcotest.(check bool) "unknown prog_type" true
    (err {|{"id":"r1","prog_type":"nope","prog":"00"}|}
     = {|r1: unknown prog_type "nope"|});
  (* an input keeps its id even when the payload fails *)
  let input =
    Service.input_of_json ~fallback_id:"line9"
      {|{"id":"r7","prog_type":"xdp","prog":"zz"}|}
  in
  Alcotest.(check string) "error input id" "r7" input.Service.in_id;
  let input = Service.input_of_json ~fallback_id:"line9" "garbage" in
  Alcotest.(check string) "fallback id" "line9" input.Service.in_id

let test_service_events_round_trip () =
  List.iter
    (fun ev ->
       let line = Telemetry.to_json ev in
       match Telemetry.of_json line with
       | Some ev' ->
         Alcotest.(check string) "round trip" line (Telemetry.to_json ev')
       | None -> Alcotest.failf "unparsable: %s" line)
    [ Telemetry.Service_hit { seq = 0; key = "abc" };
      Telemetry.Service_miss { seq = 1; key = "def" };
      Telemetry.Service_admitted
        { seq = 2; key = "abc"; insns = 7; insn_processed = 9 };
      Telemetry.Service_rejected
        { seq = 3; key = "def"; reason = Reject_reason.Unknown } ]

let test_vlog_cap () =
  let long = String.make (Vcache.vlog_cap + 100) 'x' in
  let capped = Vcache.cap_vlog long in
  Alcotest.(check bool) "capped" true
    (String.length capped < String.length long);
  Alcotest.(check string) "short logs untouched" "short"
    (Vcache.cap_vlog "short")

(* -- decoder differential tests ---------------------------------------- *)

(* Reference copies of the decoders the request path used before it was
   made single-pass: the character-at-a-time string parser, the
   sub-and-int_of_string hex decoder and the byte-loop little-endian
   reads.  The current code must agree with them on every input,
   errors included. *)
module Reference = struct
  open Telemetry

  let parse_object (s : string) : (string * jvalue) list =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise Parse in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with
          | ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do advance () done
    in
    let expect c = if peek () <> c then raise Parse else advance () in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance (); Buffer.contents b
        | '\\' ->
          advance ();
          (match peek () with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
             if !pos + 4 >= n then raise Parse;
             let hex = String.sub s (!pos + 1) 4 in
             let code =
               try int_of_string ("0x" ^ hex) with _ -> raise Parse
             in
             pos := !pos + 4;
             (* schema only ever emits control chars this way *)
             if code < 0x100 then Buffer.add_char b (Char.chr code)
             else Buffer.add_char b '?'
           | _ -> raise Parse);
          advance (); go ()
        | c -> advance (); Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_scalar () =
      match peek () with
      | '"' -> Jstr (parse_string ())
      | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true"
        then (pos := !pos + 4; Jbool true) else raise Parse
      | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false"
        then (pos := !pos + 5; Jbool false) else raise Parse
      | 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null"
        then (pos := !pos + 4; Jnull) else raise Parse
      | '-' | '0' .. '9' ->
        let start = !pos in
        while !pos < n && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
        do advance () done;
        (try Jnum (float_of_string (String.sub s start (!pos - start)))
         with _ -> raise Parse)
      | _ -> raise Parse
    in
    skip_ws ();
    expect '{';
    skip_ws ();
    if peek () = '}' then (advance (); [])
    else begin
      let fields = ref [] in
      let rec member () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        fields := (key, parse_scalar ()) :: !fields;
        skip_ws ();
        match peek () with
        | ',' -> advance (); member ()
        | '}' -> advance ()
        | _ -> raise Parse
      in
      member ();
      skip_ws ();
      if !pos <> n then raise Parse;
      List.rev !fields
    end

  let bytes_of_hex (s : string) : (Bytes.t, string) result =
    let digits = Buffer.create (String.length s) in
    (try
       String.iter
         (fun c ->
            match c with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> Buffer.add_char digits c
            | ' ' | '\t' | '\n' | '\r' -> ()
            | _ -> raise Exit)
         s
     with Exit -> Buffer.clear digits; Buffer.add_char digits 'x');
    let h = Buffer.contents digits in
    let n = String.length h in
    if h = "x" then Error "prog is not hex"
    else if n mod 2 <> 0 then Error "prog hex has an odd digit count"
    else
      Ok
        (Bytes.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))

  let get_le (data : Bytes.t) (off : int) (sz : int) : int64 =
    let rec build i acc =
      if i >= sz then acc
      else
        build (i + 1)
          (Int64.logor acc
             (Int64.shift_left
                (Int64.of_int (Char.code (Bytes.get data (off + i))))
                (8 * i)))
    in
    build 0 0L

  let set_le (data : Bytes.t) (off : int) (sz : int) (v : int64) : unit =
    for i = 0 to sz - 1 do
      let byte =
        Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)
      in
      Bytes.set data (off + i) (Char.chr byte)
    done

  let raw_of_bytes (b : Bytes.t) (pos : int) : Encode.raw =
    let op = Char.code (Bytes.get b pos) in
    let regs = Char.code (Bytes.get b (pos + 1)) in
    let off = Int64.to_int (Word.sext16 (get_le b (pos + 2) 2)) in
    let imm = Int64.to_int32 (get_le b (pos + 4) 4) in
    { Encode.op; dst = regs land 0xf; src = (regs lsr 4) land 0xf; off; imm }
end

(* Outcome of a call, with any exception as its printed form, so a
   differential check compares errors as well as values. *)
let outcome f x = try Ok (f x) with e -> Error (Printexc.to_string e)

let print_str s = Printf.sprintf "%S" s

(* Text biased to what string decoding branches on: quotes, backslashes
   and every escape form (valid, truncated and bogus \u digits), JSON
   punctuation and literals, whitespace, raw control characters and hex
   digits. *)
let gen_piece : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [ (4, oneofl [ "\""; "\\"; "\\\""; "\\\\"; "\\n"; "\\t"; "\\r"; "\\/";
                   "\\b"; "\\f"; "\\x"; "\\ " ]);
      (3, oneofl [ "\\u0041"; "\\u00e9"; "\\u0001"; "\\u12ab"; "\\u12";
                   "\\u"; "\\uzz00"; "\\u1_2_"; "\\u+001"; "\\u-001" ]);
      (5, map (String.make 1)
         (oneofl [ '0'; '7'; '9'; 'a'; 'f'; 'A'; 'F'; 'g'; 'z'; 'x' ]));
      (3, oneofl [ " "; "\t"; "\n"; "\r" ]);
      (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 31));
      (2, oneofl [ "{"; "}"; ":"; ","; "["; "true"; "false"; "null";
                   "tru"; "fals"; "nul"; "-1.5e3"; "12"; "1e999"; "." ]);
      (1, map (String.make 1) char) ]

let gen_body : string QCheck2.Gen.t =
  QCheck2.Gen.(map (String.concat "") (list_size (int_range 0 8) gen_piece))

(* Mostly object-shaped lines, then truncated, mutated or raw. *)
let gen_json_line : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let ws = oneofl [ ""; ""; " "; "\t"; " \n " ] in
  let scalar =
    frequency
      [ (4, map (fun b -> "\"" ^ b ^ "\"") gen_body);
        (1, oneofl [ "true"; "false"; "null"; "-12"; "3.5e2"; "0" ]);
        (1, gen_piece) ]
  in
  let field =
    let* k = gen_body and* w1 = ws and* w2 = ws and* v = scalar in
    return ("\"" ^ k ^ "\"" ^ w1 ^ ":" ^ w2 ^ v)
  in
  let obj =
    let* fields = list_size (int_range 0 4) field
    and* w1 = ws and* w2 = ws in
    return (w1 ^ "{" ^ String.concat "," fields ^ "}" ^ w2)
  in
  frequency
    [ (4, obj);
      (2, (let* s = obj in
           let* cut = int_range 0 (String.length s) in
           return (String.sub s 0 cut)));
      (2, (let* s = obj and* p = gen_piece in
           if s = "" then return p
           else
             let* i = int_range 0 (String.length s - 1) in
             return
               (String.sub s 0 i ^ p
                ^ String.sub s (i + 1) (String.length s - i - 1))));
      (1, gen_body) ]

let parse_object_matches_reference =
  QCheck2.Test.make ~count:3000 ~name:"parse_object matches the reference"
    ~print:print_str gen_json_line
    (fun line ->
       outcome Telemetry.parse_object line
       = outcome Reference.parse_object line)

(* Hex text biased to digits of both cases and skipped whitespace, with
   occasional non-hex characters and odd digit counts. *)
let gen_hex_text : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let c =
    frequency
      [ (12, oneofl [ '0'; '1'; '5'; '9'; 'a'; 'c'; 'f'; 'A'; 'B'; 'F' ]);
        (3, oneofl [ ' '; '\t'; '\n'; '\r' ]);
        (1, oneofl [ 'g'; 'x'; '_'; '+'; '-'; '"'; '\\'; '\000'; '\255' ]);
        (1, char) ]
  in
  frequency
    [ (3, string_size ~gen:c (int_range 0 40));
      (1, string_size ~gen:(oneofl [ '0'; 'f'; 'A' ]) (int_range 0 40)) ]

let bytes_of_hex_matches_reference =
  QCheck2.Test.make ~count:3000 ~name:"bytes_of_hex matches the reference"
    ~print:print_str gen_hex_text
    (fun s ->
       outcome Service.bytes_of_hex s = outcome Reference.bytes_of_hex s)

let hex_round_trip =
  QCheck2.Test.make ~count:500 ~name:"bytes_of_hex inverts hex_of_bytes"
    ~print:print_str QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
       let h = Service.hex_of_bytes (Bytes.of_string s) in
       String.length h = 2 * String.length s
       && String.for_all (fun c -> String.contains "0123456789abcdef" c) h
       && Service.bytes_of_hex h = Ok (Bytes.of_string s))

(* A random 8-byte slot at a random position of a random buffer. *)
let gen_slot : (string * int) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* buf = string_size (int_range 8 32) in
  let* pos = int_range 0 (String.length buf - 8) in
  return (buf, pos)

let raw_of_bytes_matches_reference =
  QCheck2.Test.make ~count:2000 ~name:"raw_of_bytes matches the reference"
    ~print:(fun (s, p) -> Printf.sprintf "%S at %d" s p) gen_slot
    (fun (buf, pos) ->
       let b = Bytes.of_string buf in
       let r = Encode.raw_of_bytes b pos in
       r = Reference.raw_of_bytes b pos
       &&
       let out = Bytes.copy b in
       Encode.raw_to_bytes out pos r;
       (* every slot field is kept, so writing it back is the identity *)
       Bytes.equal out b)

let word_le_matches_reference =
  QCheck2.Test.make ~count:2000 ~name:"Word.get_le/set_le match the reference"
    QCheck2.Gen.(
      let* buf = string_size (int_range 8 16) in
      let* size = int_range 0 8 in
      let* off = int_range 0 (String.length buf - size) in
      let* v = int64 in
      return (buf, off, size, v))
    (fun (buf, off, size, v) ->
       let b = Bytes.of_string buf in
       Word.get_le b off size = Reference.get_le b off size
       &&
       let mine = Bytes.copy b and theirs = Bytes.copy b in
       Word.set_le mine off size v;
       Reference.set_le theirs off size v;
       Bytes.equal mine theirs)

let gen_config : Gen.config =
  { Gen.c_version = version;
    c_maps =
      List.mapi (fun i def -> (i + 3, def)) Service.standard_maps }

let decode_encode_round_trip =
  QCheck2.Test.make ~count:300 ~name:"decode (encode p) = p"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
       let req = Gen.generate (Rng.create seed) gen_config in
       let prog = req.Verifier.r_insns in
       match Encode.decode (Encode.encode prog) with
       | Ok prog' -> prog' = prog
       | Error e ->
         QCheck2.Test.fail_reportf "decode failed at %d: %s" e.Encode.pos
           e.Encode.reason)

(* -- adversarial request lines ----------------------------------------- *)

let corpus_lines : string array Lazy.t =
  lazy
    (Array.of_list
       (List.mapi
          (fun i req ->
             Service.request_to_json
               { Service.q_id = Printf.sprintf "c%02d" i; q_req = req })
          (corpus ~n:16 ())))

(* A real request line, truncated or with characters replaced, inserted
   or deleted. *)
let gen_mutated_line : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* k = int_range 0 15 in
  let line = (Lazy.force corpus_lines).(k) in
  let n = String.length line in
  let edit s =
    let n = String.length s in
    let* i = int_range 0 (max 0 (n - 1)) in
    let* p = gen_piece in
    let* how = int_range 0 2 in
    let i = min i n in
    return
      (match how with
       | 0 when n > 0 ->
         String.sub s 0 i ^ p ^ String.sub s (i + 1) (n - i - 1)
       | 1 -> String.sub s 0 i ^ p ^ String.sub s i (n - i)
       | _ when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
       | _ -> p)
  in
  frequency
    [ (2, map (fun cut -> String.sub line 0 cut) (int_range 0 n));
      (3, edit line);
      (2, edit line >>= edit >>= edit) ]

let input_of_json_never_raises =
  QCheck2.Test.make ~count:1000 ~name:"input_of_json never raises"
    ~print:print_str gen_mutated_line
    (fun line ->
       match Service.input_of_json ~fallback_id:"line1" line with
       | { Service.in_req = Error msg; _ } -> msg <> ""
       | { Service.in_id; in_req = Ok req } ->
         (* whatever survived the mutation is a well-formed request *)
         Service.request_of_json
           (Service.request_to_json { Service.q_id = in_id; q_req = req })
         = Ok { Service.q_id = in_id; q_req = req })

(* Feed lines to one serve loop and return its output lines. *)
let serve_lines (lines : string list) : string list * Service.serve_stats =
  let in_path = Filename.temp_file "bvf_serve" ".in" in
  let out_path = Filename.temp_file "bvf_serve" ".out" in
  Out_channel.with_open_bin in_path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
  let ic = open_in_bin in_path and oc = open_out_bin out_path in
  let stats =
    Service.serve ~cache:(Vcache.create ~cap:64)
      ~session:(Service.create_session config) ~stop:(fun () -> false) ic oc
  in
  close_in ic;
  close_out oc;
  let out = In_channel.with_open_bin out_path In_channel.input_all in
  Sys.remove in_path;
  Sys.remove out_path;
  (List.filter (( <> ) "") (String.split_on_char '\n' out), stats)

let serve_answers_every_line =
  QCheck2.Test.make ~count:40 ~name:"serve answers every mutated line"
    QCheck2.Gen.(list_size (int_range 1 12) gen_mutated_line)
    (fun lines ->
       (* a mutation can leave an embedded newline: count the physical
          non-blank lines serve will read *)
       let physical =
         List.concat_map (String.split_on_char '\n') lines
         |> List.filter (fun l -> String.trim l <> "")
       in
       let out, stats = serve_lines physical in
       List.length out = List.length physical
       && stats.Service.sv_requests + stats.Service.sv_invalid
          <= List.length physical
       && List.for_all
         (fun l ->
            match Telemetry.parse_object l with
            | fields ->
              (match List.assoc_opt "id" fields with
               | Some (Telemetry.Jstr _) -> true
               | _ -> false)
            | exception Telemetry.Parse -> false)
         out)

(* One serve run over metrics, malformed and program lines.  The
   expected lines are the serve loop's output from before requests were
   parsed once, with each metrics response cut after "verify_count" (the
   latency fields that follow are wall-clock observations). *)
let mixed_stream =
  [ {|{"id":"m0","metrics":true}|};
    {|{"id":"a1","prog_type":"socket_filter","prog":"b7000000000000009500000000000000"}|};
    {|{"id":"x","prog_type"|};
    {|{"id":"a2","prog_type":"socket_filter","prog":"B7000000 00000000 95000000 00000000"}|};
    {|{"metrics":true,"id":"m1"}|};
    {|{"id":"r1","prog_type":"socket_filter","prog":"9500000000000000"}|};
    {|{"id":"e\u0041\"q","prog_type":"xdp","prog":"95000000000000"}|};
    {|{"id":"bad","prog_type":"xdp","prog":"zz"}|};
    {|{"id":"odd","prog_type":"xdp","prog":"950"}|};
    {|{"id":"odd-bad","prog_type":"xdp","prog":"950g"}|};
    {|{"id":"nope","prog_type":"nope","prog":"00"}|};
    {|{"prog_type":"xdp","prog":"9500000000000000"}|};
    {|{"id":"m2","metrics":false,"prog_type":"socket_filter","prog":"9500000000000000"}|};
    {|   |};
    {|{"id":"n","prog_type":"xdp","prog":"9500000000000000","x":[1]}|};
    {|{"metrics":true}|};
    "{\"id\":\"t\195\169\\/\",\"metrics\":true}";
    "{\"id\":\"ctl\001\",\"prog_type\":\"xdp\",\"prog\":\"b7000000000000009500000000000000\",\"offload\":true}";
    {|{"id":"u","prog_type":"xdp","prog":"9500000000000000","attach":null}|};
    {|{"id":"tr\u00|};
    {|{"id":"v","prog_type":"kprobe","attach":"do_sys_open","prog":"b7000000000000009500000000000000"}|};
    {|{"id":"metrics-ish","metrics":"true"}|};
    {|{"id":"m3","metrics":true}|} ]

let mixed_expected =
  [ {|{"id":"m0","metrics":true,"requests":0,"invalid":0,"admitted":0,"rejected":0,"cache_hits":0,"cache_misses":0,"verify_count":0|};
    {|{"id":"a1","key":"6d97d09dbbd15105e0891b356a39dcd7","verdict":"accepted","insns":2,"insn_processed":2,"total_states":0,"peak_states":0,"cache":"miss"}|};
    {|{"id":"line3","verdict":"error","msg":"malformed JSON"}|};
    {|{"id":"a2","key":"6d97d09dbbd15105e0891b356a39dcd7","verdict":"accepted","insns":2,"insn_processed":2,"total_states":0,"peak_states":0,"cache":"hit"}|};
    {|{"id":"m1","metrics":true,"requests":2,"invalid":1,"admitted":2,"rejected":0,"cache_hits":1,"cache_misses":1,"verify_count":1|};
    {|{"id":"r1","key":"4a8ac3cb3a3897415609f940f472c442","verdict":"rejected","reason":"uninit_access","errno":"EACCES","pc":0,"msg":"R0 !read_ok at program exit","insn_processed":1,"cache":"miss"}|};
    {|{"id":"eA\"q","verdict":"error","msg":"bad program at slot 0: byte length 7 not a multiple of 8"}|};
    {|{"id":"bad","verdict":"error","msg":"prog is not hex"}|};
    {|{"id":"odd","verdict":"error","msg":"prog hex has an odd digit count"}|};
    {|{"id":"odd-bad","verdict":"error","msg":"prog is not hex"}|};
    {|{"id":"nope","verdict":"error","msg":"unknown prog_type \"nope\""}|};
    {|{"id":"line12","verdict":"error","msg":"missing id"}|};
    {|{"id":"m2","key":"4a8ac3cb3a3897415609f940f472c442","verdict":"rejected","reason":"uninit_access","errno":"EACCES","pc":0,"msg":"R0 !read_ok at program exit","insn_processed":1,"cache":"hit"}|};
    {|{"id":"line15","verdict":"error","msg":"malformed JSON"}|};
    {|{"id":"metrics","metrics":true,"requests":4,"invalid":8,"admitted":2,"rejected":2,"cache_hits":2,"cache_misses":2,"verify_count":2|};
    "{\"id\":\"t\195\169/\",\"metrics\":true,\"requests\":4,\"invalid\":8,\"admitted\":2,\"rejected\":2,\"cache_hits\":2,\"cache_misses\":2,\"verify_count\":2";
    {|{"id":"ctl\u0001","key":"732963ee1ebcaa1796755a1418a3db86","verdict":"accepted","insns":2,"insn_processed":2,"total_states":0,"peak_states":0,"cache":"miss"}|};
    {|{"id":"u","key":"272945cc5f2c469eca12d8e6bbb313f4","verdict":"rejected","reason":"uninit_access","errno":"EACCES","pc":0,"msg":"R0 !read_ok at program exit","insn_processed":1,"cache":"miss"}|};
    {|{"id":"line20","verdict":"error","msg":"malformed JSON"}|};
    {|{"id":"v","key":"813758ef917033f6954dcfc05376f5a7","verdict":"rejected","reason":"bad_attach","errno":"EINVAL","pc":0,"msg":"unknown attach point do_sys_open","insn_processed":0,"cache":"miss"}|};
    {|{"id":"metrics-ish","verdict":"error","msg":"missing prog_type"}|};
    {|{"id":"m3","metrics":true,"requests":7,"invalid":10,"admitted":3,"rejected":4,"cache_hits":2,"cache_misses":5,"verify_count":5|} ]

let cut_latencies (line : string) : string =
  let mark = {|,"verify_p50_s"|} in
  let n = String.length line and k = String.length mark in
  let rec find i =
    if i + k > n then line
    else if String.sub line i k = mark then String.sub line 0 i
    else find (i + 1)
  in
  find 0

let test_serve_mixed_stream () =
  let out, stats = serve_lines mixed_stream in
  Alcotest.(check (list string)) "responses" mixed_expected
    (List.map cut_latencies out);
  (* metrics lines touch no counter *)
  Alcotest.(check int) "requests" 7 stats.Service.sv_requests;
  Alcotest.(check int) "invalid" 10 stats.Service.sv_invalid

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "vcache",
        [
          Alcotest.test_case "hit equals cold verify" `Quick
            test_hit_equals_cold_verify;
          Alcotest.test_case "rejected verdict fields" `Quick
            test_rejected_verdict_fields;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "disk round trip" `Quick
            test_disk_round_trip;
          Alcotest.test_case "disk damage is an error" `Quick
            test_disk_damage_is_error;
          Alcotest.test_case "vlog cap" `Quick test_vlog_cap;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs 1 == jobs N" `Quick
            test_batch_jobs_deterministic;
          Alcotest.test_case "warm rerun hits" `Quick
            test_batch_warm_rerun_hits;
          Alcotest.test_case "cache on == cache off" `Quick
            test_batch_cache_off_identity;
          Alcotest.test_case "telemetry events" `Quick
            test_batch_telemetry_events;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round trip" `Quick
            test_request_round_trip;
          Alcotest.test_case "request errors" `Quick test_request_errors;
          Alcotest.test_case "service events round trip" `Quick
            test_service_events_round_trip;
          qt parse_object_matches_reference;
          qt bytes_of_hex_matches_reference;
          qt hex_round_trip;
          qt raw_of_bytes_matches_reference;
          qt word_le_matches_reference;
          qt decode_encode_round_trip;
        ] );
      ( "adversarial",
        [
          qt input_of_json_never_raises;
          qt serve_answers_every_line;
          Alcotest.test_case "serve mixed stream" `Quick
            test_serve_mixed_stream;
        ] );
    ]
