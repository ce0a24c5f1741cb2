open Cimport

(* Verification as a service (docs/SERVICE.md): JSONL in, verdicts out,
   a content-addressed Vcache in front of the deterministic verifier.

   Determinism discipline: everything emitted per program is a pure
   function of (request, config, maps) — the single exception is the
   trailing "cache":"hit"|"miss" field, which depends on cache history
   and is defined out of the byte-identity contract.  Wall times appear
   only in the batch summary. *)

module Vstats = Bvf_verifier.Vstats
module Mclock = Bvf_util.Mclock

type request = {
  q_id : string;
  q_req : Verifier.request;
}

type input = {
  in_id : string;
  in_req : (Verifier.request, string) result;
}

(* The Selftests session population, replicated so corpus exports
   verify identically under the service (array -> fd 3, hash -> fd 4;
   Kstate.next_fd starts at 3). *)
let standard_maps : Map.def list =
  [ Map.array_def ~value_size:48 ();
    Map.hash_def ~key_size:8 ~value_size:48 () ]

let create_session (config : Kconfig.t) : Loader.t =
  let session = Loader.create config in
  List.iter
    (fun def -> ignore (Loader.create_map session def : int))
    standard_maps;
  session

let fingerprints (session : Loader.t) : string * string =
  let kst = session.Loader.kst in
  let defs =
    List.map (fun (fd, m) -> (fd, m.Map.def)) kst.Kstate.maps
  in
  (Verifier.config_fingerprint kst.Kstate.config,
   Verifier.maps_fingerprint defs)

let verify_request ?(log_level = 0) (session : Loader.t)
    (req : Verifier.request) : Vcache.verdict =
  let verdict, vlog, vstats =
    Verifier.load_with_stats session.Loader.kst ~cov:session.Loader.cov
      ~log_level req
  in
  match verdict with
  | Ok l ->
    { Vcache.cv_accepted = true;
      cv_insns = Array.length l.Verifier.l_insns;
      cv_insn_processed = l.Verifier.l_insn_processed;
      cv_errno = ""; cv_reason = None; cv_pc = 0; cv_msg = "";
      cv_vlog = Vcache.cap_vlog vlog; cv_vstats = vstats }
  | Error e ->
    { Vcache.cv_accepted = false;
      cv_insns = Array.length req.Verifier.r_insns;
      cv_insn_processed =
        (match vstats with
         | Some s -> s.Vstats.vs_insn_processed
         | None -> 0);
      cv_errno = Venv.errno_to_string e.Venv.errno;
      cv_reason = Some e.Venv.vreason;
      cv_pc = e.Venv.vpc;
      cv_msg = e.Venv.vmsg;
      cv_vlog = Vcache.cap_vlog vlog; cv_vstats = vstats }

(* -- JSONL codec ----------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

let hex_of_bytes (b : Bytes.t) : string =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Bytes.get_uint8 b i in
    Bytes.set out (2 * i) hex_digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

(* Per input byte: its value for a hex digit, [hex_space] for the JSON
   whitespace the decoder skips, [hex_bad] for anything else. *)
let hex_space = 16
let hex_bad = 17

let hex_table : string =
  String.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
         | '0' .. '9' -> i - Char.code '0'
         | 'a' .. 'f' -> i - Char.code 'a' + 10
         | 'A' .. 'F' -> i - Char.code 'A' + 10
         | ' ' | '\t' | '\n' | '\r' -> hex_space
         | _ -> hex_bad))

(* One pass, digit pairs straight into the output; [hi] is the pending
   high nibble, -1 when none.  A non-hex character anywhere wins over
   an odd digit count.  The unsafe accesses are in range: [i < n], the
   table covers every byte, and [k] stays below the [n / 2] pairs that
   [n] characters can hold. *)
let bytes_of_hex (s : string) : (Bytes.t, string) result =
  let n = String.length s in
  let out = Bytes.create (n / 2) in
  let rec go i k hi =
    if i = n then
      if hi >= 0 then Error "prog hex has an odd digit count"
      else if k = Bytes.length out then Ok out
      else Ok (Bytes.sub out 0 k)
    else
      let v =
        Char.code
          (String.unsafe_get hex_table (Char.code (String.unsafe_get s i)))
      in
      if v < hex_space then
        if hi < 0 then go (i + 1) k v
        else begin
          Bytes.unsafe_set out k (Char.unsafe_chr ((hi lsl 4) lor v));
          go (i + 1) (k + 1) (-1)
        end
      else if v = hex_space then go (i + 1) k hi
      else Error "prog is not hex"
  in
  go 0 0 (-1)

let decode_prog (bytes : Bytes.t) :
  (Insn.t array, string) result =
  match Encode.decode bytes with
  | Ok insns -> Ok insns
  | Error { Encode.pos; reason } ->
    Error (Printf.sprintf "bad program at slot %d: %s" pos reason)

(* A request line's fields, or [None] when it is not a flat JSON
   object.  Every line is parsed exactly once: serve dispatches metrics
   and program requests from the same field list. *)
let parse_line (line : string) : (string * Telemetry.jvalue) list option =
  match Telemetry.parse_object (String.trim line) with
  | fields -> Some fields
  | exception Telemetry.Parse -> None

(* Fields -> request; on failure, recover the id when the line got far
   enough to carry one, so the error response still names the caller's
   request. *)
let request_of_fields (parsed : (string * Telemetry.jvalue) list option) :
  (request, string option * string) result =
  match parsed with
  | None -> Error (None, "malformed JSON")
  | Some fields ->
    let str k =
      match List.assoc_opt k fields with
      | Some (Telemetry.Jstr s) -> Some s
      | _ -> None
    in
    let bol k =
      match List.assoc_opt k fields with
      | Some (Telemetry.Jbool b) -> b
      | _ -> false
    in
    let id = str "id" in
    let ( let* ) = Result.bind in
    let req =
      let* pt =
        match str "prog_type" with
        | None -> Error "missing prog_type"
        | Some s ->
          (match Prog.prog_type_of_string s with
           | Some pt -> Ok pt
           | None -> Error (Printf.sprintf "unknown prog_type %S" s))
      in
      let* hex =
        match str "prog" with
        | Some h -> Ok h
        | None -> Error "missing prog"
      in
      let* bytes = bytes_of_hex hex in
      let* insns = decode_prog bytes in
      Ok
        { Verifier.r_prog_type = pt;
          r_attach = str "attach";
          r_offload = bol "offload";
          r_insns = insns }
    in
    match id, req with
    | Some q_id, Ok q_req -> Ok { q_id; q_req }
    | None, Ok _ -> Error (None, "missing id")
    | _, Error e -> Error (id, e)

let request_of_json (line : string) : (request, string) result =
  match request_of_fields (parse_line line) with
  | Ok r -> Ok r
  | Error (Some id, msg) -> Error (Printf.sprintf "%s: %s" id msg)
  | Error (None, msg) -> Error msg

let input_of_json ~(fallback_id : string) (line : string) : input =
  match request_of_fields (parse_line line) with
  | Ok r -> { in_id = r.q_id; in_req = Ok r.q_req }
  | Error (id, msg) ->
    { in_id = Option.value id ~default:fallback_id; in_req = Error msg }

let request_to_json (r : request) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"id\":\"";
  Telemetry.escape b r.q_id;
  Printf.bprintf b "\",\"prog_type\":\"%s\""
    (Prog.prog_type_to_string r.q_req.Verifier.r_prog_type);
  (match r.q_req.Verifier.r_attach with
   | None -> ()
   | Some a ->
     Buffer.add_string b ",\"attach\":\"";
     Telemetry.escape b a;
     Buffer.add_char b '"');
  if r.q_req.Verifier.r_offload then
    Buffer.add_string b ",\"offload\":true";
  Printf.bprintf b ",\"prog\":\"%s\"}"
    (hex_of_bytes (Encode.encode r.q_req.Verifier.r_insns));
  Buffer.contents b

let response_to_json ~(id : string) ~(key : string) ?hit
    (v : Vcache.verdict) : string =
  let b = Buffer.create 160 in
  let str k s =
    Printf.bprintf b ",\"%s\":\"" k;
    Telemetry.escape b s;
    Buffer.add_char b '"'
  in
  Buffer.add_string b "{\"id\":\"";
  Telemetry.escape b id;
  Printf.bprintf b "\",\"key\":\"%s\"" key;
  if v.Vcache.cv_accepted then begin
    Buffer.add_string b ",\"verdict\":\"accepted\"";
    Printf.bprintf b ",\"insns\":%d,\"insn_processed\":%d"
      v.Vcache.cv_insns v.Vcache.cv_insn_processed;
    match v.Vcache.cv_vstats with
    | Some s ->
      Printf.bprintf b ",\"total_states\":%d,\"peak_states\":%d"
        s.Vstats.vs_total_states s.Vstats.vs_peak_states
    | None -> ()
  end
  else begin
    Buffer.add_string b ",\"verdict\":\"rejected\"";
    str "reason"
      (match v.Vcache.cv_reason with
       | Some r -> Reject_reason.to_string r
       | None -> Reject_reason.to_string Reject_reason.Unknown);
    str "errno" v.Vcache.cv_errno;
    Printf.bprintf b ",\"pc\":%d" v.Vcache.cv_pc;
    str "msg" v.Vcache.cv_msg;
    Printf.bprintf b ",\"insn_processed\":%d" v.Vcache.cv_insn_processed
  end;
  if v.Vcache.cv_vlog <> "" then str "vlog" v.Vcache.cv_vlog;
  (* the one history-dependent field, kept last so the determinism
     gates can strip it textually *)
  (match hit with
   | Some h -> Printf.bprintf b ",\"cache\":\"%s\"" (if h then "hit" else "miss")
   | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let error_to_json ~(id : string) (msg : string) : string =
  let b = Buffer.create 64 in
  Buffer.add_string b "{\"id\":\"";
  Telemetry.escape b id;
  Buffer.add_string b "\",\"verdict\":\"error\",\"msg\":\"";
  Telemetry.escape b msg;
  Buffer.add_string b "\"}";
  Buffer.contents b

(* -- Input sources --------------------------------------------------- *)

let read_jsonl (path : string) : input list =
  let ic = open_in path in
  let inputs = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         inputs :=
           input_of_json ~fallback_id:(Printf.sprintf "line%d" !lineno)
             line
           :: !inputs
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !inputs

(* NAME.<prog_type>.bin selects the program type; everything else is a
   socket filter, the least-privileged default. *)
let prog_type_of_filename (name : string) : Prog.prog_type =
  match String.split_on_char '.' name with
  | _ :: _ :: _ :: _ as parts ->
    let infix = List.nth parts (List.length parts - 2) in
    Option.value (Prog.prog_type_of_string infix)
      ~default:Prog.Socket_filter
  | _ -> Prog.Socket_filter

let read_file_bytes (path : string) : Bytes.t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let read_dir (dir : string) : input list =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.to_list entries
  |> List.filter_map (fun name ->
      let wire =
        if Filename.check_suffix name ".bin" then
          Some (Ok (read_file_bytes (Filename.concat dir name)))
        else if Filename.check_suffix name ".hex" then
          Some
            (bytes_of_hex
               (Bytes.to_string
                  (read_file_bytes (Filename.concat dir name))))
        else None
      in
      match wire with
      | None -> None
      | Some (Error msg) -> Some { in_id = name; in_req = Error msg }
      | Some (Ok bytes) ->
        let req =
          match decode_prog bytes with
          | Error msg -> Error msg
          | Ok insns ->
            Ok
              { Verifier.r_prog_type = prog_type_of_filename name;
                r_attach = None; r_offload = false; r_insns = insns }
        in
        Some { in_id = name; in_req = req })

(* -- Batch ----------------------------------------------------------- *)

type outcome =
  | Verdict of { o_key : string; o_hit : bool; o_verdict : Vcache.verdict }
  | Invalid of string

type item = { it_id : string; it_outcome : outcome }

let item_to_json (it : item) : string =
  match it.it_outcome with
  | Verdict { o_key; o_hit; o_verdict } ->
    response_to_json ~id:it.it_id ~key:o_key ~hit:o_hit o_verdict
  | Invalid msg -> error_to_json ~id:it.it_id msg

type summary = {
  bs_programs : int;
  bs_admitted : int;
  bs_rejected : int;
  bs_invalid : int;
  bs_hits : int;
  bs_misses : int;
  bs_verify_p50_s : float;
  bs_verify_p95_s : float;
  bs_wall_s : float;
}

let summary_to_json (s : summary) : string =
  Printf.sprintf
    "{\"programs\":%d,\"admitted\":%d,\"rejected\":%d,\"invalid\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"verify_p50_s\":%.6f,\"verify_p95_s\":%.6f,\"wall_s\":%.6f}"
    s.bs_programs s.bs_admitted s.bs_rejected s.bs_invalid s.bs_hits
    s.bs_misses s.bs_verify_p50_s s.bs_verify_p95_s s.bs_wall_s

let emit_events (sink : Telemetry.sink) ~(seq : int) ~(key : string)
    ~(hit : bool) (v : Vcache.verdict) : unit =
  Telemetry.emit sink
    (if hit then Telemetry.Service_hit { seq; key }
     else Telemetry.Service_miss { seq; key });
  if v.Vcache.cv_accepted then
    Telemetry.emit sink
      (Telemetry.Service_admitted
         { seq; key; insns = v.Vcache.cv_insns;
           insn_processed = v.Vcache.cv_insn_processed })
  else
    Telemetry.emit sink
      (Telemetry.Service_rejected
         { seq; key;
           reason =
             Option.value v.Vcache.cv_reason
               ~default:Reject_reason.Unknown })

let run_batch ?(log_level = 0) ?(sink = Telemetry.null)
    ?(prof = Bvf_util.Prof.null) ~(jobs : int) ~(cache : Vcache.t)
    (config : Kconfig.t) (inputs : input list) : item list * summary =
  if jobs < 1 then invalid_arg "Service.run_batch: jobs must be >= 1";
  (* coordinator track = jobs, one verifier track per worker domain —
     the same layout as Parallel.run's shard/coordinator split *)
  let main_prof = Bvf_util.Prof.track prof ~name:"batch" jobs in
  let t0 = Mclock.now_s () in
  let session0 = create_session config in
  let config_fp, maps_fp = fingerprints session0 in
  let items = Array.of_list inputs in
  let n = Array.length items in
  let keys = Array.make n "" in
  let cached = Array.make n None in
  let miss_list = ref [] in
  (* probe pass: cache traffic stays in the calling domain *)
  Bvf_util.Prof.span main_prof "probe" (fun () ->
      Array.iteri
        (fun i input ->
           match input.in_req with
           | Error _ -> ()
           | Ok req ->
             let k = Vcache.key ~config_fp ~maps_fp req in
             keys.(i) <- k;
             (match Vcache.find cache k with
              | Some v -> cached.(i) <- Some v
              | None -> miss_list := (i, req) :: !miss_list))
        items);
  let misses = Array.of_list (List.rev !miss_list) in
  let m = Array.length misses in
  let verdicts = Array.make m None in
  let durations = Array.make m 0.0 in
  (* verify pass: round-robin striding gives each domain disjoint
     slots, and each domain verifies in its own fresh session *)
  let worker (wprof : Bvf_util.Prof.t) (session : Loader.t)
      (first : int) (step : int) : unit =
    let j = ref first in
    while !j < m do
      let _, req = misses.(!j) in
      let fr = Bvf_util.Prof.start wprof "verify" in
      verdicts.(!j) <- Some (verify_request ~log_level session req);
      let dur, _ = Bvf_util.Prof.stop wprof fr in
      durations.(!j) <- dur;
      j := !j + step
    done
  in
  let jobs = max 1 (min jobs m) in
  let wprof =
    Array.init jobs (fun d ->
        Bvf_util.Prof.track prof ~name:(Printf.sprintf "verifier%d" d) d)
  in
  if jobs <= 1 then worker wprof.(0) session0 0 1
  else
    List.init jobs (fun d ->
        Domain.spawn (fun () ->
            worker wprof.(d) (create_session config) d jobs))
    |> List.iter Domain.join;
  (* fill pass: insert in input order, back in the calling domain *)
  let fr_join = Bvf_util.Prof.start main_prof "join" in
  let hits = ref 0 in
  Array.iteri
    (fun j (slot, _) ->
       let v = Option.get verdicts.(j) in
       Vcache.insert cache keys.(slot) v;
       cached.(slot) <- Some v)
    misses;
  let miss_slots =
    Array.fold_left (fun acc (slot, _) -> slot :: acc) [] misses
  in
  let is_miss = Array.make n false in
  List.iter (fun slot -> is_miss.(slot) <- true) miss_slots;
  let admitted = ref 0 and rejected = ref 0 and invalid = ref 0 in
  let seq = ref 0 in
  let out =
    Array.to_list
      (Array.mapi
         (fun i input ->
            match input.in_req with
            | Error msg ->
              incr invalid;
              { it_id = input.in_id; it_outcome = Invalid msg }
            | Ok _ ->
              let v = Option.get cached.(i) in
              let hit = not is_miss.(i) in
              if hit then incr hits;
              if v.Vcache.cv_accepted then incr admitted
              else incr rejected;
              emit_events sink ~seq:!seq ~key:keys.(i) ~hit v;
              incr seq;
              { it_id = input.in_id;
                it_outcome =
                  Verdict { o_key = keys.(i); o_hit = hit; o_verdict = v }
              })
         items)
  in
  let sorted = Array.copy durations in
  Array.sort compare sorted;
  let summary =
    { bs_programs = n;
      bs_admitted = !admitted;
      bs_rejected = !rejected;
      bs_invalid = !invalid;
      bs_hits = !hits;
      bs_misses = m;
      bs_verify_p50_s = Bvf_util.Percentile.of_sorted sorted 50;
      bs_verify_p95_s = Bvf_util.Percentile.of_sorted sorted 95;
      bs_wall_s = Mclock.elapsed_s ~since:t0 }
  in
  ignore (Bvf_util.Prof.stop main_prof fr_join);
  (out, summary)

(* -- Serve ----------------------------------------------------------- *)

type serve_stats = {
  sv_requests : int;
  sv_invalid : int;
  sv_admitted : int;
  sv_rejected : int;
  sv_hits : int;
  sv_misses : int;
}

let metrics_to_json ~(id : string) ~(requests : int) ~(invalid : int)
    ~(admitted : int) ~(rejected : int) ~(hits : int) ~(misses : int)
    ~(verify_s : float list) ~(le_100us : int) ~(le_1ms : int)
    ~(le_10ms : int) ~(gt_10ms : int) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"id\":\"";
  Telemetry.escape b id;
  Printf.bprintf b
    "\",\"metrics\":true,\"requests\":%d,\"invalid\":%d,\"admitted\":%d,\"rejected\":%d,\"cache_hits\":%d,\"cache_misses\":%d"
    requests invalid admitted rejected hits misses;
  Printf.bprintf b
    ",\"verify_count\":%d,\"verify_p50_s\":%.6f,\"verify_p95_s\":%.6f"
    (List.length verify_s)
    (Bvf_util.Percentile.of_samples verify_s 50)
    (Bvf_util.Percentile.of_samples verify_s 95);
  Printf.bprintf b
    ",\"verify_le_100us\":%d,\"verify_le_1ms\":%d,\"verify_le_10ms\":%d,\"verify_gt_10ms\":%d}"
    le_100us le_1ms le_10ms gt_10ms;
  Buffer.contents b

let serve ?(log_level = 0) ?(sink = Telemetry.null)
    ?(prof = Bvf_util.Prof.disabled) ~(cache : Vcache.t)
    ~(session : Loader.t) ~(stop : unit -> bool) (ic : in_channel)
    (oc : out_channel) : serve_stats =
  let config_fp, maps_fp = fingerprints session in
  let requests = ref 0 and invalid = ref 0 in
  let admitted = ref 0 and rejected = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  (* cold verification latencies (newest first) and their histogram:
     the payload of the metrics response.  Observations only — they
     never reach the telemetry sink or the response byte-identity
     contract. *)
  let verify_s = ref [] in
  let le_100us = ref 0 and le_1ms = ref 0 in
  let le_10ms = ref 0 and gt_10ms = ref 0 in
  let lineno = ref 0 in
  let respond (line : string) : unit =
    let parsed = parse_line line in
    (* A metrics request is any object with "metrics":true — it never
       parses as a program request (those require prog_type and prog),
       so the two request shapes cannot collide. *)
    match parsed with
    | Some fields
      when List.assoc_opt "metrics" fields = Some (Telemetry.Jbool true) ->
      let id =
        match List.assoc_opt "id" fields with
        | Some (Telemetry.Jstr s) -> s
        | _ -> "metrics"
      in
      output_string oc
        (metrics_to_json ~id ~requests:!requests ~invalid:!invalid
           ~admitted:!admitted ~rejected:!rejected ~hits:!hits
           ~misses:!misses ~verify_s:!verify_s ~le_100us:!le_100us
           ~le_1ms:!le_1ms ~le_10ms:!le_10ms ~gt_10ms:!gt_10ms);
      output_char oc '\n'
    | _ ->
      match request_of_fields parsed with
      | Error (id, msg) ->
        incr invalid;
        let id =
          match id with
          | Some id -> id
          | None -> Printf.sprintf "line%d" !lineno
        in
        output_string oc (error_to_json ~id msg);
        output_char oc '\n'
      | Ok { q_id; q_req } ->
        let key, found =
          Bvf_util.Prof.span prof "probe" (fun () ->
              let k = Vcache.key ~config_fp ~maps_fp q_req in
              (k, Vcache.find cache k))
        in
        let v, hit =
          match found with
          | Some v -> incr hits; (v, true)
          | None ->
            incr misses;
            let fr = Bvf_util.Prof.start prof "verify" in
            let v = verify_request ~log_level session q_req in
            let dur, _ = Bvf_util.Prof.stop prof fr in
            verify_s := dur :: !verify_s;
            if dur <= 1e-4 then incr le_100us
            else if dur <= 1e-3 then incr le_1ms
            else if dur <= 1e-2 then incr le_10ms
            else incr gt_10ms;
            Vcache.insert cache key v;
            (v, false)
        in
        if v.Vcache.cv_accepted then incr admitted else incr rejected;
        emit_events sink ~seq:!requests ~key ~hit v;
        incr requests;
        output_string oc (response_to_json ~id:q_id ~key ~hit v);
        output_char oc '\n'
  in
  (try
     while not (stop ()) do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         respond line;
         Stdlib.flush oc;
         Telemetry.flush sink
       end
     done
   with
   | End_of_file -> ()
   | Sys_error _ -> ()  (* interrupted read during a drain *));
  Stdlib.flush oc;
  { sv_requests = !requests; sv_invalid = !invalid;
    sv_admitted = !admitted; sv_rejected = !rejected;
    sv_hits = !hits; sv_misses = !misses }
