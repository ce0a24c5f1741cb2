(* Campaign telemetry: JSONL event stream + the bvf stats aggregation.

   The encoder and parser are hand-rolled: the schema is flat (string /
   int / float / bool fields, one object per line), and the repository
   deliberately has no JSON dependency.  The parser accepts any
   whitespace and field order, so traces survive hand-editing and
   foreign tooling; lines it cannot parse are skipped, not fatal.

   Determinism contract (tested by test_telemetry): events carry no
   wall-clock times, so same-seed traces are byte-identical from the
   first line to the last.  Phase times and allocation live in the span
   profiler ({!Bvf_util.Prof}); a ["profile"] line left by older
   versions is an unknown tag and skipped like any other. *)

module Reject_reason = Bvf_verifier.Reject_reason

type event =
  | Generated of { iter : int; prog_type : string; insns : int }
  | Accepted of {
      iter : int;
      prog_type : string;
      insns : int;
      insn_processed : int;
    }
  | Rejected of {
      iter : int;
      prog_type : string;
      reason : Reject_reason.t;
      errno : string;
      pc : int;
      msg : string;
    }
  | Finding of {
      iter : int;
      fingerprint : string;
      bug : string option;
      correctness : bool;
    }
  | Vstats of {
      iter : int;
      insn_processed : int;
      total_states : int;
      peak_states : int;
      max_states_per_insn : int;
      prune_hits : int;
      prune_misses : int;
      loops_detected : int;
      branch_hwm : int;
      widen_rounds : int;
      loop_heads : int;
    }
  | Checkpoint of { iter : int }
  | Quarantined of { iter : int }
  | Shard_merge of { shards : int; events : int }
  (* service (bvf batch / bvf serve) admission events: one cache event
     and one verdict event per request, keyed by the request's verdict
     cache key.  Deterministic except for the hit/miss split, which
     depends on what the cache has seen — which is why batch results
     carry the verdicts, and only traces carry the cache traffic. *)
  | Service_hit of { seq : int; key : string }
  | Service_miss of { seq : int; key : string }
  | Service_admitted of {
      seq : int;
      key : string;
      insns : int;
      insn_processed : int;
    }
  | Service_rejected of {
      seq : int;
      key : string;
      reason : Bvf_verifier.Reject_reason.t;
    }

let iter_of = function
  | Generated { iter; _ } | Accepted { iter; _ } | Rejected { iter; _ }
  | Finding { iter; _ } | Vstats { iter; _ } | Checkpoint { iter }
  | Quarantined { iter } ->
    Some iter
  | Service_hit { seq; _ } | Service_miss { seq; _ }
  | Service_admitted { seq; _ } | Service_rejected { seq; _ } ->
    Some seq
  | Shard_merge _ -> None

(* -- JSON encoding -------------------------------------------------- *)

let escape (b : Buffer.t) (s : string) : unit =
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | '\r' -> Buffer.add_string b "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s

(* Floats as %.6f: sub-microsecond precision is noise for phase timers,
   and the fixed format round-trips through the parser losslessly
   enough for aggregation. *)
let to_json (ev : event) : string =
  let b = Buffer.create 96 in
  let str k v =
    Printf.bprintf b ",\"%s\":\"" k; escape b v; Buffer.add_char b '"'
  in
  let int k v = Printf.bprintf b ",\"%s\":%d" k v in
  let bol k v = Printf.bprintf b ",\"%s\":%b" k v in
  let tag name = Printf.bprintf b "{\"ev\":\"%s\"" name in
  (match ev with
   | Generated { iter; prog_type; insns } ->
     tag "generated"; int "iter" iter; str "prog_type" prog_type;
     int "insns" insns
   | Accepted { iter; prog_type; insns; insn_processed } ->
     tag "accepted"; int "iter" iter; str "prog_type" prog_type;
     int "insns" insns; int "insn_processed" insn_processed
   | Rejected { iter; prog_type; reason; errno; pc; msg } ->
     tag "rejected"; int "iter" iter; str "prog_type" prog_type;
     str "reason" (Reject_reason.to_string reason); str "errno" errno;
     int "pc" pc; str "msg" msg
   | Finding { iter; fingerprint; bug; correctness } ->
     tag "finding"; int "iter" iter; str "fingerprint" fingerprint;
     (match bug with Some bug -> str "bug" bug | None -> ());
     bol "correctness" correctness
   | Vstats { iter; insn_processed; total_states; peak_states;
              max_states_per_insn; prune_hits; prune_misses;
              loops_detected; branch_hwm; widen_rounds; loop_heads } ->
     tag "vstats"; int "iter" iter; int "insn_processed" insn_processed;
     int "total_states" total_states; int "peak_states" peak_states;
     int "max_states_per_insn" max_states_per_insn;
     int "prune_hits" prune_hits; int "prune_misses" prune_misses;
     int "loops_detected" loops_detected; int "branch_hwm" branch_hwm;
     int "widen_rounds" widen_rounds; int "loop_heads" loop_heads
   | Checkpoint { iter } -> tag "checkpoint"; int "iter" iter
   | Quarantined { iter } -> tag "quarantined"; int "iter" iter
   | Service_hit { seq; key } ->
     tag "cache_hit"; int "seq" seq; str "key" key
   | Service_miss { seq; key } ->
     tag "cache_miss"; int "seq" seq; str "key" key
   | Service_admitted { seq; key; insns; insn_processed } ->
     tag "service_admitted"; int "seq" seq; str "key" key;
     int "insns" insns; int "insn_processed" insn_processed
   | Service_rejected { seq; key; reason } ->
     tag "service_rejected"; int "seq" seq; str "key" key;
     str "reason" (Reject_reason.to_string reason)
   | Shard_merge { shards; events } ->
     tag "shard_merge"; int "shards" shards; int "events" events);
  Buffer.add_char b '}';
  Buffer.contents b

(* -- JSON parsing --------------------------------------------------- *)

(* A flat-object parser: strings, numbers, booleans and null.  Nested
   containers are not part of the schema and are rejected. *)
type jvalue = Jstr of string | Jnum of float | Jbool of bool | Jnull

exception Parse

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
  (* the first quote or backslash at or after [i], else [n] *)
  let rec scan_plain i =
    if i < n && (match String.unsafe_get s i with
        | '"' | '\\' -> false | _ -> true)
    then scan_plain (i + 1)
    else i
  in
  let parse_string () =
    expect '"';
    (* an escape-free string is one String.sub of the span up to its
       closing quote; only a backslash switches to decoding character
       by character, from the backslash on *)
    let start = !pos in
    pos := scan_plain start;
    if !pos < n && s.[!pos] = '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let b = Buffer.create (!pos - start + 16) in
      Buffer.add_substring b s start (!pos - start);
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
    end
  in
  (* a bare literal, compared in place *)
  let literal (word : string) (v : jvalue) : jvalue =
    let k = String.length word in
    if !pos + k > n then raise Parse;
    for i = 0 to k - 1 do
      if s.[!pos + i] <> word.[i] then raise Parse
    done;
    pos := !pos + k;
    v
  in
  let parse_scalar () =
    match peek () with
    | '"' -> Jstr (parse_string ())
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | 'n' -> literal "null" Jnull
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

let of_json (line : string) : event option =
  match
    let fields = parse_object (String.trim line) in
    let str k =
      match List.assoc_opt k fields with
      | Some (Jstr s) -> s
      | _ -> raise Parse
    in
    let str_opt k =
      match List.assoc_opt k fields with
      | Some (Jstr s) -> Some s
      | _ -> None
    in
    let int k =
      match List.assoc_opt k fields with
      | Some (Jnum f) -> int_of_float f
      | _ -> raise Parse
    in
    let bol k =
      match List.assoc_opt k fields with
      | Some (Jbool b) -> b
      | _ -> raise Parse
    in
    match str "ev" with
    | "generated" ->
      Some (Generated { iter = int "iter"; prog_type = str "prog_type";
                        insns = int "insns" })
    | "accepted" ->
      Some (Accepted { iter = int "iter"; prog_type = str "prog_type";
                       insns = int "insns";
                       insn_processed = int "insn_processed" })
    | "rejected" ->
      let reason =
        match Reject_reason.of_string (str "reason") with
        | Some r -> r
        | None -> Reject_reason.Unknown
      in
      Some (Rejected { iter = int "iter"; prog_type = str "prog_type";
                       reason; errno = str "errno"; pc = int "pc";
                       msg = str "msg" })
    | "finding" ->
      Some (Finding { iter = int "iter"; fingerprint = str "fingerprint";
                      bug = str_opt "bug";
                      correctness = bol "correctness" })
    | "vstats" ->
      (* the widening counters postdate the vstats schema: traces
         written before them parse with the counters at zero *)
      let int0 k =
        match List.assoc_opt k fields with
        | Some (Jnum f) -> int_of_float f
        | _ -> 0
      in
      Some (Vstats { iter = int "iter";
                     insn_processed = int "insn_processed";
                     total_states = int "total_states";
                     peak_states = int "peak_states";
                     max_states_per_insn = int "max_states_per_insn";
                     prune_hits = int "prune_hits";
                     prune_misses = int "prune_misses";
                     loops_detected = int "loops_detected";
                     branch_hwm = int "branch_hwm";
                     widen_rounds = int0 "widen_rounds";
                     loop_heads = int0 "loop_heads" })
    | "checkpoint" -> Some (Checkpoint { iter = int "iter" })
    | "quarantined" -> Some (Quarantined { iter = int "iter" })
    | "cache_hit" ->
      Some (Service_hit { seq = int "seq"; key = str "key" })
    | "cache_miss" ->
      Some (Service_miss { seq = int "seq"; key = str "key" })
    | "service_admitted" ->
      Some (Service_admitted { seq = int "seq"; key = str "key";
                               insns = int "insns";
                               insn_processed = int "insn_processed" })
    | "service_rejected" ->
      let reason =
        match Reject_reason.of_string (str "reason") with
        | Some r -> r
        | None -> Reject_reason.Unknown
      in
      Some (Service_rejected { seq = int "seq"; key = str "key"; reason })
    | "shard_merge" ->
      Some (Shard_merge { shards = int "shards"; events = int "events" })
    | _ -> None
  with
  | ev -> ev
  | exception Parse -> None

(* -- Sinks ---------------------------------------------------------- *)

type sink = {
  oc : out_channel option;
  iter_map : int -> int;
  mutable closed : bool;
}

let null = { oc = None; iter_map = (fun i -> i); closed = false }

let create ?(iter_map = fun i -> i) (path : string) : sink =
  { oc = Some (open_out path); iter_map; closed = false }

let map_iter (f : int -> int) (ev : event) : event =
  match ev with
  | Generated e -> Generated { e with iter = f e.iter }
  | Accepted e -> Accepted { e with iter = f e.iter }
  | Rejected e -> Rejected { e with iter = f e.iter }
  | Finding e -> Finding { e with iter = f e.iter }
  | Vstats e -> Vstats { e with iter = f e.iter }
  | Checkpoint { iter } -> Checkpoint { iter = f iter }
  | Quarantined { iter } -> Quarantined { iter = f iter }
  (* service traces are never sharded: the sequence number is already
     global *)
  | Service_hit _ | Service_miss _ | Service_admitted _
  | Service_rejected _
  | Shard_merge _ -> ev

let emit (t : sink) (ev : event) : unit =
  match t.oc with
  | None -> ()
  | Some oc ->
    if not t.closed then begin
      output_string oc (to_json (map_iter t.iter_map ev));
      output_char oc '\n'
    end

let flush (t : sink) : unit =
  match t.oc with
  | Some oc when not t.closed -> Stdlib.flush oc
  | Some _ | None -> ()

let pos (t : sink) : int =
  match t.oc with
  | Some oc when not t.closed -> Stdlib.flush oc; pos_out oc
  | Some _ | None -> 0

(* Reopen an existing trace for appending from [pos], discarding
   whatever a crashed writer managed to append past it.  Restarted
   supervisor workers use this: the worker checkpoint records the trace
   offset at the barrier, so replayed iterations never appear twice. *)
let reopen ?(iter_map = fun i -> i) (path : string) ~(pos : int) : sink =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  Unix.ftruncate fd pos;
  ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
  { oc = Some (Unix.out_channel_of_descr fd); iter_map; closed = false }

let close (t : sink) : unit =
  match t.oc with
  | None -> ()
  | Some oc ->
    if not t.closed then begin
      t.closed <- true;
      close_out oc
    end

let read_file (path : string) : event list =
  let ic = open_in path in
  let events = ref [] in
  (try
     while true do
       match of_json (input_line ic) with
       | Some ev -> events := ev :: !events
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !events

(* Merge per-shard traces into one global trace.  Events already carry
   global iteration numbers (the shard sinks' [iter_map]), so a stable
   sort by iteration reconstructs the sequential order; records without
   an iteration sink to the end. *)
let merge_shards ~(into : string) (shard_paths : string list) : int =
  let events =
    List.concat_map
      (fun p -> if Sys.file_exists p then read_file p else [])
      shard_paths
  in
  let events =
    List.stable_sort
      (fun a b ->
         compare
           (Option.value (iter_of a) ~default:max_int)
           (Option.value (iter_of b) ~default:max_int))
      events
  in
  let sink = create into in
  List.iter (emit sink) events;
  emit sink
    (Shard_merge
       { shards = List.length shard_paths; events = List.length events });
  close sink;
  List.length events

(* -- Aggregation ---------------------------------------------------- *)

(* Distribution of one deterministic counter over the trace's vstats
   events: total plus the p50/p95 order statistics (nearest-rank on the
   sorted samples, index (p * (n-1)) / 100). *)
type dist = { d_total : int; d_p50 : int; d_p95 : int }

type vstats_summary = {
  vsu_count : int;            (* vstats events seen *)
  vsu_insn_processed : dist;
  vsu_peak_states : dist;
  vsu_widen_rounds : dist;
  vsu_loop_heads : int;       (* loop heads across all analyses *)
}

type service_summary = {
  ssu_requests : int;   (* verdict events: admitted + rejected *)
  ssu_hits : int;
  ssu_misses : int;
  ssu_admitted : int;
  ssu_rejected : int;
}

type summary = {
  su_events : int;
  su_generated : int;
  su_accepted : int;
  su_rejected : int;
  su_findings : int;
  su_checkpoints : int;
  su_quarantined : int;
  su_by_type : (string * (int * int)) list;
  su_reasons : (Reject_reason.t * int) list;
  su_vstats : vstats_summary option;
  su_service : service_summary option;
}

let dist_of (samples : int list) : dist =
  let a = Array.of_list samples in
  Array.sort compare a;
  { d_total = Array.fold_left ( + ) 0 a;
    d_p50 = Bvf_util.Percentile.of_sorted_int a 50;
    d_p95 = Bvf_util.Percentile.of_sorted_int a 95 }

let summarize (events : event list) : summary =
  let by_type : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let reasons : (Reject_reason.t, int) Hashtbl.t = Hashtbl.create 8 in
  let generated = ref 0 and accepted = ref 0 and rejected = ref 0 in
  let findings = ref 0 and checkpoints = ref 0 and quarantined = ref 0 in
  let vs_insn = ref [] and vs_peak = ref [] and vs_count = ref 0 in
  let vs_widen = ref [] and vs_heads = ref 0 in
  let sv_hits = ref 0 and sv_misses = ref 0 in
  let sv_admitted = ref 0 and sv_rejected = ref 0 in
  let bump_type pt ~acc =
    let g, a = Option.value (Hashtbl.find_opt by_type pt) ~default:(0, 0)
    in
    Hashtbl.replace by_type pt (if acc then (g, a + 1) else (g + 1, a))
  in
  List.iter
    (fun ev ->
       match ev with
       | Generated { prog_type; _ } ->
         incr generated; bump_type prog_type ~acc:false
       | Accepted { prog_type; _ } ->
         incr accepted; bump_type prog_type ~acc:true
       | Rejected { reason; _ } ->
         incr rejected;
         Hashtbl.replace reasons reason
           (1 + Option.value (Hashtbl.find_opt reasons reason) ~default:0)
       | Finding _ -> incr findings
       | Vstats { insn_processed; peak_states; widen_rounds; loop_heads;
                  _ } ->
         incr vs_count;
         vs_insn := insn_processed :: !vs_insn;
         vs_peak := peak_states :: !vs_peak;
         vs_widen := widen_rounds :: !vs_widen;
         vs_heads := !vs_heads + loop_heads
       | Checkpoint _ -> incr checkpoints
       | Quarantined _ -> incr quarantined
       | Service_hit _ -> incr sv_hits
       | Service_miss _ -> incr sv_misses
       | Service_admitted _ -> incr sv_admitted
       | Service_rejected { reason; _ } ->
         incr sv_rejected;
         Hashtbl.replace reasons reason
           (1 + Option.value (Hashtbl.find_opt reasons reason) ~default:0)
       | Shard_merge _ -> ())
    events;
  {
    su_events = List.length events;
    su_generated = !generated;
    su_accepted = !accepted;
    su_rejected = !rejected;
    su_findings = !findings;
    su_checkpoints = !checkpoints;
    su_quarantined = !quarantined;
    su_by_type =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_type []
      |> List.sort compare;
    su_reasons =
      Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
      |> List.sort (fun (ra, na) (rb, nb) ->
          match compare nb na with
          | 0 -> compare (Reject_reason.to_string ra)
                   (Reject_reason.to_string rb)
          | c -> c);
    su_vstats =
      (if !vs_count = 0 then None
       else
         Some
           { vsu_count = !vs_count;
             vsu_insn_processed = dist_of !vs_insn;
             vsu_peak_states = dist_of !vs_peak;
             vsu_widen_rounds = dist_of !vs_widen;
             vsu_loop_heads = !vs_heads });
    su_service =
      (if !sv_hits + !sv_misses + !sv_admitted + !sv_rejected = 0 then None
       else
         Some
           { ssu_requests = !sv_admitted + !sv_rejected;
             ssu_hits = !sv_hits;
             ssu_misses = !sv_misses;
             ssu_admitted = !sv_admitted;
             ssu_rejected = !sv_rejected });
  }

let unknown_rejections (s : summary) : int =
  Option.value
    (List.assoc_opt Reject_reason.Unknown s.su_reasons)
    ~default:0

let pp_summary fmt (s : summary) : unit =
  let pct a b =
    if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
  in
  Format.fprintf fmt
    "%d events: %d generated, %d accepted (%.1f%%), %d rejected, %d findings, %d checkpoints@."
    s.su_events s.su_generated s.su_accepted
    (pct s.su_accepted s.su_generated)
    s.su_rejected s.su_findings s.su_checkpoints;
  if s.su_quarantined > 0 then
    Format.fprintf fmt "  %d iterations quarantined by the supervisor@."
      s.su_quarantined;
  if s.su_by_type <> [] then begin
    Format.fprintf fmt "@.  %-16s %10s %10s %8s@." "prog type" "generated"
      "accepted" "rate";
    List.iter
      (fun (pt, (g, a)) ->
         Format.fprintf fmt "  %-16s %10d %10d %7.1f%%@." pt g a (pct a g))
      s.su_by_type
  end;
  if s.su_reasons <> [] then begin
    Format.fprintf fmt "@.  %-20s %10s %8s@." "rejection reason" "count"
      "share";
    List.iter
      (fun (r, n) ->
         Format.fprintf fmt "  %-20s %10d %7.1f%%  (%s)@."
           (Reject_reason.to_string r) n (pct n s.su_rejected)
           (Reject_reason.describe r))
      s.su_reasons
  end;
  (match s.su_service with
   | Some sv ->
     Format.fprintf fmt
       "@.  service: %d requests, %d admitted, %d rejected; cache %d hits / %d misses (%.1f%% hit rate)@."
       sv.ssu_requests sv.ssu_admitted sv.ssu_rejected sv.ssu_hits
       sv.ssu_misses
       (pct sv.ssu_hits (sv.ssu_hits + sv.ssu_misses))
   | None -> ());
  match s.su_vstats with
  | Some v ->
    Format.fprintf fmt
      "@.  verifier over %d analyses: insn_processed total %d (p50 %d, p95 %d), peak_states total %d (p50 %d, p95 %d)@."
      v.vsu_count v.vsu_insn_processed.d_total v.vsu_insn_processed.d_p50
      v.vsu_insn_processed.d_p95 v.vsu_peak_states.d_total
      v.vsu_peak_states.d_p50 v.vsu_peak_states.d_p95;
    if v.vsu_loop_heads > 0 || v.vsu_widen_rounds.d_total > 0 then
      Format.fprintf fmt
        "  loops: %d heads, widen rounds total %d (p50 %d, p95 %d)@."
        v.vsu_loop_heads v.vsu_widen_rounds.d_total
        v.vsu_widen_rounds.d_p50 v.vsu_widen_rounds.d_p95
  | None -> ()

