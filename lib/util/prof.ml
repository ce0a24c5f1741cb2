(* Span profiler: nested named spans with allocation attribution.

   One [t] handle per domain/shard/worker — a handle is plain mutable
   state owned by exactly one domain, so instrumented code never takes a
   lock and never contends.  A [session] groups the handles of one run
   (one per shard plus one for the coordinating domain) and is the unit
   the CLI turns into a Chrome trace-event file.

   Purity contract (same discipline as [--progress]): the profiler is
   off by default, a [disabled] handle makes every operation a no-op
   (no clock read, no allocation counter read, no allocation), nothing
   here ever touches a campaign's RNG, telemetry sink or digest, and a
   profiled run is byte-identical in digest and trace to an unprofiled
   one.  Spans are the one record of phase time and allocation: times
   and allocation counts are observations, not behavior. *)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

type span = {
  sp_track : int;        (* shard/worker index; the trace's [pid] *)
  sp_name : string;
  sp_depth : int;        (* nesting depth at open time; 0 = top level *)
  sp_start_s : float;    (* absolute Mclock seconds *)
  sp_dur_s : float;      (* inclusive wall time *)
  sp_self_s : float;     (* dur minus direct children *)
  sp_minor_w : float;    (* minor words allocated during the span *)
  sp_major_w : float;    (* major words allocated during the span *)
}

(* A frame's counters live in their own all-float record: stores to an
   all-float record compile to unboxed float writes, so the baseline
   adjustment loop below allocates nothing — which is exactly what
   makes it a fixed point. *)
type counters = {
  mutable c_t0 : float;
  mutable c_minor0 : float;
  mutable c_major0 : float;
  mutable c_child_s : float;   (* direct children's inclusive time *)
}

type frame = { f_name : string; f_c : counters }

type t = {
  h_track : int;
  h_enabled : bool;
  mutable h_stack : frame list;
  mutable h_spans : span list;  (* completed, reverse order *)
}

let disabled : t =
  { h_track = 0; h_enabled = false; h_stack = []; h_spans = [] }

(* The frame every disabled [start] returns: nothing reads it. *)
let no_frame : frame =
  { f_name = "";
    f_c = { c_t0 = 0.; c_minor0 = 0.; c_major0 = 0.; c_child_s = 0. } }

(* Self-exclusion: shift every open frame's minor-words baseline
   forward past whatever the profiler allocated since [m0], so its own
   garbage (frames, span records, stack conses, [Gc.quick_stat]
   results) never shows up in a span's minor-words attribution — a
   span counts what the profiled code allocated, and a profiled run's
   spans read what an unprofiled run allocates.  What remains is only
   the inherent imprecision of [Gc.minor_words] in native code
   (allocations are batched per code path), a few words per span.
   Re-reading the counter at each store keeps the loop honest: the
   store itself is an unboxed float write into an all-float record, so
   nothing is allocated after the read it compensates for. *)
let rec exclude_since (frames : frame list) (m0 : float) : unit =
  match frames with
  | [] -> ()
  | fr :: tl ->
    fr.f_c.c_minor0 <- fr.f_c.c_minor0 +. (Gc.minor_words () -. m0);
    exclude_since tl m0

(* The major-words counter lives in [Gc.quick_stat], which allocates;
   that and the frame itself are excluded from the enclosing frames
   before the new span's own baselines are read. *)
let start (h : t) (name : string) : frame =
  if not h.h_enabled then no_frame
  else begin
    let m0 = Gc.minor_words () in
    let fr =
      { f_name = name;
        f_c = { c_t0 = 0.; c_minor0 = 0.;
                c_major0 = (Gc.quick_stat ()).Gc.major_words;
                c_child_s = 0. } }
    in
    h.h_stack <- fr :: h.h_stack;
    exclude_since h.h_stack m0;
    fr.f_c.c_t0 <- Mclock.now_s ();
    fr.f_c.c_minor0 <- Gc.minor_words ();
    fr
  end

let stop (h : t) (fr : frame) : unit =
  if h.h_enabled then begin
    let dur = Mclock.elapsed_s ~since:fr.f_c.c_t0 in
    let minor = Float.max 0. (Gc.minor_words () -. fr.f_c.c_minor0) in
    let m0 = Gc.minor_words () in
    (match h.h_stack with
     | top :: rest when top == fr ->
       h.h_stack <- rest;
       (match rest with
        | parent :: _ ->
          parent.f_c.c_child_s <- parent.f_c.c_child_s +. dur
        | [] -> ())
     | _ -> ());    (* mismatched stop: drop silently, keep the stack *)
    let major =
      Float.max 0. ((Gc.quick_stat ()).Gc.major_words -. fr.f_c.c_major0)
    in
    h.h_spans <-
      { sp_track = h.h_track; sp_name = fr.f_name;
        sp_depth = List.length h.h_stack;
        sp_start_s = fr.f_c.c_t0; sp_dur_s = dur;
        sp_self_s = Float.max 0. (dur -. fr.f_c.c_child_s);
        sp_minor_w = minor; sp_major_w = major }
      :: h.h_spans;
    exclude_since h.h_stack m0
  end

let span (h : t) (name : string) (f : unit -> 'a) : 'a =
  if not h.h_enabled then f ()
  else begin
    let fr = start h name in
    Fun.protect ~finally:(fun () -> stop h fr) f
  end

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)

type session = {
  s_active : bool;
  s_mu : Mutex.t;
  mutable s_tracks : (int * string) list;  (* track id -> display name *)
  mutable s_handles : t list;
  mutable s_extra : span list;             (* absorbed foreign spans *)
}

let null : session =
  { s_active = false; s_mu = Mutex.create (); s_tracks = [];
    s_handles = []; s_extra = [] }

let session () : session =
  { s_active = true; s_mu = Mutex.create (); s_tracks = [];
    s_handles = []; s_extra = [] }

let active (s : session) : bool = s.s_active

(* Handles should be created before the domains that use them spawn;
   the mutex only guards registration, never span recording. *)
let track (s : session) ?(name = "") (i : int) : t =
  if not s.s_active then disabled
  else begin
    let h = { h_track = i; h_enabled = true; h_stack = []; h_spans = [] } in
    Mutex.lock s.s_mu;
    if not (List.mem_assoc i s.s_tracks) then
      s.s_tracks <- (i, if name = "" then Printf.sprintf "track%d" i
                        else name) :: s.s_tracks;
    s.s_handles <- h :: s.s_handles;
    Mutex.unlock s.s_mu;
    h
  end

let absorb (s : session) ?(name = "") ~(trk : int) (spans : span list) :
  unit =
  if s.s_active then begin
    Mutex.lock s.s_mu;
    if not (List.mem_assoc trk s.s_tracks) then
      s.s_tracks <- (trk, if name = "" then Printf.sprintf "track%d" trk
                          else name) :: s.s_tracks;
    s.s_extra <- spans @ s.s_extra;
    Mutex.unlock s.s_mu
  end

(* All recorded spans, sorted by (track, start time) for stable output.
   Call after every domain using a handle has been joined. *)
let spans (s : session) : span list =
  let all =
    List.fold_left (fun acc h -> List.rev_append h.h_spans acc)
      s.s_extra s.s_handles
  in
  List.stable_sort
    (fun a b ->
       match compare a.sp_track b.sp_track with
       | 0 -> compare a.sp_start_s b.sp_start_s
       | c -> c)
    all

let tracks (s : session) : (int * string) list =
  List.sort compare s.s_tracks

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (Perfetto-loadable)                        *)

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One complete event ("ph":"X") per span, one JSON object per line so
   diffs and greps stay usable; [pid] is the track (shard/worker),
   [tid] the nesting depth.  [sdur] (self time, us) is a nonstandard
   field Perfetto ignores; allocation deltas ride in [args]. *)
let write_chrome (path : string) ~(tracks : (int * string) list)
    (spans : span list) : unit =
  let epoch =
    List.fold_left (fun m sp -> Float.min m sp.sp_start_s) infinity spans
  in
  let epoch = if epoch = infinity then 0. else epoch in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if !first then first := false else output_string oc ",";
    output_string oc "\n";
    output_string oc line
  in
  List.iter
    (fun (trk, name) ->
       emit
         (Printf.sprintf
            "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"%s\"}}"
            trk (escape name)))
    tracks;
  List.iter
    (fun sp ->
       emit
         (Printf.sprintf
            "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\
             \"ts\":%.3f,\"dur\":%.3f,\"sdur\":%.3f,\
             \"args\":{\"minor_words\":%.0f,\"major_words\":%.0f}}"
            sp.sp_track sp.sp_depth (escape sp.sp_name)
            ((sp.sp_start_s -. epoch) *. 1e6) (sp.sp_dur_s *. 1e6)
            (sp.sp_self_s *. 1e6) sp.sp_minor_w sp.sp_major_w))
    spans;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* ---- reading it back (the [bvf profile] aggregator) ---- *)

(* Minimal recursive JSON reader: the trace format nests ([args],
   [traceEvents]), so the flat telemetry parser does not apply. *)
type json =
  | Jobj of (string * json) list
  | Jarr of json list
  | Jstr of string
  | Jnum of float
  | Jbool of bool
  | Jnull

exception Malformed of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then fail "bad \\u escape";
           let hex = String.sub s !pos 4 in
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 ->
              Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'   (* non-ASCII: placeholder *)
            | None -> fail "bad \\u escape");
           pos := !pos + 4
         | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while !pos < n && is_num s.[!pos] do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance (); skip_ws ();
      if peek () = '}' then begin advance (); Jobj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws (); expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); Jobj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | '[' ->
      advance (); skip_ws ();
      if peek () = ']' then begin advance (); Jarr [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elems (v :: acc)
          | ']' -> advance (); Jarr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elems []
      end
    | '"' -> Jstr (parse_string ())
    | 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
        pos := !pos + 4; Jbool true
      end else fail "bad literal"
    | 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
        pos := !pos + 5; Jbool false
      end else fail "bad literal"
    | 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
        pos := !pos + 4; Jnull
      end else fail "bad literal"
    | '-' | '0' .. '9' -> Jnum (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* Containment slack: endpoints round-trip through %.3f microseconds,
   so two rounded endpoints can disagree by 1ns each. *)
let nest_eps_s = 5e-9

(* Validate that the spans of each track nest properly: sorted by start
   (ties broken longest-first), every span must lie inside the
   innermost still-open ancestor or after it — partial overlap is
   malformed. *)
let check_nesting (spans : span list) : string list =
  let errors = ref [] in
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun sp ->
       let l = try Hashtbl.find by_track sp.sp_track with Not_found -> [] in
       Hashtbl.replace by_track sp.sp_track (sp :: l))
    spans;
  Hashtbl.iter
    (fun trk l ->
       let sorted =
         List.sort
           (fun a b ->
              match compare a.sp_start_s b.sp_start_s with
              | 0 -> compare b.sp_dur_s a.sp_dur_s
              | c -> c)
           l
       in
       let stack = ref [] in
       List.iter
         (fun sp ->
            let e = sp.sp_start_s +. sp.sp_dur_s in
            let rec pop () =
              match !stack with
              | (_, pe) :: rest when sp.sp_start_s >= pe -. nest_eps_s ->
                stack := rest; pop ()
              | _ -> ()
            in
            pop ();
            (match !stack with
             | (pn, pe) :: _ when e > pe +. nest_eps_s ->
               errors :=
                 Printf.sprintf
                   "track %d: span %s overlaps enclosing %s" trk
                   sp.sp_name pn
                 :: !errors
             | _ -> ());
            stack := (sp.sp_name, e) :: !stack)
         sorted)
    by_track;
  List.rev !errors

(* Read a Chrome trace back: returns spans, track names and a list of
   malformedness complaints (empty = clean).  A complaint does not
   discard the events that did parse, so the aggregator can stay
   useful on partial traces unless the caller opts into strictness. *)
let read_chrome (path : string) :
  span list * (int * string) list * string list =
  let errors = ref [] in
  let contents =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  match parse_json contents with
  | exception Malformed msg -> ([], [], [ "not valid JSON: " ^ msg ])
  | Jobj fields ->
    let events =
      match List.assoc_opt "traceEvents" fields with
      | Some (Jarr l) -> l
      | Some _ -> errors := "traceEvents is not an array" :: !errors; []
      | None -> errors := "missing traceEvents" :: !errors; []
    in
    let tracks = ref [] in
    let spans = ref [] in
    List.iteri
      (fun i ev ->
         match ev with
         | Jobj f ->
           let str k =
             match List.assoc_opt k f with Some (Jstr s) -> Some s | _ -> None
           in
           let num k =
             match List.assoc_opt k f with Some (Jnum x) -> Some x | _ -> None
           in
           let arg k =
             match List.assoc_opt "args" f with
             | Some (Jobj a) ->
               (match List.assoc_opt k a with
                | Some (Jnum x) -> Some x
                | _ -> None)
             | _ -> None
           in
           (match str "ph" with
            | Some "M" -> begin
                match str "name", num "pid" with
                | Some "process_name", Some pid ->
                  (match List.assoc_opt "args" f with
                   | Some (Jobj a) ->
                     (match List.assoc_opt "name" a with
                      | Some (Jstr nm) ->
                        tracks := (int_of_float pid, nm) :: !tracks
                      | _ -> ())
                   | _ -> ())
                | _ -> ()
              end
            | Some "X" -> begin
                match str "name", num "pid", num "ts", num "dur" with
                | Some name, Some pid, Some ts, Some dur ->
                  if dur < 0. then
                    errors :=
                      Printf.sprintf "event %d: negative dur" i :: !errors
                  else
                    spans :=
                      { sp_track = int_of_float pid; sp_name = name;
                        sp_depth =
                          (match num "tid" with
                           | Some t -> int_of_float t
                           | None -> 0);
                        sp_start_s = ts /. 1e6; sp_dur_s = dur /. 1e6;
                        sp_self_s =
                          (match num "sdur" with
                           | Some sd -> sd /. 1e6
                           | None -> dur /. 1e6);
                        sp_minor_w =
                          Option.value (arg "minor_words") ~default:0.;
                        sp_major_w =
                          Option.value (arg "major_words") ~default:0. }
                      :: !spans
                | _ ->
                  errors :=
                    Printf.sprintf
                      "event %d: X event missing name/pid/ts/dur" i
                    :: !errors
              end
            | Some _ -> ()   (* other phases: tolerated, ignored *)
            | None ->
              errors :=
                Printf.sprintf "event %d: missing ph" i :: !errors)
         | _ ->
           errors :=
             Printf.sprintf "event %d: not an object" i :: !errors)
      events;
    let spans = List.rev !spans in
    errors := List.rev_append (check_nesting spans) !errors;
    (spans, List.sort compare !tracks, List.rev !errors)
  | _ -> ([], [], [ "top level is not an object" ])

(* ------------------------------------------------------------------ *)
(* Aggregation                                                        *)

type agg = {
  ag_name : string;
  ag_count : int;
  ag_total_s : float;    (* inclusive *)
  ag_self_s : float;
  ag_p50_s : float;      (* per-span inclusive duration *)
  ag_p95_s : float;
  ag_minor_w : float;    (* inclusive allocation *)
  ag_major_w : float;
}

let aggregate (spans : span list) : agg list =
  let by_name : (string, span list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sp ->
       match Hashtbl.find_opt by_name sp.sp_name with
       | Some l -> l := sp :: !l
       | None ->
         Hashtbl.add by_name sp.sp_name (ref [ sp ]);
         order := sp.sp_name :: !order)
    spans;
  let rows =
    List.rev_map
      (fun name ->
         let l = !(Hashtbl.find by_name name) in
         let durs = Array.of_list (List.map (fun sp -> sp.sp_dur_s) l) in
         Array.sort compare durs;
         let sum f = List.fold_left (fun a sp -> a +. f sp) 0. l in
         { ag_name = name;
           ag_count = List.length l;
           ag_total_s = sum (fun sp -> sp.sp_dur_s);
           ag_self_s = sum (fun sp -> sp.sp_self_s);
           ag_p50_s = Percentile.of_sorted durs 50;
           ag_p95_s = Percentile.of_sorted durs 95;
           ag_minor_w = sum (fun sp -> sp.sp_minor_w);
           ag_major_w = sum (fun sp -> sp.sp_major_w) })
      !order
  in
  List.sort (fun a b -> compare b.ag_self_s a.ag_self_s) rows

(* Per-track wall-time attribution: wall is first-start to last-end,
   attributed is the sum of top-level (depth 0) span durations.  The
   ">= 90% of each shard's wall time in named spans" acceptance check
   reads straight off this. *)
let track_attribution (spans : span list) : (int * float * float) list =
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun sp ->
       let prev =
         try Hashtbl.find by_track sp.sp_track
         with Not_found -> (infinity, neg_infinity, 0.)
       in
       let lo, hi, top = prev in
       Hashtbl.replace by_track sp.sp_track
         ( Float.min lo sp.sp_start_s,
           Float.max hi (sp.sp_start_s +. sp.sp_dur_s),
           if sp.sp_depth = 0 then top +. sp.sp_dur_s else top ))
    spans;
  Hashtbl.fold
    (fun trk (lo, hi, top) acc -> (trk, Float.max 0. (hi -. lo), top) :: acc)
    by_track []
  |> List.sort compare

(* Per-name inclusive seconds for one track — the bench breakdown. *)
let totals_for (spans : span list) ~(trk : int) : (string * float) list =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sp ->
       if sp.sp_track = trk then begin
         match Hashtbl.find_opt tbl sp.sp_name with
         | Some r -> r := !r +. sp.sp_dur_s
         | None ->
           Hashtbl.add tbl sp.sp_name (ref sp.sp_dur_s);
           order := sp.sp_name :: !order
       end)
    spans;
  List.rev_map (fun name -> (name, !(Hashtbl.find tbl name))) !order
