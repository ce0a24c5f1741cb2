(* Hot-path regression properties: the perf work (state pool, prune
   signatures, decoded executor) must be behavior-preserving, and the
   narrow-load fix it uncovered must stay fixed.

   - pooling identity: a campaign with state/frame recycling disabled
     produces the same digest as the pooled default — recycling warm
     memory never leaks state between paths;
   - prune-signature soundness: the cheap filter in front of
     [Vstate.states_equal] has no false negatives — whenever the full
     walk would prune, the signatures let it run;
   - narrow-load witness regression: the pre-fix behavior (narrow [Ldx]
     of a constant spill keeping the stale full-width constant) is a
     real abstract/concrete divergence, demonstrated through the
     witness oracle with [Kconfig.Bug12_narrow_load_const];
   - counter-schema guard: the veristat counter schema is frozen by
     committed baselines; internal counters must not leak into it;
   - differential properties for the allocation-free verifier paths:
     rejection classification, bounds sync, the pruning compare and
     the reserved-register scan each agree with a verbatim copy of the
     code they replaced (module [Reference] below). *)

module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Report = Bvf_kernel.Report
module Regstate = Bvf_verifier.Regstate
module Vstate = Bvf_verifier.Vstate
module Vstats = Bvf_verifier.Vstats
module Verifier = Bvf_verifier.Verifier
module Loader = Bvf_runtime.Loader
module Campaign = Bvf_core.Campaign
module Word = Bvf_ebpf.Word
module Helper = Bvf_ebpf.Helper
module Tnum = Bvf_verifier.Tnum
module Venv = Bvf_verifier.Venv
module Analyze = Bvf_verifier.Analyze
module Coverage = Bvf_verifier.Coverage
module Reject_reason = Bvf_verifier.Reject_reason
module Reject_examples = Bvf_verifier.Reject_examples
module Gen = Bvf_core.Gen
module Rng = Bvf_core.Rng
module Service = Bvf_core.Service
module Selftests = Bvf_core.Selftests

(* -- Pooling identity ----------------------------------------------------- *)

let campaign_digest () =
  let config = Kconfig.default Version.Bpf_next in
  Campaign.digest (Campaign.run ~seed:7 ~iterations:800 Campaign.bvf_strategy config)

let pool_identity () =
  let pooled = campaign_digest () in
  Vstate.pool_enabled := false;
  let unpooled =
    Fun.protect
      ~finally:(fun () -> Vstate.pool_enabled := true)
      campaign_digest
  in
  Alcotest.(check string) "pool on/off digests" pooled unpooled

(* -- Prune-signature soundness -------------------------------------------- *)

(* Random register values of every kind the signature distinguishes. *)
let gen_reg : Regstate.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      return Regstate.not_init;
      return Regstate.unknown_scalar;
      map (fun v -> Regstate.const_scalar (Int64.of_int v)) small_int;
      map
        (fun (a, b) ->
           let a = Int64.of_int a and b = Int64.of_int b in
           Regstate.scalar_range ~umin:(min a b) ~umax:(max a b))
        (pair small_int small_int);
      return (Regstate.fp 0);
      return Regstate.ctx_pointer;
    ]

(* A probe state plus a stored state that subsumes it by construction:
   per register, keep the probe value, or widen it (any scalar to the
   unknown scalar, anything to uninitialized — both accepted by
   [Regstate.reg_within]).  Stacks, refs and locks stay empty/equal. *)
let gen_subsumed_pair : (Vstate.t * Vstate.t) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* frames = int_range 1 2 in
  let* regs = array_size (return ((11 * frames) + 1)) gen_reg in
  let* widen = array_size (return ((11 * frames) + 1)) (int_range 0 2) in
  let build () =
    let st = Vstate.initial ~ctx:Regstate.ctx_pointer in
    if frames = 2 then
      Vstate.push_top_frame st (Vstate.new_frame ~frameno:1 ~callsite:5);
    st
  in
  let cur = build () and old = build () in
  let k = ref 0 in
  Vstate.iter_frames cur (fun f ->
      for i = 0 to 10 do
        f.Vstate.regs.(i) <- regs.(!k);
        incr k
      done);
  let k = ref 0 in
  Vstate.iter_frames old (fun f ->
      for i = 0 to 10 do
        let v = regs.(!k) in
        f.Vstate.regs.(i) <-
          (match widen.(!k) with
           | 0 -> v
           | 1 when Regstate.is_scalar v -> Regstate.unknown_scalar
           | 1 -> v
           | _ -> Regstate.not_init);
        incr k
      done);
  return (old, cur)

(* No false negatives: whenever the full walk says "prune", the cheap
   filter must have let it through.  The generator makes subsumption
   hold by construction, so the property is exercised on every case,
   not vacuously. *)
let prune_sig_sound =
  QCheck2.Test.make ~count:2000 ~name:"prune signatures never veto states_equal"
    gen_subsumed_pair
    (fun (old, cur) ->
       let equal = Vstate.states_equal ~old ~cur ~bug3:false in
       if not equal then
         QCheck2.Test.fail_reportf
           "generator broke subsumption (frames=%d)" (Vstate.frame_count cur);
       Vstate.state_sig old = Vstate.state_sig cur
       && Vstate.sigs_compatible
            ~stored:(Vstate.frame_sigs_stored old)
            ~probe:(Vstate.frame_sigs_probe cur))

(* -- Narrow-load witness regression --------------------------------------- *)

(* r2 = 0x101; spill it; narrow-reload the low byte.  Pre-fix the
   verifier kept the full 0x101 as r1's constant while the concrete
   little-endian load yields 0x01 — a divergence the witness oracle
   reports as an escape.  The fixed verifier truncates and nothing
   escapes. *)
let narrow_load_prog =
  Asm.prog
    [ [ Asm.mov64_imm Insn.R2 0x101l;
        Asm.stx_dw Insn.R10 Insn.R2 (-8);
        Asm.ldx_b Insn.R1 Insn.R10 (-8) ];
      Asm.ret 0l ]

let narrow_load_run config =
  let session = Loader.create config in
  let req =
    { Verifier.r_prog_type = Prog.Kprobe; r_attach = None;
      r_offload = false; r_insns = narrow_load_prog }
  in
  let result = Loader.load_and_run session req in
  (match result.Loader.verdict with
   | Error e ->
     Alcotest.fail
       (Printf.sprintf "narrow-load program rejected: %s"
          e.Bvf_verifier.Venv.vmsg)
   | Ok _ -> ());
  result

let narrow_load_escape (r : Report.t) =
  match r.Report.kind with
  | Report.Witness_escape { wreg; wvalue; _ } -> wreg = 1 && wvalue = 1L
  | _ -> false

let narrow_load_buggy () =
  let config =
    Kconfig.make Version.Bpf_next
      ~bugs:[ Kconfig.Bug12_narrow_load_const ] ~witness:true
  in
  let result = narrow_load_run config in
  Alcotest.(check bool) "stale constant escapes through the witness" true
    (List.exists narrow_load_escape result.Loader.witness)

let narrow_load_fixed () =
  let config = Kconfig.make Version.Bpf_next ~bugs:[] ~witness:true in
  let result = narrow_load_run config in
  Alcotest.(check (list string)) "no witness escapes after the fix" []
    (List.map Report.to_string result.Loader.witness)

(* Bug12 is a regression demonstrator, not campaign ground truth: it
   must stay out of the corpus and out of every version's bug set. *)
let narrow_load_not_in_corpus () =
  Alcotest.(check bool) "absent from all_bugs" false
    (List.mem Kconfig.Bug12_narrow_load_const Kconfig.all_bugs);
  List.iter
    (fun v ->
       Alcotest.(check bool)
         (Printf.sprintf "not shipped by %s" (Version.to_string v))
         false
         (Kconfig.bug_in_version v Kconfig.Bug12_narrow_load_const))
    Version.all

(* -- Counter-schema guard ------------------------------------------------- *)

(* The schema is frozen by the committed veristat baseline; internal
   diagnostics (the prune-filter skip counter) and the loop-widening
   counters must not leak into it. *)
let counter_schema () =
  Alcotest.(check (list string)) "veristat counter schema"
    [ "insn_processed"; "total_states"; "peak_states";
      "max_states_per_insn"; "prune_hits"; "prune_misses";
      "loops_detected"; "branch_hwm" ]
    Vstats.counter_names;
  (* widen_rounds / loop_heads postdate the frozen schema: they ride in
     the telemetry trace and the campaign aggregate, never in the
     canonical counter list a committed baseline would parse.  And
     loops_detected keeps its historical meaning — zero-progress
     infinite-loop rejections — so a widening loop that converges must
     leave it untouched. *)
  List.iter
    (fun name ->
       Alcotest.(check bool)
         (Printf.sprintf "%s outside the frozen schema" name)
         false
         (List.mem name Vstats.counter_names))
    [ "widen_rounds"; "loop_heads"; "prune_hash_skips" ]

(* -- Differential properties against the replaced code ------------------- *)

(* Verbatim copies of the implementations the allocation-free versions
   replaced, kept only here, as the reference they must agree with. *)
module Reference = struct
  (* Reject_reason: a substring search at every position, for every
     pattern in table order *)
  let has (msg : string) (frag : string) : bool =
    let n = String.length msg and m = String.length frag in
    if m = 0 || m > n then m = 0
    else begin
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i <= n - m do
        if String.sub msg !i m = frag then found := true else incr i
      done;
      !found
    end

  let classify ~(msg : string) : Reject_reason.t =
    if msg = "size" then Reject_reason.Prog_size
    else
      match
        List.find_opt (fun (frag, _) -> has msg frag) Reject_reason.patterns
      with
      | Some (_, r) -> r
      | None -> Reject_reason.Unknown

  (* Regstate: the update/deduce/bound-offset trio on records *)
  open Regstate

  let update_bounds (r : t) : t =
    let tmin = Tnum.umin r.var_off and tmax = Tnum.umax r.var_off in
    let umin = Word.umax r.umin tmin in
    let umax = Word.umin r.umax tmax in
    let smin, smax =
      if Int64.logand r.var_off.Tnum.mask Int64.min_int = 0L then
        (Word.smax r.smin tmin, Word.smin r.smax tmax)
      else (r.smin, r.smax)
    in
    { r with smin; smax; umin; umax }

  let deduce_bounds (r : t) : t =
    let smin, smax, umin, umax = r.smin, r.smax, r.umin, r.umax in
    let smin, smax, umin, umax =
      if smin >= 0L then
        (smin, smax, Word.umax umin smin, Word.umin umax smax)
      else if smax < 0L then
        (smin, smax, Word.umax umin smin, Word.umin umax smax)
      else (smin, smax, umin, umax)
    in
    let smin, smax =
      if Word.ule umax Int64.max_int then
        (Word.smax smin umin, Word.smin smax umax)
      else if Word.uge umin Int64.min_int then
        (Word.smax smin umin, Word.smin smax umax)
      else (smin, smax)
    in
    { r with smin; smax; umin; umax }

  let bound_offset (r : t) : t =
    { r with
      var_off =
        Tnum.intersect r.var_off (Tnum.range ~min:r.umin ~max:r.umax) }

  let sync_round (r : t) : t = bound_offset (deduce_bounds (update_bounds r))

  let sync (r : t) : t =
    let rec fix r n =
      let r' = sync_round r in
      if n = 0 || equal_bounds r r' then r' else fix r' (n - 1)
    in
    fix r 8

  (* Regstate.reg_within, through Word's unsigned compares *)
  let reg_within ~(old : t) ~(cur : t) ~(bug3 : bool) : bool =
    match old.kind, cur.kind with
    | Not_init, _ -> true
    | Scalar, Scalar ->
      if bug3 && old.from_kfunc then true
      else
        old.smin <= cur.smin && old.smax >= cur.smax
        && Word.ule old.umin cur.umin && Word.uge old.umax cur.umax
        && Tnum.subset ~of_:old.var_off cur.var_off
    | Ptr op, Ptr cp ->
      op.pk = cp.pk && old.off = cur.off
      && Tnum.equal old.var_off cur.var_off
      && (op.maybe_null || not cp.maybe_null)
      && cur.range >= old.range
    | Scalar, (Not_init | Ptr _)
    | Ptr _, (Not_init | Scalar) -> false

  (* Vstate: the closure-based pruning compare, bytes before spills *)
  let stack_within ~(old : Vstate.frame) ~(cur : Vstate.frame)
      ~(bug3 : bool) : bool =
    let open Vstate in
    let byte_ok o c =
      if o = b_invalid then true
      else if o = b_misc then c <> b_invalid
      else o = c
    in
    let bytes_ok =
      Bytes.equal old.stack cur.stack
      || (let rec go i =
            i >= stack_bytes
            || (byte_ok (Bytes.unsafe_get old.stack i)
                  (Bytes.unsafe_get cur.stack i)
                && go (i + 1))
          in
          go 0)
    in
    let rec spills_ok slot =
      slot >= spill_slots
      || ((match old.spills.(slot) with
           | None -> true
           | Some old_reg -> begin
               match cur.spills.(slot) with
               | Some cur_reg -> reg_within ~old:old_reg ~cur:cur_reg ~bug3
               | None ->
                 (match old_reg.Regstate.kind with
                  | Regstate.Scalar -> not old_reg.Regstate.precise
                  | _ -> false)
             end)
          && spills_ok (slot + 1))
    in
    bytes_ok && spills_ok 0

  let frame_within ~(old : Vstate.frame) ~(cur : Vstate.frame)
      ~(bug3 : bool) : bool =
    old.Vstate.callsite = cur.Vstate.callsite
    && (let rec regs i =
          i > 10
          || (reg_within ~old:old.Vstate.regs.(i) ~cur:cur.Vstate.regs.(i)
                ~bug3
              && regs (i + 1))
        in
        regs 0)
    && stack_within ~old ~cur ~bug3

  let states_equal ~(old : Vstate.t) ~(cur : Vstate.t) ~(bug3 : bool) : bool
    =
    old.Vstate.nframes = cur.Vstate.nframes
    && old.Vstate.active_lock = cur.Vstate.active_lock
    && List.length old.Vstate.refs = List.length cur.Vstate.refs
    && (let rec go i =
          i >= old.Vstate.nframes
          || (frame_within ~old:old.Vstate.frames.(i)
                ~cur:cur.Vstate.frames.(i) ~bug3
              && go (i + 1))
        in
        go 0)

  (* Verifier: R11 through the register lists *)
  let uses_reserved (insns : Insn.t array) : bool =
    Array.exists
      (fun i ->
         List.exists (fun r -> r = Insn.R11) (Insn.regs_read i)
         || List.exists (fun r -> r = Insn.R11) (Insn.regs_written i)
         ||
         match i with
         | Insn.Call (Insn.Helper id) -> begin
             match Helper.find id with
             | Some h -> h.Helper.internal
             | None -> false
           end
         | _ -> false)
      insns
end

let gen_config : Gen.config =
  { Gen.c_version = Version.Bpf_next;
    c_maps = List.mapi (fun i def -> (i + 3, def)) Service.standard_maps }

(* A kernel state with the service map population, which is the one
   [gen_config] programs reference (fds 3 and 4). *)
let session_kst () : Bvf_kernel.Kstate.t =
  (Service.create_session (Kconfig.default Version.Bpf_next)).Loader.kst

let generated (n : int) : Verifier.request list =
  List.init n (fun seed -> Gen.generate (Rng.create seed) gen_config)

(* -- classify --- *)

(* Every rejection message a few hundred generated programs and the
   per-reason examples produce. *)
let real_messages : string list Lazy.t =
  lazy
    (let kst = session_kst () in
     let gen =
       List.filter_map
         (fun req ->
            match Verifier.verify kst ~cov:(Coverage.create ()) req with
            | Ok () -> None
            | Error e -> Some e.Venv.vmsg)
         (generated 400)
     in
     let examples =
       List.filter_map
         (fun ex ->
            Option.map snd (Reject_examples.verify_example ex))
         Reject_examples.all
     in
     examples @ gen)

let classify_real_messages () =
  let msgs = Lazy.force real_messages in
  Alcotest.(check bool) "enough rejections to compare" true
    (List.length msgs > 100);
  List.iter
    (fun msg ->
       Alcotest.(check string) msg
         (Reject_reason.to_string (Reference.classify ~msg))
         (Reject_reason.to_string (Reject_reason.classify ~msg)))
    msgs

(* Messages spliced from pattern fragments, their prefixes/suffixes,
   one-character mutations and junk: several patterns usually occur at
   once, so the table-order rule is exercised, not just membership. *)
let gen_spliced_message : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let frags = Array.of_list (List.map fst Reject_reason.patterns) in
  let frag = map (fun i -> frags.(i)) (int_bound (Array.length frags - 1)) in
  let piece =
    oneof
      [ frag;
        (let* f = frag in
         let* k = int_bound (String.length f) in
         oneofl [ String.sub f 0 k; String.sub f k (String.length f - k) ]);
        (let* f = frag in
         let* i = int_bound (String.length f - 1) in
         let* c = oneofl [ 'a'; ' '; '_'; 'R'; '\000'; f.[0] ] in
         return
           (String.mapi (fun j x -> if j = i then c else x) f));
        string_size ~gen:(oneofl [ 'a'; 'i'; 'p'; ' '; '!'; 'R'; '2' ])
          (int_bound 6);
        oneofl [ ""; "size"; " "; "R1 "; "invalid"; "pointer" ];
      ]
  in
  let* pieces = list_size (int_range 0 5) piece in
  return (String.concat "" pieces)

let classify_spliced =
  QCheck2.Test.make ~count:5000 ~name:"classify = reference on spliced messages"
    ~print:(Printf.sprintf "%S") gen_spliced_message
    (fun msg -> Reject_reason.classify ~msg = Reference.classify ~msg)

(* -- sync --- *)

(* int64s biased to the Int64/U32 boundaries and the sign bit *)
let gen_edge_int64 : int64 QCheck2.Gen.t =
  let open QCheck2.Gen in
  let edges =
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0xFFFF_FFFFL;
      0x1_0000_0000L; 0x7FFF_FFFFL; 0x8000_0000L; 0xFFFF_FFFF_8000_0000L;
      0xFFFF_FFFF_0000_0000L; 0x4000_0000_0000_0000L ]
  in
  oneof
    [ oneofl edges;
      map2 Int64.add (oneofl edges) (map Int64.of_int (int_range (-3) 3));
      ui64;
      map Int64.of_int small_signed_int ]

let gen_sync_reg : Regstate.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* smin = gen_edge_int64 and* smax = gen_edge_int64
  and* umin = gen_edge_int64 and* umax = gen_edge_int64
  and* value = gen_edge_int64 and* mask = gen_edge_int64 in
  return
    { Regstate.unknown_scalar with
      var_off = { Tnum.value = Int64.logand value (Int64.lognot mask); mask };
      smin; smax; umin; umax }

let print_reg (r : Regstate.t) =
  Printf.sprintf "smin=%Ld smax=%Ld umin=%Lu umax=%Lu var_off=(%#Lx;%#Lx)"
    r.Regstate.smin r.Regstate.smax r.Regstate.umin r.Regstate.umax
    r.Regstate.var_off.Tnum.value r.Regstate.var_off.Tnum.mask

let sync_matches_reference =
  QCheck2.Test.make ~count:20000 ~name:"sync = reference, field by field"
    ~print:print_reg gen_sync_reg
    (fun r ->
       let round = Regstate.sync_round r and round' = Reference.sync_round r in
       let full = Regstate.sync r and full' = Reference.sync r in
       if round <> round' then
         QCheck2.Test.fail_reportf "sync_round: %s, reference %s"
           (print_reg round) (print_reg round');
       if full <> full' then
         QCheck2.Test.fail_reportf "sync: %s, reference %s" (print_reg full)
           (print_reg full');
       (* a no-op returns its argument itself *)
       let noop = Regstate.equal_bounds r round' in
       (not noop || (round == r && full == r))
       && (noop || not (round == r)))

(* the same on the scalars the analysis really builds *)
let sync_real_constructors =
  QCheck2.Test.make ~count:5000 ~name:"sync = reference on built scalars"
    ~print:print_reg
    QCheck2.Gen.(
      let* a = gen_edge_int64 and* b = gen_edge_int64 and* k = int_bound 2 in
      return
        (match k with
         | 0 -> Regstate.scalar_range ~umin:a ~umax:b
         | 1 -> Regstate.truncate32 (Regstate.scalar_range ~umin:a ~umax:b)
         | _ -> Regstate.scalar_of_tnum
                  { Tnum.value = Int64.logand a (Int64.lognot b); mask = b }))
    (fun r ->
       Regstate.sync r = Reference.sync r
       && Regstate.sync_round r = Reference.sync_round r)

(* -- states_equal --- *)

(* Register pairs for [reg_within]: every kind, edge-biased scalars,
   tnums that break the [value land mask = 0] invariant, and a register
   compared with itself (the common case at a pruning point, where the
   stored state still holds the probe's own register records). *)
let gen_within_pair : (Regstate.t * Regstate.t * bool) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let malformed =
    let* v = gen_edge_int64 and* m = gen_edge_int64 and* kfunc = bool in
    return
      { Regstate.unknown_scalar with
        var_off = { Tnum.value = v; mask = m }; from_kfunc = kfunc }
  in
  let reg =
    oneof
      [ gen_reg; gen_sync_reg; malformed;
        return (Regstate.pointer ~maybe_null:true ~id:3 Regstate.P_ctx) ]
  in
  let* a = reg and* b = reg and* same = bool and* bug3 = bool in
  return (a, (if same then a else b), bug3)

let reg_within_matches =
  QCheck2.Test.make ~count:20000 ~name:"reg_within = reference"
    gen_within_pair
    (fun (old, cur, bug3) ->
       Regstate.reg_within ~old ~cur ~bug3
       = Reference.reg_within ~old ~cur ~bug3)

(* Stored states of real analyses: every explored entry of the
   selftest corpus and of generated programs, grouped by program. *)
let snapshots : Vstate.t array array Lazy.t =
  lazy
    (let kst = session_kst () in
     let reqs =
       List.filteri (fun i _ -> i < 120)
         (Selftests.build ~count:120 Version.Bpf_next).Selftests.requests
       @ generated 200
     in
     Array.of_list
       (List.filter_map
          (fun (req : Verifier.request) ->
             let env =
               Venv.create ~kst ~prog_type:req.Verifier.r_prog_type
                 ~attach:None ~cov:(Coverage.create ()) req.Verifier.r_insns
             in
             (try Analyze.run env with Venv.Reject _ -> ());
             let states =
               Hashtbl.fold
                 (fun _ es acc ->
                    List.map (fun e -> e.Venv.e_state) es @ acc)
                 env.Venv.explored []
             in
             if List.length states >= 2 then Some (Array.of_list states)
             else None)
          reqs))

let both_ways ~old ~cur =
  List.for_all
    (fun bug3 ->
       Vstate.states_equal ~old ~cur ~bug3
       = Reference.states_equal ~old ~cur ~bug3
       && Vstate.states_equal ~old:cur ~cur:old ~bug3
          = Reference.states_equal ~old:cur ~cur:old ~bug3)
    [ false; true ]

let states_equal_real_pairs () =
  let progs = Lazy.force snapshots in
  Alcotest.(check bool) "programs with stored states" true
    (Array.length progs > 50);
  let pairs = ref 0 and hits = ref 0 in
  Array.iter
    (fun states ->
       let n = min (Array.length states) 40 in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           let old = states.(i) and cur = states.(j) in
           incr pairs;
           if Vstate.states_equal ~old ~cur ~bug3:false then incr hits;
           if not (both_ways ~old ~cur) then
             Alcotest.failf "states_equal differs from the reference (pair %d)"
               !pairs
         done
       done)
    progs;
  Alcotest.(check bool) "some pairs subsume, some do not" true
    (!hits > 0 && !hits < !pairs)

(* One stack or spill edit: a byte run of one class at any (usually
   unaligned) offset, a spill slot set or cleared, or a register. *)
type edit =
  | Bytes_at of int * int * char
  | Spill of int * Regstate.t option
  | Reg of int * Regstate.t

let gen_edit : edit QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ (let* off = int_bound (Vstate.stack_bytes - 1) in
       let* len = int_range 1 9 in
       let* c =
         oneofl [ Vstate.b_invalid; Vstate.b_misc; Vstate.b_zero;
                  Vstate.b_spill ]
       in
       return (Bytes_at (off, len, c)));
      (let* slot = int_bound (Vstate.spill_slots - 1) in
       let* v = option gen_reg in
       let* precise = bool in
       return
         (Spill
            (slot,
             Option.map
               (fun (r : Regstate.t) -> { r with Regstate.precise })
               v)));
      (let* i = int_bound 9 in
       let* v = gen_reg in
       return (Reg (i, v))) ]

let apply_edit (st : Vstate.t) (e : edit) : unit =
  let f = Vstate.cur_frame st in
  match e with
  | Bytes_at (off, len, c) ->
    let len = min len (Vstate.stack_bytes - off) in
    Bytes.fill f.Vstate.stack off len c
  | Spill (slot, v) -> f.Vstate.spills.(slot) <- v
  | Reg (i, v) -> f.Vstate.regs.(i) <- v

let states_equal_mutated =
  QCheck2.Test.make ~count:4000
    ~name:"states_equal = reference on mutated stacks and spills"
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_bound 1_000_000)
        (list_size (int_range 0 4) gen_edit)
        (list_size (int_range 0 4) gen_edit))
    (fun (p, k, edits_old, edits_cur) ->
       let progs = Lazy.force snapshots in
       let states = progs.(p mod Array.length progs) in
       let base = states.(k mod Array.length states) in
       let old = Vstate.copy base and cur = Vstate.copy base in
       List.iter (apply_edit old) edits_old;
       List.iter (apply_edit cur) edits_cur;
       both_ways ~old ~cur)

(* -- uses_reserved --- *)

(* Put R11 into one register field of an instruction; [Neg] also gets
   it in [src], which the check must not inspect. *)
let plant (which : int) (i : Insn.t) : Insn.t =
  let r11 = Insn.R11 in
  match i with
  | Insn.Alu a ->
    (match which mod 3 with
     | 0 -> Insn.Alu { a with dst = r11 }
     | 1 -> Insn.Alu { a with src = Insn.Reg r11 }
     | _ -> Insn.Alu { a with op = Insn.Neg; src = Insn.Reg r11 })
  | Insn.Jmp j ->
    if which mod 2 = 0 then Insn.Jmp { j with dst = r11 }
    else Insn.Jmp { j with src = Insn.Reg r11 }
  | Insn.Endian e -> Insn.Endian { e with dst = r11 }
  | Insn.Ld_imm64 (_, k) -> Insn.Ld_imm64 (r11, k)
  | Insn.Ldx l ->
    if which mod 2 = 0 then Insn.Ldx { l with dst = r11 }
    else Insn.Ldx { l with src = r11 }
  | Insn.St s -> Insn.St { s with dst = r11 }
  | Insn.Stx s ->
    if which mod 2 = 0 then Insn.Stx { s with dst = r11 }
    else Insn.Stx { s with src = r11 }
  | Insn.Atomic a ->
    if which mod 2 = 0 then Insn.Atomic { a with dst = r11 }
    else Insn.Atomic { a with src = r11 }
  | Insn.Ja _ | Insn.Call _ | Insn.Exit -> i

let uses_reserved_matches =
  QCheck2.Test.make ~count:2000 ~name:"uses_reserved = reference"
    QCheck2.Gen.(
      triple (int_bound 1_000_000)
        (list_size (int_range 0 3) (pair (int_bound 10_000) (int_bound 5)))
        bool)
    (fun (seed, plants, neg_src) ->
       let req = Gen.generate (Rng.create seed) gen_config in
       let insns = Array.copy req.Verifier.r_insns in
       let n = Array.length insns in
       List.iter
         (fun (at, which) ->
            insns.(at mod n) <- plant which insns.(at mod n))
         plants;
       (* a Neg whose src is R11 but whose dst is not *)
       if neg_src then
         insns.(0) <-
           Insn.Alu
             { op64 = true; op = Insn.Neg; dst = Insn.R1;
               src = Insn.Reg Insn.R11 };
       Verifier.uses_reserved insns = Reference.uses_reserved insns)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_hotpath"
    [
      ( "state pool",
        [ Alcotest.test_case "pool on/off campaign digests equal" `Slow
            pool_identity ] );
      ("prune signatures", [ qt prune_sig_sound ]);
      ( "narrow-load regression",
        [ Alcotest.test_case "pre-fix behavior diverges (Bug12)" `Quick
            narrow_load_buggy;
          Alcotest.test_case "fixed verifier truncates" `Quick
            narrow_load_fixed;
          Alcotest.test_case "Bug12 stays out of the corpus" `Quick
            narrow_load_not_in_corpus ] );
      ("veristat schema", [ Alcotest.test_case "frozen" `Quick counter_schema ]);
      ( "classify",
        [ Alcotest.test_case "real rejections match the reference" `Quick
            classify_real_messages;
          qt classify_spliced ] );
      ("sync", [ qt sync_matches_reference; qt sync_real_constructors ]);
      ( "states_equal",
        [ qt reg_within_matches;
          Alcotest.test_case "real snapshot pairs match the reference"
            `Quick states_equal_real_pairs;
          qt states_equal_mutated ] );
      ("uses_reserved", [ qt uses_reserved_matches ]);
    ]
