open Cimport

(* A deterministic corpus standing in for the kernel's verifier
   self-tests (tools/testing/selftests/bpf): the dataset of the paper's
   sanitation-overhead experiment (section 6.4).  The paper uses the 708
   manually-written self-test programs that contain load/store
   instructions; we reproduce the same shape with parametric families of
   load/store-bearing programs plus structured-generator output under
   fixed seeds, all verified to pass the (fixed) verifier. *)

let target_count = 708

(* -- Hand-built parametric families ------------------------------------ *)

let stack_rw (n : int) : Insn.t list =
  let stores =
    List.init n (fun i ->
        Asm.st_dw Insn.R10 (-8 * (1 + (i mod 8))) (Int32.of_int i))
  in
  let loads =
    List.init (max 1 (n / 2)) (fun i ->
        Asm.ldx_dw Insn.R2 Insn.R10 (-8 * (1 + (i mod 8))))
  in
  stores @ loads @ Asm.ret 0l

(* Stack accessed through a copied pointer, as the kernel's spill/fill
   self-tests do: these are NOT R10-direct, so the sanitizer must
   instrument them. *)
let stack_via_copy (n : int) : Insn.t list =
  [ Asm.mov64_reg Insn.R6 Insn.R10;
    Asm.alu64_imm Insn.Add Insn.R6 (-64l) ]
  @ List.concat
    (List.init n (fun i ->
         [ Asm.st_dw Insn.R6 (8 * (i mod 8)) (Int32.of_int i);
           Asm.ldx_dw Insn.R3 Insn.R6 (8 * (i mod 8)) ]))
  @ Asm.ret 0l

let alu_store (n : int) : Insn.t list =
  let ops =
    List.concat
      (List.init n (fun i ->
           [ Asm.mov64_imm Insn.R3 (Int32.of_int (i * 3));
             Asm.alu64_imm Insn.Add Insn.R3 7l;
             Asm.alu64_imm Insn.Lsh Insn.R3 (Int32.of_int (i mod 8));
             Asm.stx_dw Insn.R10 Insn.R3 (-8 * (1 + (i mod 4))) ]))
  in
  ops @ Asm.ret 0l

let branch_store (n : int) : Insn.t list =
  let arms =
    List.concat
      (List.init n (fun i ->
           [ Asm.mov64_imm Insn.R4 (Int32.of_int i);
             Asm.jmp_imm Insn.Jgt Insn.R4 (Int32.of_int (i / 2)) 1;
             Asm.st_w Insn.R10 (-4 * (1 + (i mod 16))) 11l ]))
  in
  (Asm.st_dw Insn.R10 (-64) 0l :: arms) @ Asm.ret 0l

let ctx_read (pt : Prog.prog_type) (n : int) : Insn.t list =
  let layout = Prog.ctx_layout pt in
  let fields =
    List.filter (fun f -> f.Prog.fkind = Prog.Fk_scalar) layout.Prog.fields
  in
  let reads =
    List.init n (fun i ->
        let f = List.nth fields (i mod List.length fields) in
        let sz =
          match f.Prog.fsize with
          | 1 -> Insn.B | 2 -> Insn.H | 4 -> Insn.W | _ -> Insn.DW
        in
        Asm.ldx sz Insn.R2 Insn.R1 f.Prog.foff)
  in
  reads
  @ [ Asm.stx_dw Insn.R10 Insn.R2 (-8) ]
  @ Asm.ret 0l

let map_lookup_rw (fd : int) (writes : int) : Insn.t list =
  [ Asm.st_dw Insn.R10 (-8) 0l;
    Asm.ld_map_fd Insn.R1 fd;
    Asm.mov64_reg Insn.R2 Insn.R10;
    Asm.alu64_imm Insn.Add Insn.R2 (-8l);
    Asm.call Helper.map_lookup_elem.Helper.id;
    Asm.jmp_imm Insn.Jne Insn.R0 0l 2;
    Asm.mov64_imm Insn.R0 0l;
    Asm.exit_ ]
  @ List.init writes (fun i ->
      Asm.st_dw Insn.R0 (8 * (i mod 5)) (Int32.of_int i))
  @ Asm.ret 0l

let map_value_direct (fd : int) (n : int) : Insn.t list =
  Asm.ld_map_value Insn.R6 fd 0
  :: List.concat
    (List.init n (fun i ->
         [ Asm.st_w Insn.R6 (4 * (i mod 10)) (Int32.of_int i);
           Asm.ldx_w Insn.R7 Insn.R6 (4 * (i mod 10)) ]))
  @ Asm.ret 1l

let atomic_family (fd : int) (n : int) : Insn.t list =
  [ Asm.ld_map_value Insn.R6 fd 0; Asm.mov64_imm Insn.R3 1l ]
  @ List.init n (fun i ->
      Asm.atomic ~fetch:(i mod 2 = 0) Insn.DW
        (match i mod 4 with
         | 0 -> Insn.A_add | 1 -> Insn.A_or | 2 -> Insn.A_and
         | _ -> Insn.A_xor)
        Insn.R6 Insn.R3 (8 * (i mod 4)))
  @ Asm.ret 0l

let packet_family (n : int) : Insn.t list =
  (* load data/data_end, prove 8+8k bytes, read them *)
  [ Asm.ldx_w Insn.R2 Insn.R1 0;   (* xdp data *)
    Asm.ldx_w Insn.R3 Insn.R1 4;   (* xdp data_end *)
    Asm.mov64_reg Insn.R4 Insn.R2;
    Asm.alu64_imm Insn.Add Insn.R4 (Int32.of_int (8 * n));
    Asm.jmp_reg Insn.Jgt Insn.R4 Insn.R3 (n + 1) ]
  @ List.init n (fun i -> Asm.ldx_dw Insn.R5 Insn.R2 (8 * i))
  @ [ Asm.ja 0 ]
  @ Asm.ret 2l

(* -- Assembly into verified requests ------------------------------------ *)

type suite = {
  session : Loader.t;
  requests : Verifier.request list; (* all pass the fixed verifier *)
}

let build ?(count = target_count) ?config (version : Version.t) : suite =
  (* a fixed kernel: self-tests must pass a correct verifier.  [config]
     overrides it for instrumented builds (invariant lint, witness
     recording) — still a fixed verifier, just with extra observers. *)
  let config =
    match config with Some c -> c | None -> Kconfig.fixed version
  in
  let session = Loader.create config in
  let array_fd =
    Loader.create_map session (Map.array_def ~value_size:48 ())
  in
  let hash_fd =
    Loader.create_map session (Map.hash_def ~key_size:8 ~value_size:48 ())
  in
  let maps =
    [ (array_fd, Map.array_def ~value_size:48 ());
      (hash_fd, Map.hash_def ~key_size:8 ~value_size:48 ()) ]
  in
  let hand =
    List.concat
      [
        List.init 25 (fun i ->
            Verifier.request Prog.Socket_filter
              (Array.of_list (stack_rw (1 + i))));
        List.init 35 (fun i ->
            Verifier.request Prog.Socket_filter
              (Array.of_list (stack_via_copy (1 + i))));
        List.init 20 (fun i ->
            Verifier.request Prog.Kprobe
              (Array.of_list (alu_store (1 + i))));
        List.init 20 (fun i ->
            Verifier.request Prog.Socket_filter
              (Array.of_list (branch_store (1 + i))));
        List.init 25 (fun i ->
            Verifier.request Prog.Socket_filter
              (Array.of_list (ctx_read Prog.Socket_filter (1 + i))));
        List.init 25 (fun i ->
            Verifier.request Prog.Kprobe
              (Array.of_list (ctx_read Prog.Kprobe (1 + i))));
        List.init 35 (fun i ->
            Verifier.request Prog.Socket_filter
              (Array.of_list (map_lookup_rw hash_fd (1 + i))));
        List.init 35 (fun i ->
            Verifier.request Prog.Socket_filter
              (Array.of_list (map_value_direct array_fd (1 + i))));
        List.init 20 (fun i ->
            Verifier.request Prog.Socket_filter
              (Array.of_list (atomic_family array_fd (1 + i))));
        List.init 10 (fun i ->
            Verifier.request Prog.Xdp
              (Array.of_list (packet_family (1 + i))));
      ]
  in
  (* top up with structured-generator programs under fixed seeds,
     keeping only accepted programs containing load/store *)
  let cov = Coverage.create () in
  let has_mem_access (req : Verifier.request) : bool =
    (* real load/store self-tests are memory-dense: require a quarter
       of the instructions to be accesses *)
    let mem =
      Array.fold_left
        (fun acc i ->
           match i with
           | Insn.Ldx _ | Insn.St _ | Insn.Stx _ | Insn.Atomic _ ->
             acc + 1
           | _ -> acc)
        0 req.Verifier.r_insns
    in
    mem * 4 >= Array.length req.Verifier.r_insns
  in
  let accepted (req : Verifier.request) : bool =
    (* self-tests never rely on attach points or offloading *)
    req.Verifier.r_attach = None
    && (not req.Verifier.r_offload)
    && Result.is_ok (Verifier.verify session.Loader.kst ~cov req)
  in
  let hand = List.filter accepted hand in
  let gen_cfg = { Gen.c_version = version; c_maps = maps } in
  let rec top_up acc n seed =
    if n <= 0 || seed > 50_000 then List.rev acc
    else begin
      let rng = Rng.create seed in
      let req = Gen.generate rng gen_cfg in
      let req = { req with Verifier.r_attach = None; r_offload = false } in
      if has_mem_access req && accepted req then
        top_up (req :: acc) (n - 1) (seed + 1)
      else top_up acc n (seed + 1)
    end
  in
  let extra = top_up [] (count - List.length hand) 1 in
  { session; requests = List.filteri (fun i _ -> i < count) (hand @ extra) }
