(* Integration tests over the experiment harnesses: small-budget runs of
   every table/figure generator must exhibit the paper's qualitative
   shapes. *)

module E = Bvf_experiments.Experiments
module Campaign = Bvf_core.Campaign
module Kconfig = Bvf_kernel.Kconfig
module Version = Bvf_ebpf.Version

let test_table2_shape () =
  let t = E.table2 ~iterations:4000 ~seed:2 () in
  Alcotest.(check int) "eleven rows" 11 (List.length t.E.t2_rows);
  let bvf = List.hd t.E.t2_stats in
  Alcotest.(check string) "bvf first" "BVF" bvf.Campaign.st_tool;
  Alcotest.(check bool) "BVF finds correctness bugs" true
    (List.length (Campaign.correctness_bugs_found bvf) >= 2);
  List.iter
    (fun s ->
       if s.Campaign.st_tool <> "BVF" then
         Alcotest.(check int)
           (s.Campaign.st_tool ^ " finds no correctness bugs")
           0
           (List.length (Campaign.correctness_bugs_found s)))
    t.E.t2_stats

let test_coverage_shape () =
  let t = E.coverage ~iterations:1200 ~repetitions:1 ~sample_every:200 () in
  Alcotest.(check int) "nine cells" 9 (List.length t.E.ct_cells);
  List.iter
    (fun version ->
       let bvf = (E.cell t "BVF" version).E.cc_edges in
       let syz = (E.cell t "Syzkaller" version).E.cc_edges in
       let buz = (E.cell t "Buzzer" version).E.cc_edges in
       Alcotest.(check bool)
         (Printf.sprintf "BVF > Syzkaller on %s" (Version.to_string version))
         true (bvf > syz);
       Alcotest.(check bool)
         (Printf.sprintf "Syzkaller > Buzzer on %s"
            (Version.to_string version))
         true (syz > buz);
       Alcotest.(check bool) "BVF several-fold over Buzzer" true
         (bvf > 3.0 *. buz))
    Version.all;
  (* curves are monotnon-decreasing *)
  List.iter
    (fun c ->
       let rec mono = function
         | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
         | _ -> true
       in
       Alcotest.(check bool) "curve monotone" true (mono c.E.cc_curve))
    t.E.ct_cells

let test_acceptance_shape () =
  let a = E.acceptance ~programs:800 () in
  Alcotest.(check bool) "BVF well above Syzkaller" true
    (a.E.ac_bvf > 1.3 *. a.E.ac_syz);
  Alcotest.(check bool) "Buzzer bimodal low" true
    (a.E.ac_buzzer_random < 0.05);
  Alcotest.(check bool) "Buzzer bimodal high" true
    (a.E.ac_buzzer_alujmp > 0.9);
  Alcotest.(check bool) "Buzzer ALU/JMP heavy" true
    (a.E.ac_buzzer_alujmp_ratio >= 0.884);
  Alcotest.(check bool) "EACCES dominates syz rejections" true
    (match a.E.ac_syz_errno with
     | (Bvf_verifier.Venv.EACCES, _) :: _ -> true
     | _ -> false)

let test_overhead_shape () =
  let o = E.overhead ~count:250 ~runs:8 () in
  Alcotest.(check bool) "programs measured" true (o.E.oh_programs >= 60);
  Alcotest.(check bool)
    (Printf.sprintf "slowdown %.2f in (0.1, 3.0)" o.E.oh_exec_slowdown)
    true
    (o.E.oh_exec_slowdown > 0.1 && o.E.oh_exec_slowdown < 3.0);
  Alcotest.(check bool)
    (Printf.sprintf "footprint %.2fx in (1.5, 4.5)" o.E.oh_insn_footprint)
    true
    (o.E.oh_insn_footprint > 1.5 && o.E.oh_insn_footprint < 4.5)

let test_ablation_shape () =
  let rows = E.ablation ~iterations:1500 () in
  Alcotest.(check int) "four variants" 4 (List.length rows);
  let find name =
    List.find (fun r -> r.E.ab_name = name) rows
  in
  let full = find "BVF (full)" in
  let nostructure = find "no structured generation" in
  Alcotest.(check bool) "structure drives coverage" true
    (full.E.ab_edges > nostructure.E.ab_edges);
  Alcotest.(check bool) "structure drives acceptance" true
    (full.E.ab_accept > nostructure.E.ab_accept);
  Alcotest.(check bool) "structure drives correctness bugs" true
    (full.E.ab_correctness_bugs > nostructure.E.ab_correctness_bugs)

let () =
  Alcotest.run "bvf_experiments"
    [
      ( "shapes",
        [ Alcotest.test_case "table2" `Slow test_table2_shape;
          Alcotest.test_case "coverage" `Slow test_coverage_shape;
          Alcotest.test_case "acceptance" `Slow test_acceptance_shape;
          Alcotest.test_case "overhead" `Slow test_overhead_shape;
          Alcotest.test_case "ablation" `Slow test_ablation_shape ] );
    ]
