(* Integration: every registered experiment runs end-to-end in quick mode
   with a non-failing verdict, the registry covers DESIGN.md §5 exactly,
   and reports are deterministic in the seed. *)

let seed = 97L

let registry = Ba_experiments.Experiments.registry

let check_report (r : Ba_harness.Report.t) =
  Alcotest.(check bool) (r.id ^ " has body") true (String.length r.body > 50);
  Alcotest.(check bool) (r.id ^ " has summary") true (String.length r.summary > 20);
  Alcotest.(check bool) (r.id ^ " has metrics") true (r.metrics <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%s verdict is not fail (%s)" r.id r.summary)
    true
    (r.verdict <> Ba_harness.Report.Fail)

let registry_cases =
  List.map
    (fun (d : Ba_harness.Registry.descriptor) ->
      Alcotest.test_case d.id `Slow (fun () ->
          let r = d.run ~policy:Ba_harness.Supervisor.default ~domains:1 ~quick:true ~seed in
          Alcotest.(check string) "report id matches descriptor" d.id r.id;
          check_report r))
    (Ba_harness.Registry.all registry)

(* Every E<n> id named in DESIGN.md §5's index table must be registered
   exactly once, and nothing else may be registered. *)
let test_design_md_coverage () =
  let text = In_channel.with_open_bin "../DESIGN.md" In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  let _, design_ids =
    List.fold_left
      (fun (in_section, acc) line ->
        if String.length line >= 4 && String.sub line 0 4 = "## 5" then (true, acc)
        else if String.length line >= 3 && String.sub line 0 3 = "## " then (false, acc)
        else if in_section && String.length line > 3 && String.sub line 0 3 = "| E" then
          match String.index_from_opt line 1 '|' with
          | Some stop -> (in_section, String.trim (String.sub line 1 (stop - 1)) :: acc)
          | None -> (in_section, acc)
        else (in_section, acc))
      (false, []) lines
  in
  let design_ids = List.rev design_ids in
  Alcotest.(check int) "23 experiment rows in DESIGN.md section 5" 23
    (List.length design_ids);
  Alcotest.(check int) "DESIGN.md ids are distinct" (List.length design_ids)
    (List.length (List.sort_uniq compare design_ids));
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "%s registered exactly once" id)
        1
        (List.length
           (List.filter
              (fun (d : Ba_harness.Registry.descriptor) -> d.id = id)
              (Ba_harness.Registry.all registry))))
    design_ids;
  Alcotest.(check int) "nothing registered beyond DESIGN.md section 5"
    (List.length design_ids)
    (Ba_harness.Registry.size registry)

let test_every_descriptor_tagged () =
  List.iter
    (fun (d : Ba_harness.Registry.descriptor) ->
      Alcotest.(check bool) (d.id ^ " has at least one tag") true (d.tags <> []);
      Alcotest.(check bool) (d.id ^ " has a claim") true (d.claim <> ""))
    (Ba_harness.Registry.all registry)

(* The registry lists experiments in numeric id order (E1, E2, ..., E23),
   the order ba_sweep and bench run and print them in. Checked on the ids
   alone, without running anything. *)
let test_registry_order () =
  let ids = Ba_harness.Registry.ids registry in
  Alcotest.(check (list string)) "numeric id order"
    (List.init (List.length ids) (fun i -> Printf.sprintf "E%d" (i + 1)))
    ids

let test_determinism () =
  let r1 = Ba_experiments.Exp_scaling.e9 ~quick:true ~seed:5L () in
  let r2 = Ba_experiments.Exp_scaling.e9 ~quick:true ~seed:5L () in
  Alcotest.(check string) "same seed, same report" r1.body r2.body;
  Alcotest.(check bool) "same seed, same metrics" true (r1.metrics = r2.metrics);
  let r3 = Ba_experiments.Exp_scaling.e9 ~quick:true ~seed:6L () in
  Alcotest.(check bool) "different seed, different report" true (r1.body <> r3.body)

let test_legacy_ablation_runners () =
  (* E11a/E11b stay callable on their own even though the registry
     exposes them as the single merged E11. *)
  let a = Ba_experiments.Exp_ablations.e11_alpha ~quick:true ~seed () in
  let b = Ba_experiments.Exp_ablations.e11_coin_round ~quick:true ~seed () in
  Alcotest.(check string) "alpha ablation id" "E11a" a.id;
  Alcotest.(check string) "coin-round ablation id" "E11b" b.id

let () =
  Alcotest.run "ba_experiments"
    [ ("registry-reports", registry_cases);
      ("meta",
       [ Alcotest.test_case "DESIGN.md section 5 coverage" `Quick test_design_md_coverage;
         Alcotest.test_case "descriptors tagged and claimed" `Quick test_every_descriptor_tagged;
         Alcotest.test_case "registry in numeric id order" `Quick test_registry_order;
         Alcotest.test_case "reports deterministic in seed" `Quick test_determinism;
         Alcotest.test_case "legacy ablation runners" `Slow test_legacy_ablation_runners ]) ]
