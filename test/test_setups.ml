(* Setups registry: parsing, wiring, input patterns, compatibility rules. *)

open Ba_experiments

let test_parse_roundtrip () =
  List.iter
    (fun name ->
      match Setups.parse_protocol name with
      | Ok p -> Alcotest.(check string) "name roundtrip" name (Setups.protocol_name p)
      | Error e -> Alcotest.fail e)
    Setups.all_protocol_names

let test_parse_unknown () =
  (match Setups.parse_protocol "nope" with
  | Error msg -> Alcotest.(check bool) "mentions candidates" true (String.length msg > 20)
  | Ok _ -> Alcotest.fail "expected error");
  match Setups.parse_adversary "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_adversaries () =
  List.iter
    (fun name ->
      match Setups.parse_adversary name with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    Setups.all_adversary_names

let test_inputs_patterns () =
  let n = 40 and t = 13 in
  Alcotest.(check (array int)) "unanimous 1" (Array.make 5 1)
    (Setups.inputs (Setups.Unanimous 1) ~n:5 ~t:1);
  let split = Setups.inputs Setups.Split ~n ~t in
  let ones = Array.fold_left ( + ) 0 split in
  Alcotest.(check int) "balanced" 20 ones;
  let near = Setups.inputs Setups.Near_threshold ~n ~t in
  let ones = Array.fold_left ( + ) 0 near in
  Alcotest.(check bool)
    (Printf.sprintf "near-threshold %d in (n-2t, n-t)" ones)
    true
    (ones >= n - (2 * t) && ones < n - t)

let test_inputs_validation () =
  Alcotest.check_raises "bad unanimous"
    (Invalid_argument "Setups.inputs: unanimous value must be 0/1") (fun () ->
      ignore (Setups.inputs (Setups.Unanimous 2) ~n:4 ~t:1))

let test_incompatible_pairs_rejected () =
  Alcotest.(check bool) "phase-king x killer rejected" true
    (match Setups.make ~protocol:Setups.Phase_king ~adversary:Setups.Committee_killer ~n:41 ~t:9 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "eig size guard" true
    (match Setups.make ~protocol:Setups.Eig ~adversary:Setups.Silent ~n:50 ~t:16 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_run_names () =
  let run =
    Setups.make ~protocol:(Setups.Alg3 { alpha = 2.0; coin_round = `Piggyback })
      ~adversary:Setups.Committee_killer ~n:13 ~t:4
  in
  Alcotest.(check string) "protocol name" "algorithm3" run.run_protocol;
  Alcotest.(check string) "adversary name" "committee-killer" run.run_adversary;
  Alcotest.(check (option int)) "rounds per phase" (Some 2) run.rounds_per_phase

let test_exec_deterministic () =
  let run =
    Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 })
      ~adversary:Setups.Committee_killer ~n:22 ~t:7
  in
  let inputs = Setups.inputs Setups.Split ~n:22 ~t:7 in
  let o1 = run.exec ~record:false ~inputs ~seed:5L () in
  let o2 = run.exec ~record:false ~inputs ~seed:5L () in
  Alcotest.(check bool) "same span" true (o1.span = o2.span);
  Alcotest.(check (array (option int))) "same outputs" o1.outputs o2.outputs

let test_rabin_dealer_varies_with_seed () =
  (* Different run seeds must produce different dealer streams (else the
     adversary could predict the dealer across trials). *)
  let run = Setups.make ~protocol:Setups.Rabin ~adversary:Setups.Silent ~n:22 ~t:7 in
  let inputs = Setups.inputs Setups.Split ~n:22 ~t:7 in
  let outs =
    List.init 12 (fun i ->
        let o = run.exec ~record:false ~inputs ~seed:(Int64.of_int (i * 97)) () in
        match Ba_sim.Run.honest_outputs o with (_, b) :: _ -> b | [] -> -1)
  in
  Alcotest.(check bool) "both coin values appear across seeds" true
    (List.mem 0 outs && List.mem 1 outs)

let test_all_skeleton_pairs_construct () =
  let protocols =
    [ Setups.Alg3 { alpha = 2.0; coin_round = `Piggyback };
      Setups.Alg3 { alpha = 2.0; coin_round = `Extra };
      Setups.Las_vegas { alpha = 2.0 }; Setups.Chor_coan; Setups.Chor_coan_lv; Setups.Rabin;
      Setups.Local_coin ]
  in
  let adversaries =
    [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 1; Setups.Committee_killer;
      Setups.Equivocator; Setups.Lone_finisher 0; Setups.Random_noise 0.2 ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun a -> ignore (Setups.make ~protocol:p ~adversary:a ~n:22 ~t:7))
        adversaries)
    protocols

let () =
  Alcotest.run "ba_setups"
    [ ("parsing",
       [ Alcotest.test_case "protocol roundtrip" `Quick test_parse_roundtrip;
         Alcotest.test_case "unknown rejected" `Quick test_parse_unknown;
         Alcotest.test_case "adversaries parse" `Quick test_parse_adversaries ]);
      ("inputs",
       [ Alcotest.test_case "patterns" `Quick test_inputs_patterns;
         Alcotest.test_case "validation" `Quick test_inputs_validation ]);
      ("wiring",
       [ Alcotest.test_case "incompatible pairs" `Quick test_incompatible_pairs_rejected;
         Alcotest.test_case "run names" `Quick test_run_names;
         Alcotest.test_case "deterministic exec" `Quick test_exec_deterministic;
         Alcotest.test_case "rabin dealer varies" `Quick test_rabin_dealer_varies_with_seed;
         Alcotest.test_case "all skeleton pairs construct" `Quick
           test_all_skeleton_pairs_construct ]) ]
