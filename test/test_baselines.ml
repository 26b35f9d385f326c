(* Baselines: Chor-Coan, Rabin, local-coin, Phase King, EIG. *)

open Ba_experiments

let run_checked ?(pattern = Setups.Split) ~protocol ~adversary ~n ~t ~seed () =
  let run = Setups.make ~protocol ~adversary ~n ~t in
  let inputs = Setups.inputs pattern ~n ~t in
  let o = run.exec ~record:true ~inputs ~seed () in
  (o, Ba_trace.Checker.standard ?rounds_per_phase:run.rounds_per_phase o)

let check_clean name (o, violations) =
  Alcotest.(check (list string)) (name ^ ": no violations") []
    (List.map (fun v -> Format.asprintf "%a" Ba_trace.Checker.pp_violation v) violations);
  Alcotest.(check bool) (name ^ ": completed") true o.Ba_sim.Run.completed

(* ---------------- Chor-Coan ---------------- *)

let test_chor_coan_structure () =
  let inst = Ba_baselines.Chor_coan.make ~n:64 ~t:21 () in
  let g = Ba_core.Committee.size inst.groups in
  (* beta = 1: group size = ceil(log2 64) = 6 *)
  Alcotest.(check int) "group size log n" 6 g;
  Alcotest.(check int) "group count" (64 / 6) (Ba_core.Committee.count inst.groups)

let test_chor_coan_agreement () =
  List.iter
    (fun adversary ->
      for s = 1 to 6 do
        check_clean
          (Printf.sprintf "cc %s seed %d" (Setups.adversary_name adversary) s)
          (run_checked ~protocol:Setups.Chor_coan_lv ~adversary ~n:40 ~t:13
             ~seed:(Int64.of_int s) ())
      done)
    [ Setups.Silent; Setups.Static_crash; Setups.Committee_killer; Setups.Equivocator ]

let test_chor_coan_validity () =
  List.iter
    (fun b ->
      let o, v =
        run_checked ~pattern:(Setups.Unanimous b) ~protocol:Setups.Chor_coan_lv
          ~adversary:Setups.Committee_killer ~n:40 ~t:13 ~seed:3L ()
      in
      check_clean "cc validity" (o, v);
      List.iter (fun (_, out) -> Alcotest.(check int) "value" b out)
        (Ba_sim.Run.honest_outputs o))
    [ 0; 1 ]

let test_chor_coan_slower_than_alg3 () =
  (* Under the killer at moderate t, ours should beat CC on average.
     (At n=256, t=16 ours uses committees of ~21 > log n, so coins are
     far more corruption-expensive to kill.) *)
  let n = 256 and t = 16 in
  let mean proto =
    let s = Ba_stats.Summary.create () in
    for seed = 1 to 6 do
      let o, v =
        run_checked ~protocol:proto ~adversary:Setups.Committee_killer ~n ~t
          ~seed:(Int64.of_int (seed * 13)) ()
      in
      check_clean "run" (o, v);
      Ba_stats.Summary.add_int s (Ba_sim.Run.span_units o.span)
    done;
    Ba_stats.Summary.mean s
  in
  let ours = mean (Setups.Las_vegas { alpha = 2.0 }) in
  let cc = mean Setups.Chor_coan_lv in
  Alcotest.(check bool) (Printf.sprintf "ours %.1f < cc %.1f" ours cc) true (ours < cc)

(* ---------------- Rabin ---------------- *)

let test_rabin_fast_and_clean () =
  for s = 1 to 10 do
    let o, v =
      run_checked ~protocol:Setups.Rabin ~adversary:Setups.Static_crash ~n:40 ~t:13
        ~seed:(Int64.of_int s) ()
    in
    check_clean "rabin" (o, v);
    (* Dealer coin matches b_i with prob 1/2 per phase: runs are short. *)
    let rounds = Ba_sim.Run.span_units o.span in
    Alcotest.(check bool) (Printf.sprintf "short run (%d rounds)" rounds) true (rounds <= 30)
  done

let test_rabin_dealer_consistency () =
  (* All nodes must see the same dealer coin: agreement on a silent run
     with split inputs is immediate evidence (phase good on first coin). *)
  for s = 1 to 10 do
    check_clean "rabin dealer"
      (run_checked ~protocol:Setups.Rabin ~adversary:Setups.Silent ~n:22 ~t:7
         ~seed:(Int64.of_int (100 + s)) ())
  done

(* ---------------- Local coin ---------------- *)

let test_local_coin_small_n_terminates () =
  (* Exponential in the number of undecided nodes: keep n tiny. *)
  for s = 1 to 5 do
    let o, v =
      run_checked ~protocol:Setups.Local_coin ~adversary:Setups.Silent ~n:7 ~t:2
        ~seed:(Int64.of_int s) ()
    in
    check_clean "local coin" (o, v)
  done

let test_local_coin_slower_than_shared () =
  let total proto =
    let acc = ref 0 in
    for s = 1 to 8 do
      let o, _ =
        run_checked ~protocol:proto ~adversary:Setups.Silent ~n:13 ~t:4
          ~seed:(Int64.of_int (s * 7)) ()
      in
      acc := !acc + Ba_sim.Run.span_units o.span
    done;
    !acc
  in
  let local = total Setups.Local_coin in
  let shared = total Setups.Rabin in
  Alcotest.(check bool) (Printf.sprintf "local %d > shared %d" local shared) true (local > shared)

(* ---------------- Phase King ---------------- *)

let test_phase_king_deterministic_rounds () =
  let n = 41 and t = 9 in
  let o, v =
    run_checked ~protocol:Setups.Phase_king ~adversary:Setups.Silent ~n ~t ~seed:1L ()
  in
  check_clean "phase king" (o, v);
  Alcotest.(check int) "exactly 2(t+1) rounds" (2 * (t + 1)) (Ba_sim.Run.span_units o.span)

let test_phase_king_validity_and_agreement () =
  List.iter
    (fun adversary ->
      List.iter
        (fun pattern ->
          for s = 1 to 4 do
            check_clean "pk"
              (run_checked ~pattern ~protocol:Setups.Phase_king ~adversary ~n:41 ~t:9
                 ~seed:(Int64.of_int s) ())
          done)
        [ Setups.Unanimous 0; Setups.Unanimous 1; Setups.Split ])
    [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 1 ]

let test_phase_king_requires_n_gt_4t () =
  Alcotest.check_raises "n = 4t rejected"
    (Invalid_argument "Phase_king.make: this variant needs n > 4t") (fun () ->
      ignore (Ba_baselines.Phase_king.make ~n:36 ~t:9))

let test_phase_king_byzantine_king () =
  (* A Byzantine king equivocating its tiebreak must not break agreement
     when some honest node has a strong majority; craft it directly. *)
  let n = 9 and t = 2 in
  let evil_king =
    { Ba_sim.Adversary.adv_name = "evil-king";
      act =
        (fun view ->
          (* Corrupt node 0 (king of phase 1) in round 1. *)
          { Ba_sim.Adversary.corrupt = (if view.Ba_sim.Adversary.round = 1 then [ 0 ] else []);
            byz_msg =
              (fun ~src ~dst ->
                if src = 0 then
                  Some
                    { Ba_baselines.Phase_king.pk_phase = ((view.round - 1) / 2) + 1;
                      pk_king = true;
                      pk_val = dst mod 2 }
                else None) }) }
  in
  let o =
    Ba_sim.Engine.run ~max_rounds:50 ~protocol:Ba_baselines.Phase_king.protocol
      ~adversary:evil_king ~n ~t ~inputs:(Array.init n (fun i -> i mod 2)) ~seed:3L ()
  in
  Alcotest.(check bool) "agreement despite evil kings" true (Ba_sim.Run.agreement_holds o)

(* ---------------- EIG ---------------- *)

let test_eig_round_count () =
  let n = 7 and t = 2 in
  let o, v = run_checked ~protocol:Setups.Eig ~adversary:Setups.Silent ~n ~t ~seed:1L () in
  check_clean "eig" (o, v);
  Alcotest.(check int) "t+1 rounds" (t + 1) (Ba_sim.Run.span_units o.span)

let test_eig_validity () =
  List.iter
    (fun b ->
      let o, v =
        run_checked ~pattern:(Setups.Unanimous b) ~protocol:Setups.Eig
          ~adversary:Setups.Static_crash ~n:7 ~t:2 ~seed:5L ()
      in
      check_clean "eig validity" (o, v);
      List.iter (fun (_, out) -> Alcotest.(check int) "value" b out)
        (Ba_sim.Run.honest_outputs o))
    [ 0; 1 ]

let test_eig_agreement_with_byzantine_values () =
  (* Equivocating byzantine senders inside the EIG tree. *)
  let lying =
    { Ba_sim.Adversary.adv_name = "eig-liar";
      act =
        (fun view ->
          { Ba_sim.Adversary.corrupt = (if view.Ba_sim.Adversary.round = 1 then [ 0; 1 ] else []);
            byz_msg =
              (fun ~src ~dst ->
                (* send a made-up level-appropriate entry *)
                if view.round = 1 then Some [ ([], (src + dst) mod 2) ] else Some [] ) }) }
  in
  for s = 1 to 10 do
    let o =
      Ba_sim.Engine.run ~max_rounds:10 ~protocol:Ba_baselines.Eig.protocol ~adversary:lying
        ~n:7 ~t:2 ~inputs:[| 0; 1; 0; 1; 0; 1; 0 |] ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) "agreement" true (Ba_sim.Run.agreement_holds o)
  done

let test_eig_resolve_unit () =
  (* Hand-built tree, n=4, t=1: two levels. Root children (j): honest
     values 1,1,0 and a missing one; leaves echo. *)
  let tree = Hashtbl.create 16 in
  (* level 1 *)
  Hashtbl.add tree [ 0 ] 1;
  Hashtbl.add tree [ 1 ] 1;
  Hashtbl.add tree [ 2 ] 0;
  (* level 2 (leaves, |label| = t+1 = 2): echoes of the level-1 values *)
  List.iter
    (fun (label, v) -> Hashtbl.add tree label v)
    [ ([ 0; 1 ], 1); ([ 0; 2 ], 1); ([ 0; 3 ], 1);
      ([ 1; 0 ], 1); ([ 1; 2 ], 1); ([ 1; 3 ], 1);
      ([ 2; 0 ], 0); ([ 2; 1 ], 0); ([ 2; 3 ], 0);
      ([ 3; 0 ], 1); ([ 3; 1 ], 1); ([ 3; 2 ], 0) ];
  Alcotest.(check int) "root resolves to majority 1" 1 (Ba_baselines.Eig.resolve ~n:4 ~t:1 tree)

let test_eig_message_blowup_metered () =
  (* EIG's CONGEST violation is visible in max message size. *)
  let o, _ = run_checked ~protocol:Setups.Eig ~adversary:Setups.Silent ~n:7 ~t:2 ~seed:9L () in
  Alcotest.(check bool) "messages grow beyond CONGEST" true
    (Ba_sim.Metrics.max_bits_per_message o.Ba_sim.Run.metrics > 64)

let prop_eig_agreement_random_inputs =
  QCheck.Test.make ~name:"eig agreement on random inputs" ~count:25
    QCheck.(pair int64 (int_range 0 127))
    (fun (seed, bits) ->
      let n = 7 in
      let inputs = Array.init n (fun i -> (bits lsr i) land 1) in
      let o =
        Ba_sim.Engine.run ~max_rounds:10 ~protocol:Ba_baselines.Eig.protocol
          ~adversary:(Ba_adversary.Generic.static_crash ~rng:(Ba_prng.Rng.create seed))
          ~n ~t:2 ~inputs ~seed ()
      in
      Ba_sim.Run.agreement_holds o && Ba_sim.Run.validity_holds o)

let () =
  Alcotest.run "ba_baselines"
    [ ("chor-coan",
       [ Alcotest.test_case "structure" `Quick test_chor_coan_structure;
         Alcotest.test_case "agreement" `Slow test_chor_coan_agreement;
         Alcotest.test_case "validity" `Quick test_chor_coan_validity;
         Alcotest.test_case "slower than alg3" `Slow test_chor_coan_slower_than_alg3 ]);
      ("rabin",
       [ Alcotest.test_case "fast and clean" `Quick test_rabin_fast_and_clean;
         Alcotest.test_case "dealer consistency" `Quick test_rabin_dealer_consistency ]);
      ("local-coin",
       [ Alcotest.test_case "terminates at small n" `Quick test_local_coin_small_n_terminates;
         Alcotest.test_case "slower than shared coin" `Slow test_local_coin_slower_than_shared ]);
      ("phase-king",
       [ Alcotest.test_case "deterministic rounds" `Quick test_phase_king_deterministic_rounds;
         Alcotest.test_case "validity and agreement" `Slow test_phase_king_validity_and_agreement;
         Alcotest.test_case "n > 4t enforced" `Quick test_phase_king_requires_n_gt_4t;
         Alcotest.test_case "byzantine king" `Quick test_phase_king_byzantine_king ]);
      ("eig",
       [ Alcotest.test_case "round count" `Quick test_eig_round_count;
         Alcotest.test_case "validity" `Quick test_eig_validity;
         Alcotest.test_case "byzantine liars" `Quick test_eig_agreement_with_byzantine_values;
         Alcotest.test_case "resolve unit" `Quick test_eig_resolve_unit;
         Alcotest.test_case "message blowup metered" `Quick test_eig_message_blowup_metered ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_eig_agreement_random_inputs ]) ]
