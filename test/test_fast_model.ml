(* Phase-level worst-case model: internal consistency and cross-validation
   against the reference engine. *)

let test_zero_budget_first_phase () =
  (* With no corruptions the first coin always survives: 1 phase, 6 rounds. *)
  let rng = Ba_prng.Rng.create 1L in
  for _ = 1 to 50 do
    let r = Ba_experiments.Fast_model.alg3 rng ~n:64 ~t:21 ~budget:0 () in
    Alcotest.(check int) "one phase" 1 r.phases;
    Alcotest.(check int) "six rounds" 6 r.rounds;
    Alcotest.(check int) "no corruptions" 0 r.corruptions
  done

let test_rounds_formula () =
  let rng = Ba_prng.Rng.create 2L in
  for _ = 1 to 100 do
    let r = Ba_experiments.Fast_model.alg3 rng ~n:64 ~t:21 ~budget:21 () in
    Alcotest.(check int) "rounds = 2*phases + 4" ((2 * r.phases) + 4) r.rounds;
    Alcotest.(check bool) "corruptions within budget" true (r.corruptions <= 21)
  done

let test_budget_monotone () =
  (* More budget -> more expected phases survived by the adversary. *)
  let mean budget =
    let rng = Ba_prng.Rng.create 3L in
    let s = Ba_stats.Summary.create () in
    for _ = 1 to 400 do
      Ba_stats.Summary.add_int s
        (Ba_experiments.Fast_model.alg3 rng ~n:256 ~t:85 ~budget ()).Ba_experiments.Fast_model.rounds
    done;
    Ba_stats.Summary.mean s
  in
  let m0 = mean 0 and m20 = mean 20 and m85 = mean 85 in
  Alcotest.(check bool) (Printf.sprintf "%f < %f < %f" m0 m20 m85) true (m0 < m20 && m20 < m85)

let test_budget_validation () =
  let rng = Ba_prng.Rng.create 4L in
  Alcotest.check_raises "budget > t" (Invalid_argument "Fast_model.alg3: budget > t")
    (fun () -> ignore (Ba_experiments.Fast_model.alg3 rng ~n:64 ~t:10 ~budget:11 ()));
  Alcotest.check_raises "cc budget > t" (Invalid_argument "Fast_model.chor_coan: budget > t")
    (fun () -> ignore (Ba_experiments.Fast_model.chor_coan rng ~n:64 ~t:10 ~budget:11 ()))

let engine_mean ~n ~t ~trials =
  let s = Ba_stats.Summary.create () in
  for i = 1 to trials do
    let run =
      Ba_experiments.Setups.make ~protocol:(Ba_experiments.Setups.Las_vegas { alpha = 2.0 })
        ~adversary:Ba_experiments.Setups.Committee_killer ~n ~t
    in
    let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t in
    let o = run.exec ~record:false ~inputs ~seed:(Int64.of_int (i * 1009)) () in
    assert (Ba_sim.Run.agreement_holds o);
    Ba_stats.Summary.add_int s (Ba_sim.Run.span_units o.span)
  done;
  s

let model_mean ~n ~t ~trials =
  let rng = Ba_prng.Rng.create 77L in
  let s = Ba_stats.Summary.create () in
  for _ = 1 to trials do
    Ba_stats.Summary.add_int s
      (Ba_experiments.Fast_model.alg3 rng ~n ~t ~budget:t ()).Ba_experiments.Fast_model.rounds
  done;
  s

let test_cross_validation_against_engine () =
  (* The model's mean rounds must sit within the engine's 5-sigma band. *)
  List.iter
    (fun (n, t) ->
      let e = engine_mean ~n ~t ~trials:15 in
      let m = model_mean ~n ~t ~trials:500 in
      let diff = Float.abs (Ba_stats.Summary.mean e -. Ba_stats.Summary.mean m) in
      let tolerance = 5. *. (Ba_stats.Summary.stderr e +. Ba_stats.Summary.stderr m) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d t=%d engine %.1f vs model %.1f (tol %.1f)" n t
           (Ba_stats.Summary.mean e) (Ba_stats.Summary.mean m) tolerance)
        true (diff <= tolerance))
    [ (40, 13); (64, 21); (128, 16) ]

let test_chor_coan_model_structure () =
  (* CC groups of ~log n are cheap to kill: with full budget t the run
     should survive ~t/O(1) phases, far more than alg3's committee count
     at small t. *)
  let rng = Ba_prng.Rng.create 5L in
  let r = Ba_experiments.Fast_model.chor_coan rng ~n:65536 ~t:1024 ~budget:1024 () in
  Alcotest.(check bool) (Printf.sprintf "many phases (%d)" r.phases) true (r.phases > 100)

let test_deterministic_in_rng () =
  let go () =
    let rng = Ba_prng.Rng.create 9L in
    List.init 20 (fun _ ->
        (Ba_experiments.Fast_model.alg3 rng ~n:256 ~t:50 ~budget:50 ()).Ba_experiments.Fast_model.rounds)
  in
  Alcotest.(check (list int)) "reproducible" (go ()) (go ())

let prop_result_sane =
  QCheck.Test.make ~name:"model results always well-formed" ~count:200
    QCheck.(triple int64 (int_range 4 2048) (int_range 0 500))
    (fun (seed, n, budget) ->
      let t = Ba_core.Params.max_tolerated n in
      QCheck.assume (t >= 1);
      let budget = min budget t in
      let rng = Ba_prng.Rng.create seed in
      let r = Ba_experiments.Fast_model.alg3 rng ~n ~t ~budget () in
      r.phases >= 1 && r.rounds = (2 * r.phases) + 4 && r.corruptions <= budget)

let () =
  Alcotest.run "ba_fast_model"
    [ ("unit",
       [ Alcotest.test_case "zero budget" `Quick test_zero_budget_first_phase;
         Alcotest.test_case "rounds formula" `Quick test_rounds_formula;
         Alcotest.test_case "budget monotone" `Quick test_budget_monotone;
         Alcotest.test_case "budget validation" `Quick test_budget_validation;
         Alcotest.test_case "chor-coan structure" `Quick test_chor_coan_model_structure;
         Alcotest.test_case "deterministic" `Quick test_deterministic_in_rng ]);
      ("cross-validation",
       [ Alcotest.test_case "matches engine" `Slow test_cross_validation_against_engine ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_result_sane ]) ]
