(* Hypothesis tests: checked against known distribution values and by
   calibration (a correct test rejects a true null ~alpha of the time). *)

let check_close ?(eps = 1e-3) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.5f got %.5f" name expected actual)
    true
    (Float.abs (expected -. actual) < eps)

let test_chi_square_cdf_known () =
  (* chi2 CDF reference points. *)
  check_close "df=1 x=3.841 -> 0.95" 0.95 (Ba_stats.Tests.chi_square_cdf ~df:1 3.841459);
  check_close "df=2 x=5.991 -> 0.95" 0.95 (Ba_stats.Tests.chi_square_cdf ~df:2 5.991465);
  check_close "df=10 x=18.307 -> 0.95" 0.95 (Ba_stats.Tests.chi_square_cdf ~df:10 18.30704);
  check_close "df=5 x=0 -> 0" 0. (Ba_stats.Tests.chi_square_cdf ~df:5 0.)

let test_chi_square_uniform_balanced () =
  (* Perfectly balanced counts: statistic 0, p-value 1. *)
  let stat, p = Ba_stats.Tests.chi_square_uniform [| 100; 100; 100; 100 |] in
  check_close "stat" 0. stat;
  check_close "p" 1. p

let test_chi_square_uniform_skewed () =
  let _, p = Ba_stats.Tests.chi_square_uniform [| 300; 100; 100; 100 |] in
  Alcotest.(check bool) (Printf.sprintf "skew rejected (p=%g)" p) true (p < 1e-6)

let test_chi_square_gof () =
  (* Counts matching a non-uniform expected vector: high p. *)
  let _, p =
    Ba_stats.Tests.chi_square_gof ~expected:[| 0.5; 0.25; 0.25 |] [| 500; 250; 250 |]
  in
  check_close "perfect fit" 1. p;
  let _, p_bad =
    Ba_stats.Tests.chi_square_gof ~expected:[| 0.5; 0.25; 0.25 |] [| 250; 500; 250 |]
  in
  Alcotest.(check bool) "bad fit rejected" true (p_bad < 1e-6)

let test_chi_square_calibration () =
  (* Under a true uniform null, p < 0.05 should happen ~5% of the time. *)
  let rng = Ba_prng.Rng.create 5L in
  let rejections = ref 0 in
  let experiments = 400 in
  for _ = 1 to experiments do
    let counts = Array.make 8 0 in
    for _ = 1 to 800 do
      let b = Ba_prng.Rng.int rng 8 in
      counts.(b) <- counts.(b) + 1
    done;
    let _, p = Ba_stats.Tests.chi_square_uniform counts in
    if p < 0.05 then incr rejections
  done;
  let rate = float_of_int !rejections /. float_of_int experiments in
  Alcotest.(check bool) (Printf.sprintf "rejection rate %.3f ~ 0.05" rate) true
    (rate > 0.005 && rate < 0.12)

let test_ks_identical () =
  let xs = Array.init 200 float_of_int in
  let d, p = Ba_stats.Tests.ks_two_sample xs (Array.copy xs) in
  check_close "d = 0" 0. d;
  Alcotest.(check bool) "p high" true (p > 0.99)

let test_ks_disjoint () =
  let xs = Array.init 100 float_of_int in
  let ys = Array.init 100 (fun i -> float_of_int (i + 1000)) in
  let d, p = Ba_stats.Tests.ks_two_sample xs ys in
  check_close "d = 1" 1. d;
  Alcotest.(check bool) "p tiny" true (p < 1e-10)

let test_ks_same_distribution () =
  let rng = Ba_prng.Rng.create 7L in
  let draw () = Array.init 300 (fun _ -> Ba_prng.Rng.float rng) in
  let d, p = Ba_stats.Tests.ks_two_sample (draw ()) (draw ()) in
  Alcotest.(check bool) (Printf.sprintf "small d (%.3f)" d) true (d < 0.15);
  Alcotest.(check bool) (Printf.sprintf "p not tiny (%.3f)" p) true (p > 0.01)

let test_ks_engine_vs_model_rounds () =
  (* Integration: the engine's round distribution vs the phase model's
     should pass a KS test (they are the same distribution). *)
  let n = 40 and t = 13 in
  let engine_samples =
    Array.init 40 (fun i ->
        let run =
          Ba_experiments.Setups.make
            ~protocol:(Ba_experiments.Setups.Las_vegas { alpha = 2.0 })
            ~adversary:Ba_experiments.Setups.Committee_killer ~n ~t
        in
        let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t in
        let o = run.exec ~record:false ~inputs ~seed:(Int64.of_int (i * 131)) () in
        float_of_int (Ba_sim.Run.span_units o.span))
  in
  let rng = Ba_prng.Rng.create 11L in
  let model_samples =
    Array.init 300 (fun _ ->
        float_of_int (Ba_experiments.Fast_model.alg3 rng ~n ~t ~budget:t ()).rounds)
  in
  let _, p = Ba_stats.Tests.ks_two_sample engine_samples model_samples in
  Alcotest.(check bool) (Printf.sprintf "distributions match (p=%.4f)" p) true (p > 0.001)

let test_binomial_exact () =
  (* 5 heads in 10 fair flips: the most probable outcome, p-value 1. *)
  check_close "balanced" 1.0
    (Ba_stats.Tests.binomial_two_sided ~successes:5 ~trials:10 ~p:0.5);
  (* 0 heads in 20 fair flips: p = 2 * 2^-20 (both extreme tails). *)
  check_close ~eps:1e-7 "extreme" (2. /. 1048576.)
    (Ba_stats.Tests.binomial_two_sided ~successes:0 ~trials:20 ~p:0.5);
  (* Skewed null: 10/10 at p = 0.9 is not extreme. *)
  Alcotest.(check bool) "10/10 at p=0.9 plausible" true
    (Ba_stats.Tests.binomial_two_sided ~successes:10 ~trials:10 ~p:0.9 > 0.3)

let test_binomial_detects_bias () =
  let p = Ba_stats.Tests.binomial_two_sided ~successes:700 ~trials:1000 ~p:0.5 in
  Alcotest.(check bool) "70% heads at fair null rejected" true (p < 1e-9)

let test_coin_conditional_bias_via_binomial () =
  (* Definition 2(B): conditioned on Comm, the coin value is epsilon-bounded.
     Collect conditional outcomes and check we can't reject a bounded bias. *)
  let rng = Ba_prng.Rng.create 13L in
  let flippers = 1024 in
  let budget = 16 in
  let ones = ref 0 and common = ref 0 in
  for _ = 1 to 40000 do
    let x = Ba_core.Common_coin.honest_sum rng ~flippers in
    match Ba_core.Common_coin.commons ~flippers ~sum:x ~budget with
    | Some b ->
        incr common;
        if b = 1 then incr ones
    | None -> ()
  done;
  let frac = float_of_int !ones /. float_of_int !common in
  Alcotest.(check bool) (Printf.sprintf "bias %.3f in [0.25, 0.75]" frac) true
    (frac > 0.25 && frac < 0.75)

let test_validation () =
  Alcotest.check_raises "1 bucket" (Invalid_argument "Tests.chi_square: need at least 2 buckets")
    (fun () -> ignore (Ba_stats.Tests.chi_square_uniform [| 5 |]));
  Alcotest.check_raises "empty ks" (Invalid_argument "Tests.ks_two_sample: empty sample")
    (fun () -> ignore (Ba_stats.Tests.ks_two_sample [||] [| 1. |]));
  Alcotest.check_raises "binomial p=1" (Invalid_argument "Tests.binomial: p outside (0,1)")
    (fun () -> ignore (Ba_stats.Tests.binomial_two_sided ~successes:1 ~trials:2 ~p:1.))

let prop_chi_square_p_in_range =
  QCheck.Test.make ~name:"chi-square p in [0,1]" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 12) (int_range 1 500))
    (fun counts ->
      let counts = Array.of_list counts in
      let _, p = Ba_stats.Tests.chi_square_uniform counts in
      p >= 0. && p <= 1.)

let prop_ks_symmetric =
  QCheck.Test.make ~name:"ks statistic symmetric" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 10.))
              (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 10.)))
    (fun (l1, l2) ->
      let a = Array.of_list l1 and b = Array.of_list l2 in
      let d1, _ = Ba_stats.Tests.ks_two_sample a b in
      let d2, _ = Ba_stats.Tests.ks_two_sample b a in
      Float.abs (d1 -. d2) < 1e-12)

let () =
  Alcotest.run "ba_stat_tests"
    [ ("chi-square",
       [ Alcotest.test_case "cdf reference points" `Quick test_chi_square_cdf_known;
         Alcotest.test_case "balanced counts" `Quick test_chi_square_uniform_balanced;
         Alcotest.test_case "skew detected" `Quick test_chi_square_uniform_skewed;
         Alcotest.test_case "general gof" `Quick test_chi_square_gof;
         Alcotest.test_case "calibration" `Slow test_chi_square_calibration ]);
      ("kolmogorov-smirnov",
       [ Alcotest.test_case "identical samples" `Quick test_ks_identical;
         Alcotest.test_case "disjoint samples" `Quick test_ks_disjoint;
         Alcotest.test_case "same distribution" `Quick test_ks_same_distribution;
         Alcotest.test_case "engine vs model rounds" `Slow test_ks_engine_vs_model_rounds ]);
      ("binomial",
       [ Alcotest.test_case "exact values" `Quick test_binomial_exact;
         Alcotest.test_case "detects bias" `Quick test_binomial_detects_bias;
         Alcotest.test_case "coin conditional bias" `Slow test_coin_conditional_bias_via_binomial ]);
      ("validation", [ Alcotest.test_case "errors" `Quick test_validation ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_chi_square_p_in_range;
         QCheck_alcotest.to_alcotest prop_ks_symmetric ]) ]
