(* Sampling-majority dynamics (related-work baseline). *)

let protocol = Ba_baselines.Sampling_majority.make ()

let run ?(adversary = Ba_sim.Adversary.silent) ?(rounds = None) ~n ~t ~inputs ~seed () =
  let protocol =
    match rounds with Some r -> Ba_baselines.Sampling_majority.make ~rounds:r () | None -> protocol
  in
  Ba_sim.Engine.run ~max_rounds:2000 ~protocol ~adversary ~n ~t ~inputs ~seed ()

let test_unanimous_stays () =
  (* Validity: a unanimous network cannot be flipped by its own sampling. *)
  List.iter
    (fun b ->
      let o = run ~n:32 ~t:0 ~inputs:(Array.make 32 b) ~seed:1L () in
      Alcotest.(check bool) "completed" true o.completed;
      List.iter (fun (_, out) -> Alcotest.(check int) "value" b out)
        (Ba_sim.Run.honest_outputs o))
    [ 0; 1 ]

let test_unanimous_stays_under_attack () =
  (* With a 2/3 supermajority and few byzantine, samples keep the majority:
     each honest flip needs both samples against its value. Convergence to
     the initial majority should be overwhelming. *)
  let n = 64 in
  let inputs = Array.init n (fun i -> if i < 55 then 1 else 0) in
  let adv =
    { Ba_sim.Adversary.adv_name = "push-0";
      act =
        (fun view ->
          { Ba_sim.Adversary.corrupt = (if view.Ba_sim.Adversary.round = 1 then [ 60; 61 ] else []);
            byz_msg = (fun ~src:_ ~dst:_ -> Some (Ba_baselines.Sampling_majority.Value 0)) }) }
  in
  let o = run ~adversary:adv ~n ~t:2 ~inputs ~seed:3L () in
  Alcotest.(check bool) "near-total agreement on 1" true
    (Ba_baselines.Sampling_majority.agreement_fraction o > 0.95);
  match Ba_sim.Run.honest_outputs o with
  | (_, b) :: _ -> Alcotest.(check int) "majority value wins" 1 b
  | [] -> Alcotest.fail "no outputs"

let test_split_converges_no_adversary () =
  (* From an even split with no Byzantine nodes, the dynamics converge to a
     common value in polylog rounds (which value is random). *)
  let agree = ref 0 in
  for s = 1 to 10 do
    let n = 64 in
    let o = run ~n ~t:0 ~inputs:(Array.init n (fun i -> i mod 2)) ~seed:(Int64.of_int s) () in
    if Ba_baselines.Sampling_majority.agreement_fraction o >= 1.0 then incr agree
  done;
  Alcotest.(check bool) (Printf.sprintf "converged %d/10" !agree) true (!agree >= 8)

let test_fixed_horizon_rounds () =
  let o = run ~rounds:(Some 7) ~n:16 ~t:0 ~inputs:(Array.make 16 1) ~seed:5L () in
  Alcotest.(check int) "runs exactly the horizon" 7 (Ba_sim.Run.span_units o.span)

let test_agreement_fraction_helper () =
  let mk outputs corrupted : Ba_sim.Run.outcome =
    { protocol_name = "x"; adversary_name = "y"; n = Array.length outputs; t = 1;
      inputs = Array.make (Array.length outputs) 0; span = Ba_sim.Run.Rounds 1; completed = true;
      outputs;
      corrupted; corruptions_used = 0; metrics = Ba_sim.Metrics.create (); records = [] }
  in
  let o = mk [| Some 1; Some 1; Some 0; None |] [| false; false; false; true |] in
  Alcotest.(check (float 1e-9)) "2/3" (2. /. 3.)
    (Ba_baselines.Sampling_majority.agreement_fraction o)

let test_degrades_past_sqrt_n () =
  (* The E12 shape at test scale: a splitter with 4 sqrt(n) corruptions
     must visibly hurt global agreement vs no adversary. *)
  let n = 144 in
  let split_adv budget seed =
    let rng = Ba_prng.Rng.create seed in
    { Ba_sim.Adversary.adv_name = "sampling-splitter";
      act =
        (fun view ->
          let corrupt =
            if view.Ba_sim.Adversary.round = 1 then
              Array.to_list
                (Ba_prng.Rng.sample_without_replacement rng ~k:(min budget view.budget_left)
                   ~n:view.n)
            else []
          in
          { Ba_sim.Adversary.corrupt;
            byz_msg =
              (fun ~src:_ ~dst -> Some (Ba_baselines.Sampling_majority.Value (dst mod 2))) }) }
  in
  let mean_fraction budget =
    let acc = ref 0. in
    for s = 1 to 8 do
      let o =
        run
          ~adversary:(split_adv budget (Int64.of_int (s * 17)))
          ~n ~t:(max budget 1)
          ~inputs:(Array.init n (fun i -> i mod 2))
          ~seed:(Int64.of_int s) ()
      in
      acc := !acc +. Ba_baselines.Sampling_majority.agreement_fraction o
    done;
    !acc /. 8.
  in
  let clean = mean_fraction 0 and attacked = mean_fraction 48 in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f (clean) > %.3f (attacked)" clean attacked)
    true (clean > attacked)

let prop_outputs_binary =
  QCheck.Test.make ~name:"outputs always binary" ~count:30
    QCheck.(pair int64 (int_range 4 40))
    (fun (seed, n) ->
      let o = run ~n ~t:0 ~inputs:(Array.init n (fun i -> i mod 2)) ~seed () in
      List.for_all (fun (_, b) -> b = 0 || b = 1) (Ba_sim.Run.honest_outputs o))

let () =
  Alcotest.run "ba_sampling_majority"
    [ ("dynamics",
       [ Alcotest.test_case "unanimous stays" `Quick test_unanimous_stays;
         Alcotest.test_case "supermajority survives attack" `Quick
           test_unanimous_stays_under_attack;
         Alcotest.test_case "split converges" `Quick test_split_converges_no_adversary;
         Alcotest.test_case "fixed horizon" `Quick test_fixed_horizon_rounds;
         Alcotest.test_case "degrades past sqrt n" `Slow test_degrades_past_sqrt_n ]);
      ("helpers",
       [ Alcotest.test_case "agreement fraction" `Quick test_agreement_fraction_helper ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_outputs_binary ]) ]
