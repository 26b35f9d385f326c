(* Adversary strategy library: corruption schedules, caps, and the
   committee-killer's planning logic. *)

open Ba_experiments

let mk_view ?(round = 1) ?(n = 8) ?(t = 3) ?(corrupted = None) ?(halted = None)
    ?(honest_msgs = None) () : (unit, Ba_core.Skeleton.msg) Ba_sim.Adversary.view =
  { Ba_sim.Adversary.round;
    n;
    t;
    corrupted = Option.value corrupted ~default:(Array.make n false);
    budget_left = t;
    halted = Option.value halted ~default:(Array.make n false);
    honest_msgs = Option.value honest_msgs ~default:(Array.make n None);
    states = Array.make n None;
    views = Array.make n None }

let test_silent_is_noop () =
  let action = Ba_sim.Adversary.silent.act (mk_view ()) in
  Alcotest.(check (list int)) "no corruptions" [] action.corrupt;
  Alcotest.(check bool) "no messages" true (action.byz_msg ~src:0 ~dst:1 = None)

let test_static_crash_round1_only () =
  let adv = Ba_adversary.Generic.static_crash ~rng:(Ba_prng.Rng.create 1L) in
  let a1 = adv.act (mk_view ~round:1 ()) in
  Alcotest.(check int) "corrupts full budget" 3 (List.length a1.corrupt);
  let a2 = adv.act (mk_view ~round:2 ()) in
  Alcotest.(check (list int)) "silent after round 1" [] a2.corrupt

let test_staggered_crash_rate () =
  let adv = Ba_adversary.Generic.staggered_crash ~rng:(Ba_prng.Rng.create 2L) ~per_round:2 in
  let a = adv.act (mk_view ~round:1 ()) in
  Alcotest.(check int) "two per round" 2 (List.length a.corrupt);
  (* never picks corrupted or halted nodes *)
  let corrupted = Array.make 8 false in
  corrupted.(0) <- true;
  let halted = Array.make 8 false in
  halted.(1) <- true;
  for _ = 1 to 20 do
    let a = adv.act (mk_view ~corrupted:(Some corrupted) ~halted:(Some halted) ()) in
    List.iter
      (fun v -> Alcotest.(check bool) "picks live honest" true (v <> 0 && v <> 1))
      a.corrupt
  done

let test_crash_at () =
  let adv = Ba_adversary.Generic.crash_at ~round:3 ~victims:[ 1; 2 ] in
  Alcotest.(check (list int)) "before" [] (adv.act (mk_view ~round:2 ())).corrupt;
  Alcotest.(check (list int)) "at round" [ 1; 2 ] (adv.act (mk_view ~round:3 ())).corrupt;
  Alcotest.(check (list int)) "after" [] (adv.act (mk_view ~round:4 ())).corrupt

let test_capped_limits_total () =
  let greedy =
    { Ba_sim.Adversary.adv_name = "greedy";
      act =
        (fun view ->
          { Ba_sim.Adversary.corrupt = List.init view.Ba_sim.Adversary.budget_left Fun.id;
            byz_msg = (fun ~src:_ ~dst:_ -> None) }) }
  in
  let adv = Ba_adversary.Generic.capped ~limit:4 greedy in
  let a1 = adv.act (mk_view ~round:1 ()) in
  (* inner sees budget 3 (engine budget t=3) -> min(3, 4-0) = 3 *)
  Alcotest.(check int) "first call capped by engine budget" 3 (List.length a1.corrupt);
  let a2 = adv.act (mk_view ~round:2 ()) in
  Alcotest.(check int) "second call sees remaining 1" 1 (List.length a2.corrupt);
  let a3 = adv.act (mk_view ~round:3 ()) in
  Alcotest.(check int) "exhausted" 0 (List.length a3.corrupt)

let test_capped_zero () =
  let adv = Ba_adversary.Generic.capped ~limit:0 (Ba_adversary.Generic.static_crash ~rng:(Ba_prng.Rng.create 3L)) in
  let a = adv.act (mk_view ~round:1 ()) in
  Alcotest.(check (list int)) "no corruption allowed" [] a.corrupt

(* Committee-killer planning: run it in-engine and assert its spending
   pattern: corruptions only land in the current phase's committee. *)
let test_killer_spends_in_committee () =
  let n = 64 and t = 21 in
  let inst = Ba_core.Agreement.make ~n ~t () in
  let designated ~phase v = Ba_core.Agreement.is_flipper inst ~phase v in
  let adv = Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated in
  let o =
    Ba_sim.Engine.run ~record:true ~max_rounds:500 ~protocol:inst.protocol ~adversary:adv ~n ~t
      ~inputs:(Setups.inputs Setups.Split ~n ~t) ~seed:7L ()
  in
  Alcotest.(check bool) "run clean" true (Ba_sim.Run.agreement_holds o);
  Alcotest.(check bool) "spent something" true (o.corruptions_used > 0);
  List.iter
    (fun (r : Ba_sim.Run.round_record) ->
      match r.rr_new_corruptions with
      | [] -> ()
      | victims ->
          let phase, _ = Ba_core.Skeleton.phase_of_round inst.config ~round:r.rr_round in
          List.iter
            (fun v ->
              Alcotest.(check bool)
                (Printf.sprintf "round %d: victim %d in committee of phase %d" r.rr_round v phase)
                true (designated ~phase v))
            victims)
    o.records

let test_killer_saves_budget_when_unanimous () =
  let n = 64 and t = 21 in
  let inst = Ba_core.Agreement.make ~n ~t () in
  let designated ~phase v = Ba_core.Agreement.is_flipper inst ~phase v in
  let adv = Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated in
  let o =
    Ba_sim.Engine.run ~max_rounds:500 ~protocol:inst.protocol ~adversary:adv ~n ~t
      ~inputs:(Array.make n 1) ~seed:8L ()
  in
  Alcotest.(check int) "no corruptions on unanimous inputs" 0 o.corruptions_used

let test_crash_killer_weaker_than_byzantine () =
  let n = 64 and t = 21 in
  let inst = Ba_core.Las_vegas.make ~n ~t () in
  let designated ~phase v =
    Ba_core.Committee.is_member inst.committees
      (Ba_core.Committee.for_phase inst.committees ~phase) v
  in
  let mean adv_of =
    let s = Ba_stats.Summary.create () in
    for seed = 1 to 8 do
      let o =
        Ba_sim.Engine.run ~max_rounds:2000 ~protocol:inst.protocol ~adversary:(adv_of ())
          ~n ~t ~inputs:(Setups.inputs Setups.Split ~n ~t)
          ~seed:(Int64.of_int (seed * 101)) ()
      in
      Alcotest.(check bool) "agreement" true (Ba_sim.Run.agreement_holds o);
      Ba_stats.Summary.add_int s (Ba_sim.Run.span_units o.span)
    done;
    Ba_stats.Summary.mean s
  in
  let crash =
    mean (fun () ->
        Ba_adversary.Skeleton_adv.crash_committee_killer ~config:inst.config ~designated)
  in
  let byz =
    mean (fun () ->
        Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated)
  in
  Alcotest.(check bool) (Printf.sprintf "crash %.1f < byzantine %.1f" crash byz) true
    (crash < byz)

let test_crash_killer_only_replays_real_messages () =
  (* The crash killer may only deliver (subsets of) the victim's own
     suppressed broadcast — check by running with record and verifying
     agreement plus standard invariants (a forged message could break
     decided-coherence). *)
  let n = 40 and t = 13 in
  let inst = Ba_core.Las_vegas.make ~n ~t () in
  let designated ~phase v =
    Ba_core.Committee.is_member inst.committees
      (Ba_core.Committee.for_phase inst.committees ~phase) v
  in
  for seed = 1 to 10 do
    let o =
      Ba_sim.Engine.run ~record:true ~max_rounds:2000 ~protocol:inst.protocol
        ~adversary:(Ba_adversary.Skeleton_adv.crash_committee_killer ~config:inst.config ~designated)
        ~n ~t ~inputs:(Setups.inputs Setups.Split ~n ~t) ~seed:(Int64.of_int seed) ()
    in
    Alcotest.(check (list string)) "clean" []
      (List.map (fun v -> Format.asprintf "%a" Ba_trace.Checker.pp_violation v)
         (Ba_trace.Checker.standard ~rounds_per_phase:2 o))
  done

let test_equivocator_full_budget_up_front () =
  let n = 40 and t = 13 in
  let inst = Ba_core.Agreement.make ~n ~t () in
  let adv = Ba_adversary.Skeleton_adv.equivocator ~rng:(Ba_prng.Rng.create 9L) ~config:inst.config in
  let o =
    Ba_sim.Engine.run ~record:true ~max_rounds:500 ~protocol:inst.protocol ~adversary:adv ~n ~t
      ~inputs:(Setups.inputs Setups.Split ~n ~t) ~seed:9L ()
  in
  Alcotest.(check int) "all t corrupted" t o.corruptions_used;
  match o.records with
  | first :: _ -> Alcotest.(check int) "in round 1" t (List.length first.rr_new_corruptions)
  | [] -> Alcotest.fail "no records"

let test_splitter_optimality_on_crafted_flips () =
  (* Engine with a known seed: compare the splitter's success against the
     closed-form predicate on reconstructed flips (it must succeed exactly
     when the model says splitting is possible). *)
  let n = 12 in
  let budget = 2 in
  let successes = ref 0 and predicted = ref 0 in
  for s = 1 to 60 do
    let seed = Int64.of_int (s * 31) in
    let master = Ba_prng.Rng.create seed in
    let rngs = Ba_prng.Rng.split_n master n in
    let sum = Array.fold_left (fun acc rng -> acc + Ba_prng.Rng.sign rng) 0 rngs in
    if Ba_core.Common_coin.commons ~flippers:n ~sum ~budget = None then incr predicted;
    let o =
      Ba_sim.Engine.run ~max_rounds:2 ~protocol:Ba_core.Common_coin.algorithm1
        ~adversary:(Ba_adversary.Coin_adv.splitter ~designated:(fun _ -> true))
        ~n ~t:budget ~inputs:(Array.make n 0) ~seed ()
    in
    if not (Ba_sim.Run.agreement_holds o) then incr successes
  done;
  Alcotest.(check int) "splits exactly when predicted" !predicted !successes

let test_biaser_biases () =
  let n = 64 and budget = 8 in
  let ones = ref 0 in
  for s = 1 to 60 do
    let adv =
      Ba_adversary.Coin_adv.biaser ~designated:(fun _ -> true) ~toward:1
        ~rng:(Ba_prng.Rng.create (Int64.of_int s))
    in
    let o =
      Ba_sim.Engine.run ~max_rounds:2 ~protocol:Ba_core.Common_coin.algorithm1 ~adversary:adv
        ~n ~t:budget ~inputs:(Array.make n 0) ~seed:(Int64.of_int (s * 77)) ()
    in
    match Ba_sim.Run.honest_outputs o with
    | (_, 1) :: _ -> incr ones
    | _ -> ()
  done;
  (* 8 extra +1 votes shift the mean by 8 = sigma: clearly above 1/2. *)
  Alcotest.(check bool) (Printf.sprintf "biased: %d/60 ones" !ones) true (!ones >= 40)

let prop_generic_adversaries_respect_interfaces =
  QCheck.Test.make ~name:"generic adversaries corrupt within [0, n)" ~count:100
    QCheck.(pair int64 (int_range 2 30))
    (fun (seed, n) ->
      let t = (n - 1) / 3 in
      QCheck.assume (t >= 1);
      let advs =
        [ Ba_adversary.Generic.static_crash ~rng:(Ba_prng.Rng.create seed);
          Ba_adversary.Generic.staggered_crash ~rng:(Ba_prng.Rng.create seed) ~per_round:2 ]
      in
      List.for_all
        (fun (adv : (unit, Ba_core.Skeleton.msg) Ba_sim.Adversary.t) ->
          let a = adv.act (mk_view ~n ~t ()) in
          List.for_all (fun v -> v >= 0 && v < n) a.corrupt)
        advs)

let () =
  Alcotest.run "ba_adversary"
    [ ("generic",
       [ Alcotest.test_case "silent" `Quick test_silent_is_noop;
         Alcotest.test_case "static crash" `Quick test_static_crash_round1_only;
         Alcotest.test_case "staggered crash" `Quick test_staggered_crash_rate;
         Alcotest.test_case "crash_at" `Quick test_crash_at;
         Alcotest.test_case "capped total" `Quick test_capped_limits_total;
         Alcotest.test_case "capped zero" `Quick test_capped_zero ]);
      ("committee-killer",
       [ Alcotest.test_case "spends in committee" `Quick test_killer_spends_in_committee;
         Alcotest.test_case "saves budget when unanimous" `Quick
           test_killer_saves_budget_when_unanimous;
         Alcotest.test_case "crash variant weaker" `Slow
           test_crash_killer_weaker_than_byzantine;
         Alcotest.test_case "crash variant honest" `Quick
           test_crash_killer_only_replays_real_messages ]);
      ("skeleton-adversaries",
       [ Alcotest.test_case "equivocator up-front" `Quick test_equivocator_full_budget_up_front ]);
      ("coin-adversaries",
       [ Alcotest.test_case "splitter optimal" `Quick test_splitter_optimality_on_crafted_flips;
         Alcotest.test_case "biaser biases" `Quick test_biaser_biases ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_generic_adversaries_respect_interfaces ]) ]
