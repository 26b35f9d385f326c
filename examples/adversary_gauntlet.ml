(* Adversary gauntlet: every protocol against every compatible adversary,
   with invariant checking — the library's conformance matrix at a glance.

     dune exec examples/adversary_gauntlet.exe *)

open Ba_experiments

let trials = 3

let gauntlet protocol adversaries ~n ~t =
  List.concat_map
    (fun adversary ->
      let run = Setups.make ~protocol ~adversary ~n ~t in
      let rounds = Ba_stats.Summary.create () in
      let clean = ref 0 in
      for trial = 0 to trials - 1 do
        let seed = Ba_harness.Experiment.trial_seed ~seed:7L ~trial in
        let inputs = Setups.inputs Setups.Split ~n ~t in
        let o = run.exec ~record:true ~inputs ~seed () in
        Ba_stats.Summary.add_int rounds (Ba_sim.Run.span_units o.span);
        if Ba_trace.Checker.standard ?rounds_per_phase:run.rounds_per_phase o = [] then
          incr clean
      done;
      [ [ run.run_protocol; string_of_int n; string_of_int t; run.run_adversary;
          Ba_harness.Table.fmt_mean_ci rounds; Printf.sprintf "%d/%d" !clean trials ] ])
    adversaries

let () =
  let skeleton_adversaries =
    [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 2; Setups.Committee_killer;
      Setups.Equivocator; Setups.Lone_finisher 0; Setups.Random_noise 0.4 ]
  in
  let generic_adversaries = [ Setups.Silent; Setups.Static_crash; Setups.Staggered_crash 1 ] in
  let rows =
    gauntlet (Setups.Alg3 { alpha = 2.0; coin_round = `Piggyback }) skeleton_adversaries ~n:64
      ~t:21
    @ gauntlet (Setups.Las_vegas { alpha = 2.0 }) skeleton_adversaries ~n:64 ~t:21
    @ gauntlet Setups.Chor_coan_lv skeleton_adversaries ~n:64 ~t:21
    @ gauntlet Setups.Rabin skeleton_adversaries ~n:64 ~t:21
    @ gauntlet Setups.Phase_king generic_adversaries ~n:65 ~t:16
    @ gauntlet Setups.Eig generic_adversaries ~n:7 ~t:2
  in
  print_string
    (Ba_harness.Table.render ~title:"adversary gauntlet (3 seeds each, all invariants checked)"
       ~headers:[ "protocol"; "n"; "t"; "adversary"; "rounds"; "clean" ]
       rows)
