(* Las Vegas demo: the always-correct variant (Section 3.2) under fire.
   Shows the round distribution, early termination when the adversary
   under-spends, and the termination-detection machinery (Lemma 4).

     dune exec examples/las_vegas_demo.exe *)

open Ba_experiments

let () =
  let n = 96 in
  let t = Ba_core.Params.max_tolerated n in
  let run = Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~adversary:Setups.Committee_killer ~n ~t in
  let inputs = Setups.inputs Setups.Split ~n ~t in

  (* 1. Distribution of termination times under the worst-case adversary. *)
  let trials = 120 in
  let samples = Array.make trials 0. in
  for trial = 0 to trials - 1 do
    let seed = Ba_harness.Experiment.trial_seed ~seed:11L ~trial in
    let o = run.exec ~record:false ~inputs ~seed () in
    assert (o.completed && Ba_sim.Run.agreement_holds o);
    samples.(trial) <- float_of_int (Ba_sim.Run.span_units o.span)
  done;
  let hist = Ba_stats.Histogram.create ~lo:0. ~hi:(Array.fold_left Float.max 0. samples +. 4.) ~bins:10 in
  Array.iter (Ba_stats.Histogram.add hist) samples;
  Printf.printf "Las Vegas Algorithm 3, n=%d t=%d, committee-killer, %d runs (all agreed):\n" n
    t trials;
  Format.printf "%a@." (fun fmt h -> Ba_stats.Histogram.pp fmt h) hist;
  Format.printf "median %.0f rounds, p95 %.0f rounds@."
    (Ba_stats.Quantiles.median samples)
    (Ba_stats.Quantiles.quantile samples 0.95);

  (* 2. Early termination: same protocol, adversary capped at q < t. *)
  print_newline ();
  print_endline "early termination (Theorem 2): adversary capped at q corruptions";
  List.iter
    (fun q ->
      let inst = Ba_core.Las_vegas.make ~n ~t () in
      let designated ~phase v =
        Ba_core.Committee.is_member inst.committees
          (Ba_core.Committee.for_phase inst.committees ~phase)
          v
      in
      let adversary =
        Ba_adversary.Generic.capped ~limit:q
          (Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated)
      in
      let o =
        Ba_sim.Engine.run ~max_rounds:run.default_max_rounds ~protocol:inst.protocol ~adversary
          ~n ~t ~inputs ~seed:5L ()
      in
      Printf.printf "  q=%2d -> %3d rounds (used %d corruptions)\n" q (Ba_sim.Run.span_units o.span)
        o.corruptions_used)
    [ 0; 4; 8; 16; 31 ]
