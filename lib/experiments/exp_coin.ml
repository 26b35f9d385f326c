open Exp_common

module Report = Ba_harness.Report

(* ------------------------------------------------------------------ *)
(* E1 / E2 — common coin guarantees                                    *)
(* ------------------------------------------------------------------ *)

type coin_point = {
  cp_k : int;
  cp_budget : int;
  cp_source : string;  (* "model" | "engine" *)
  cp_trials : int;
  cp_p : float;
  cp_ci : Ba_stats.Ci.interval;
  cp_p1 : float;
  cp_bound : float;
}

let cp_pass p = p.cp_ci.Ba_stats.Ci.lo >= p.cp_bound

let coin_engine_check ~n ~budget ~trials ~seed =
  (* Algorithm 1 in the real engine against the rushing splitter. *)
  let protocol = Ba_core.Common_coin.algorithm1 in
  let adversary = Ba_adversary.Coin_adv.splitter ~designated:(fun _ -> true) in
  let common = ref 0 and ones = ref 0 in
  for trial = 0 to trials - 1 do
    let s = Ba_harness.Experiment.trial_seed ~seed ~trial in
    let o =
      Ba_sim.Engine.run ~max_rounds:2 ~protocol ~adversary ~n ~t:budget
        ~inputs:(Array.make n 0) ~seed:s ()
    in
    if Ba_sim.Run.agreement_holds o then begin
      incr common;
      match Ba_sim.Run.honest_outputs o with
      | (_, 1) :: _ -> incr ones
      | _ -> ()
    end
  done;
  (!common, !ones)

let coin_points ~mode ~sizes ~mc_trials ~engine_trials ~seed =
  (* mode selects Algorithm 1 (flippers = n - budget among all n nodes) or
     Algorithm 2 (k designated of a larger network). *)
  let bound = 2. *. Ba_core.Common_coin.paley_zygmund_bound in
  List.concat_map
    (fun k ->
      let budget = isqrt k / 2 in
      let flippers = k in
      let rng = Ba_prng.Rng.create (seed_for ~seed ("coin-mc", k)) in
      let p, p1 =
        Ba_core.Common_coin.success_probability rng ~flippers ~budget ~trials:mc_trials
      in
      let ci =
        Ba_stats.Ci.wilson95
          ~successes:(int_of_float (p *. float_of_int mc_trials))
          ~trials:mc_trials
      in
      let mc =
        { cp_k = k; cp_budget = budget; cp_source = "model"; cp_trials = mc_trials;
          cp_p = p; cp_ci = ci; cp_p1 = p1; cp_bound = bound }
      in
      let engine =
        if mode = `Algorithm2 || k > 512 || engine_trials = 0 then []
        else begin
          let common, ones =
            coin_engine_check ~n:k ~budget ~trials:engine_trials
              ~seed:(seed_for ~seed ("coin-engine", k))
          in
          let p = float_of_int common /. float_of_int engine_trials in
          let p1 = if common = 0 then nan else float_of_int ones /. float_of_int common in
          let ci = Ba_stats.Ci.wilson95 ~successes:common ~trials:engine_trials in
          [ { cp_k = k; cp_budget = budget; cp_source = "engine"; cp_trials = engine_trials;
              cp_p = p; cp_ci = ci; cp_p1 = p1; cp_bound = bound } ]
        end
      in
      mc :: engine)
    sizes

let coin_headers =
  [ "flippers"; "byz"; "source"; "trials"; "Pr(Comm)"; "95% CI"; "Pr(1|Comm)";
    "PZ bound"; ">= bound" ]

let coin_row p =
  [ string_of_int p.cp_k; string_of_int p.cp_budget; p.cp_source; string_of_int p.cp_trials;
    Printf.sprintf "%.4f" p.cp_p;
    Printf.sprintf "[%.4f, %.4f]" p.cp_ci.Ba_stats.Ci.lo p.cp_ci.Ba_stats.Ci.hi;
    Printf.sprintf "%.4f" p.cp_p1; Printf.sprintf "%.4f" p.cp_bound;
    (if cp_pass p then "yes" else "NO") ]

let coin_metrics points =
  let bound = match points with p :: _ -> p.cp_bound | [] -> nan in
  let margins =
    List.map (fun p -> p.cp_ci.Ba_stats.Ci.lo -. p.cp_bound) points
  in
  let min_margin = List.fold_left min infinity margins in
  ("pz_bound", bound)
  :: ("min_ci_margin", min_margin)
  :: List.concat_map
       (fun p ->
         [ (mkey (Printf.sprintf "pr_comm_%s_k%d" p.cp_source p.cp_k), p.cp_p);
           (mkey (Printf.sprintf "ci_lo_%s_k%d" p.cp_source p.cp_k), p.cp_ci.Ba_stats.Ci.lo);
           (mkey (Printf.sprintf "pr_one_given_comm_%s_k%d" p.cp_source p.cp_k), p.cp_p1) ])
       points

let coin_series points =
  [ { Report.series_name = "pr_comm_model_vs_k";
      points =
        List.filter_map
          (fun p ->
            if p.cp_source = "model" then Some (float_of_int p.cp_k, p.cp_p) else None)
          points } ]

let e1 ?(quick = false) ~seed () =
  let sizes = if quick then [ 64; 256; 1024 ] else [ 64; 256; 1024; 4096; 16384 ] in
  let mc_trials = if quick then 20000 else 100000 in
  let engine_trials = if quick then 200 else 600 in
  let points = coin_points ~mode:`Algorithm1 ~sizes ~mc_trials ~engine_trials ~seed in
  let all_pass = List.for_all cp_pass points in
  Report.make ~id:"E1"
    ~title:"Theorem 3: Algorithm 1 is a common coin for t <= sqrt(n)/2"
    ~claim:"Theorem 3"
    ~metrics:(coin_metrics points)
    ~series:(coin_series points)
    ~verdict:(if all_pass then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Paper: Pr(Comm) >= 1/6 against a rushing adaptive adversary corrupting sqrt(n)/2 \
          flippers. Measured: %s (worst-case splitter; engine and closed-form model agree)."
         (if all_pass then "all sizes clear the bound" else "BOUND VIOLATED"))
    ~body:
      (Ba_harness.Table.render ~title:"common coin, all nodes flipping" ~headers:coin_headers
         (List.map coin_row points))
    ()

let e2 ?(quick = false) ~seed () =
  let sizes = if quick then [ 16; 64; 256 ] else [ 16; 64; 256; 1024; 4096 ] in
  let mc_trials = if quick then 20000 else 100000 in
  let points = coin_points ~mode:`Algorithm2 ~sizes ~mc_trials ~engine_trials:0 ~seed in
  let all_pass = List.for_all cp_pass points in
  Report.make ~id:"E2"
    ~title:"Corollary 1: designated-committee coin (Algorithm 2)"
    ~claim:"Corollary 1"
    ~metrics:(coin_metrics points)
    ~series:(coin_series points)
    ~verdict:(if all_pass then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Paper: k designated flippers tolerate sqrt(k)/2 Byzantine members. Measured: %s."
         (if all_pass then "bound holds at every committee size" else "BOUND VIOLATED"))
    ~body:
      (Ba_harness.Table.render ~title:"common coin, k designated flippers"
         ~headers:coin_headers (List.map coin_row points))
    ()

(* ------------------------------------------------------------------ *)
(* E1 campaign form (DESIGN.md §14): the engine-backed coin check as a
   sharded Monte-Carlo. One network size, many trials — the shape the
   checkpoint/resume campaign driver is built for. Per-trial seeds come
   from the global trial index, so any sharding merges back to the
   byte-identical single-pass statistics. *)

let e1_c_n ~quick = if quick then 40 else 64

let e1_c_trials ~quick = if quick then 400 else 20000

let e1_c_shard_size ~quick = if quick then 50 else 1000

let e1_c_run ~policy ~domains:_ ~quick ~seed ~lo ~hi =
  let n = e1_c_n ~quick in
  let budget = isqrt n / 2 in
  let protocol = Ba_core.Common_coin.algorithm1 in
  let adversary = Ba_adversary.Coin_adv.splitter ~designated:(fun _ -> true) in
  (* No checker: a common coin is allowed to disagree (that is the measured
     probability), so disagreement is data here, not a violation. *)
  Ba_harness.Experiment.monte_carlo ~policy ~fail_fast:false
    ~check:(fun _ -> [])
    ~range:(lo, hi) ~trials:(e1_c_trials ~quick) ~seed
    ~run:(fun ~seed ~trial:_ ->
      Ba_sim.Engine.run ~max_rounds:2 ~protocol ~adversary ~n ~t:budget
        ~inputs:(Array.make n 0) ~seed ())
    ()

let e1_c_report ~quick ~seed:_ ~trials (stats : Ba_harness.Experiment.stats) =
  let n = e1_c_n ~quick in
  let budget = isqrt n / 2 in
  let bound = 2. *. Ba_core.Common_coin.paley_zygmund_bound in
  let ran = trials - List.length stats.failures in
  let successes = ran - stats.agreement_failures in
  let p = if ran = 0 then nan else float_of_int successes /. float_of_int ran in
  let ci = Ba_stats.Ci.wilson95 ~successes ~trials:(max ran 1) in
  let pass = ran > 0 && ci.Ba_stats.Ci.lo >= bound in
  Report.make ~id:"E1"
    ~title:"Theorem 3: Algorithm 1 is a common coin for t <= sqrt(n)/2 (campaign)"
    ~claim:"Theorem 3"
    ~metrics:
      [ ("n", float_of_int n); ("byz_budget", float_of_int budget);
        ("pr_comm_engine", p); ("ci_lo", ci.Ba_stats.Ci.lo); ("ci_hi", ci.Ba_stats.Ci.hi);
        ("pz_bound", bound) ]
    ~trials ~failures:stats.failures
    ~verdict:(if pass then Report.Pass else Report.Fail)
    ~summary:
      (Printf.sprintf
         "Paper: Pr(Comm) >= 1/6 against a rushing adaptive adversary corrupting sqrt(n)/2 \
          flippers. Measured over %d engine trials at n=%d: Pr(Comm)=%.4f, 95%% CI lower \
          bound %.4f vs 2x Paley-Zygmund bound %.4f — %s."
         trials n p ci.Ba_stats.Ci.lo bound
         (if pass then "bound cleared" else "BOUND VIOLATED"))
    ~body:
      (Ba_harness.Table.render ~title:"common coin campaign (engine, splitter adversary)"
         ~headers:[ "n"; "byz"; "trials"; "Pr(Comm)"; "95% CI"; "PZ bound"; ">= bound" ]
         [ [ string_of_int n; string_of_int budget; string_of_int trials;
             Printf.sprintf "%.4f" p;
             Printf.sprintf "[%.4f, %.4f]" ci.Ba_stats.Ci.lo ci.Ba_stats.Ci.hi;
             Printf.sprintf "%.4f" bound;
             (if pass then "yes" else "NO") ] ])
    ()

let e1_campaign =
  { Ba_harness.Registry.c_trials = e1_c_trials;
    c_shard_size = e1_c_shard_size;
    c_run = e1_c_run;
    c_report = e1_c_report }

let experiments =
  [ { Ba_harness.Registry.id = "E1";
      title = "Theorem 3: common coin, all nodes flipping";
      claim = "Theorem 3";
      tags = [ Ba_harness.Registry.Coin ];
      run = (fun ~policy:_ ~domains:_ ~quick ~seed -> e1 ~quick ~seed ());
      campaign = Some e1_campaign };
    { Ba_harness.Registry.id = "E2";
      title = "Corollary 1: designated-committee coin";
      claim = "Corollary 1";
      tags = [ Ba_harness.Registry.Coin ];
      run = (fun ~policy:_ ~domains:_ ~quick ~seed -> e2 ~quick ~seed ()); campaign = None } ]
