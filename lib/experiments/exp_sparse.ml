open Exp_common

module Report = Ba_harness.Report

(* ------------------------------------------------------------------ *)
(* E21 — communication regimes: dense vs sampled vs word-budget        *)
(* ------------------------------------------------------------------ *)

(* One protocol arm of E21: run [trials] seeds and summarize the engine's
   meters. Agreement is tracked as a rate because the sampled arms are
   Monte-Carlo (whp, not deterministic). *)
let e21_arm ~proto ~n ~t ~trials ~domains ~seed =
  let run = Setups.make ~protocol:proto ~adversary:Setups.Silent ~n ~t in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let rounds = Ba_stats.Summary.create ()
  and bits = Ba_stats.Summary.create ()
  and words = Ba_stats.Summary.create ()
  and messages = Ba_stats.Summary.create () in
  let agreed = ref 0 and completed = ref 0 in
  for trial = 1 to trials do
    let o =
      run.Setups.exec ~domains ~record:false ~inputs
        ~seed:(seed_for ~seed ("e21", Setups.protocol_name proto, trial))
        ()
    in
    Ba_stats.Summary.add_int rounds (Ba_sim.Run.span_units o.span);
    Ba_stats.Summary.add_int bits (Ba_sim.Metrics.bits o.metrics);
    Ba_stats.Summary.add_int words (Ba_sim.Metrics.words o.metrics);
    Ba_stats.Summary.add_int messages (Ba_sim.Metrics.messages o.metrics);
    if Ba_sim.Run.agreement_holds o then incr agreed;
    if o.completed then incr completed
  done;
  (run.Setups.run_protocol, rounds, bits, words, messages, !agreed, !completed)

let e21 ?(domains = 1) ?(quick = false) ~seed () =
  let n = if quick then 256 else 512 in
  let t = 0 in
  let trials = if quick then 8 else 20 in
  let degree = Ba_sparse.Ks_agreement.default_degree ~n in
  let arms =
    [ Setups.Ks_broadcast; Setups.Ks_sample { degree }; Setups.Word_budget { degree } ]
  in
  let data = List.map (fun p -> e21_arm ~proto:p ~n ~t ~trials ~domains ~seed) arms in
  let mean_of sel = List.map (fun row -> Ba_stats.Summary.mean (sel row)) data in
  let bits_means = mean_of (fun (_, _, b, _, _, _, _) -> b) in
  let words_means = mean_of (fun (_, _, _, w, _, _, _) -> w) in
  let dense_bits = List.nth bits_means 0
  and sampled_bits = List.nth bits_means 1
  and sampled_words = List.nth words_means 1
  and budget_words = List.nth words_means 2 in
  let all_agree =
    List.for_all (fun (_, _, _, _, _, agreed, completed) -> agreed = trials && completed = trials)
      data
  in
  let ordering = sampled_bits < dense_bits && budget_words < sampled_words in
  let verdict =
    if not all_agree then Report.Fail
    else if ordering then Report.Pass
    else Report.Shape_ok
  in
  let rows =
    List.map
      (fun (name, rounds, bits, words, messages, agreed, _) ->
        [ name;
          Ba_harness.Table.fmt_mean_ci rounds;
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean messages);
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean bits);
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean words);
          Printf.sprintf "%d/%d" agreed trials ])
      data
  in
  Report.make ~id:"E21"
    ~title:"Communication regimes: dense vs sqrt(n)-sampled vs word-budget"
    ~claim:"Sublinear communication (sampled plane)"
    ~metrics:
      (List.concat_map
         (fun (name, rounds, bits, words, messages, agreed, _) ->
           let key suffix = mkey (Printf.sprintf "%s_%s" suffix name) in
           [ (key "rounds", Ba_stats.Summary.mean rounds);
             (key "bits", Ba_stats.Summary.mean bits);
             (key "words", Ba_stats.Summary.mean words);
             (key "messages", Ba_stats.Summary.mean messages);
             (key "agree_rate", float_of_int agreed /. float_of_int trials) ])
         data
      @ [ ("bits_ratio_sampled_over_dense", sampled_bits /. dense_bits);
          ("words_ratio_budget_over_sampled", budget_words /. sampled_words) ])
    ~verdict
    ~summary:
      (Printf.sprintf
         "Same sampled-majority dynamics under three delivery regimes at n=%d (degree %d): \
          sampling cuts bits to %.3fx of dense broadcast, the word budget cuts words to %.3fx \
          of always-speaking sampling; agreement %s."
         n degree (sampled_bits /. dense_bits) (budget_words /. sampled_words)
         (if all_agree then "held in every trial" else "FAILED in some trial"))
    ~body:
      (Ba_harness.Table.render
         ~title:(Printf.sprintf "engine-metered cost, n=%d, split inputs, silent adversary" n)
         ~headers:[ "protocol"; "rounds"; "messages"; "bits"; "words"; "agree" ]
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* E22 — sampled-plane scaling: bits vs n at degree sqrt(n)            *)
(* ------------------------------------------------------------------ *)

let e22 ?(domains = 1) ?(quick = false) ~seed () =
  let sizes = if quick then [ 1024; 4096; 16384 ] else [ 1024; 4096; 16384; 65536 ] in
  let trials = if quick then 3 else 5 in
  let data =
    List.map
      (fun n ->
        let degree = Ba_sparse.Ks_agreement.default_degree ~n in
        let run =
          Setups.make ~protocol:(Setups.Ks_sample { degree }) ~adversary:Setups.Silent ~n ~t:0
        in
        let inputs = Setups.inputs Setups.Split ~n ~t:0 in
        let rounds = Ba_stats.Summary.create ()
        and bits = Ba_stats.Summary.create ()
        and words = Ba_stats.Summary.create () in
        let agreed = ref 0 in
        for trial = 1 to trials do
          let o =
            run.Setups.exec ~domains ~record:false ~inputs
              ~seed:(seed_for ~seed ("e22", n, trial))
              ()
          in
          Ba_stats.Summary.add_int rounds (Ba_sim.Run.span_units o.span);
          Ba_stats.Summary.add_int bits (Ba_sim.Metrics.bits o.metrics);
          Ba_stats.Summary.add_int words (Ba_sim.Metrics.words o.metrics);
          if Ba_sim.Run.agreement_holds o && o.completed then incr agreed
        done;
        (n, degree, rounds, bits, words, !agreed))
      sizes
  in
  let xs = Array.of_list (List.map (fun (n, _, _, _, _, _) -> float_of_int n) data) in
  let ys =
    Array.of_list (List.map (fun (_, _, _, b, _, _) -> Ba_stats.Summary.mean b) data)
  in
  let fit = Ba_stats.Regression.log_log xs ys in
  let all_agree = List.for_all (fun (_, _, _, _, _, agreed) -> agreed = trials) data in
  (* Total bits per run should grow like n * sqrt(n) * polylog — an exponent
     near 1.5, decisively below the dense plane's 2. *)
  let verdict =
    if not all_agree then Report.Fail
    else if fit.Ba_stats.Regression.slope >= 1.3 && fit.slope <= 1.7 then Report.Pass
    else Report.Shape_ok
  in
  let rows =
    List.map
      (fun (n, degree, rounds, bits, words, agreed) ->
        [ string_of_int n; string_of_int degree;
          Ba_harness.Table.fmt_mean_ci rounds;
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean bits);
          Ba_harness.Table.fmt_float (Ba_stats.Summary.mean words);
          Printf.sprintf "%d/%d" agreed trials ])
      data
  in
  let points =
    List.map (fun (n, _, _, b, _, _) -> (float_of_int n, Ba_stats.Summary.mean b)) data
  in
  let fig =
    Ba_harness.Ascii_plot.render ~logx:true ~logy:true
      ~title:"sampled-plane total bits vs n (degree = ceil(sqrt n))" ~xlabel:"n" ~ylabel:"bits"
      [ { Ba_harness.Ascii_plot.label = "ks-sample bits"; glyph = 'o'; points };
        { label = "n^1.5 reference"; glyph = '.';
          points =
            (match points with
            | (x0, y0) :: _ ->
                List.map (fun (x, _) -> (x, y0 *. ((x /. x0) ** 1.5))) points
            | [] -> []) } ]
  in
  Report.make ~id:"E22"
    ~title:"Sampled-plane scaling: total bits grow ~ n^1.5"
    ~claim:"Sublinear communication (scaling)"
    ~metrics:
      (List.concat_map
         (fun (n, _, rounds, bits, words, agreed) ->
           [ (Printf.sprintf "rounds_n%d" n, Ba_stats.Summary.mean rounds);
             (Printf.sprintf "bits_n%d" n, Ba_stats.Summary.mean bits);
             (Printf.sprintf "words_n%d" n, Ba_stats.Summary.mean words);
             (Printf.sprintf "agree_rate_n%d" n, float_of_int agreed /. float_of_int trials) ])
         data
      @ [ ("fit_exponent", fit.Ba_stats.Regression.slope); ("fit_r2", fit.r2) ])
    ~series:[ { Report.series_name = "bits_vs_n"; points } ]
    ~verdict
    ~summary:
      (Printf.sprintf
         "Per-run total bits on the sqrt(n)-sampled plane fit exponent %.2f (r2=%.3f) over \
          n in [%d, %d] — %s the dense plane's n^2."
         fit.Ba_stats.Regression.slope fit.r2 (List.hd sizes)
         (List.nth sizes (List.length sizes - 1))
         (if fit.slope <= 1.7 then "decisively below" else "UNEXPECTEDLY close to"))
    ~body:
      (Ba_harness.Table.render ~title:"ks-sample on the sampled plane (split inputs)"
         ~headers:[ "n"; "degree"; "rounds"; "bits"; "words"; "agree" ]
         rows
      ^ "\n" ^ fig)
    ()

let experiments =
  [ { Ba_harness.Registry.id = "E21";
      title = "communication regimes (dense / sampled / word-budget)";
      claim = "Sublinear communication (sampled plane)";
      tags = [ Ba_harness.Registry.Complexity ];
      run = (fun ~policy:_ ~domains ~quick ~seed -> e21 ~domains ~quick ~seed ()); campaign = None };
    { Ba_harness.Registry.id = "E22";
      title = "sampled-plane scaling";
      claim = "Sublinear communication (scaling)";
      tags = [ Ba_harness.Registry.Scaling; Ba_harness.Registry.Complexity ];
      run = (fun ~policy:_ ~domains ~quick ~seed -> e22 ~domains ~quick ~seed ()); campaign = None } ]
