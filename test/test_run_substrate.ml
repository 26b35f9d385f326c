(* The unified run substrate: salted fault streams on the asynchronous
   plane are deterministic in the seed, the substrate checkers audit async
   outcomes, async trials are supervised exactly like synchronous ones, and
   the parallel runner produces byte-identical failure records to the
   serial one for crashing async trials. *)

module Setups = Ba_experiments.Setups
module Supervisor = Ba_harness.Supervisor
module Experiment = Ba_harness.Experiment
module Parallel = Ba_harness.Parallel
module Checker = Ba_trace.Checker
module Run = Ba_sim.Run

let ben_or ?faults ~n ~t () =
  Setups.make_async ?faults ~protocol:Setups.Async_ben_or ~scheduler:Setups.Random_sched ~n ~t
    ()

let split_inputs n = Array.init n (fun i -> i mod 2)

let fingerprint (ro : Run.outcome) =
  ( Run.span_units ro.Run.span,
    Ba_sim.Metrics.messages ro.Run.metrics,
    Ba_sim.Metrics.bits ro.Run.metrics,
    Ba_sim.Metrics.fault_events ro.Run.metrics,
    Array.to_list ro.Run.outputs )

let busy_spec =
  { Setups.no_faults with
    Setups.fs_drop = 0.05;
    fs_duplicate = 0.05;
    fs_corrupt = 0.02 }

let test_fault_stream_determinism () =
  let a = ben_or ~faults:busy_spec ~n:8 ~t:1 () in
  let inputs = split_inputs 8 in
  let r1 = a.Setups.arun_exec ~inputs ~seed:5L () in
  let r2 = a.Setups.arun_exec ~inputs ~seed:5L () in
  Alcotest.(check bool) "same seed, identical outcome" true (fingerprint r1 = fingerprint r2);
  Alcotest.(check bool) "fault stream active" true
    (Ba_sim.Metrics.fault_events r1.Run.metrics > 0);
  let r3 = a.Setups.arun_exec ~inputs ~seed:6L () in
  Alcotest.(check bool) "different seed, different stream" true
    (fingerprint r1 <> fingerprint r3)

let test_agreement_under_benign_faults () =
  (* Light drops may stall Ben-Or (reported as incomplete) but must never
     produce disagreement or an invalid decision: the substrate safety
     checkers stay silent on every trial. *)
  let a = ben_or ~faults:{ Setups.no_faults with Setups.fs_drop = 0.02 } ~n:8 ~t:1 () in
  let inputs = split_inputs 8 in
  for seed = 1 to 10 do
    let ro = a.Setups.arun_exec ~inputs ~seed:(Int64.of_int seed) () in
    Alcotest.(check (list string)) "no safety violation" []
      (List.map (Format.asprintf "%a" Checker.pp_violation)
         (Checker.agreement ro @ Checker.validity ro))
  done

let test_bracha_worst_case_scheduler () =
  (* Delayer starving the broadcaster and an early receiver, plus link
     duplicates: the bounded-delay rule must still push the RBC through,
     and every honest node delivers the broadcast value. *)
  let a =
    Setups.make_async
      ~faults:{ Setups.no_faults with Setups.fs_duplicate = 0.10 }
      ~protocol:(Setups.Async_bracha { broadcaster = 0 })
      ~scheduler:(Setups.Delayer_sched [ 0; 1 ]) ~n:7 ~t:2 ()
  in
  let inputs = Array.make 7 0 in
  inputs.(0) <- 1;
  for seed = 1 to 5 do
    let ro = a.Setups.arun_exec ~max_delay:25 ~inputs ~seed:(Int64.of_int seed) () in
    Alcotest.(check bool) (Printf.sprintf "seed %d completed" seed) true ro.Run.completed;
    Array.iter
      (fun out -> Alcotest.(check (option int)) "delivered broadcast value" (Some 1) out)
      ro.Run.outputs;
    Alcotest.(check (list string)) "substrate audit clean" []
      (List.map (Format.asprintf "%a" Checker.pp_violation)
         (Checker.standard ~allow_faults:true ro))
  done

let test_async_step_cap_supervised () =
  (* The watchdog compares the async span (scheduler steps) against the
     cap and words the failure in the span's native unit. *)
  let a = ben_or ~n:8 ~t:1 () in
  let inputs = split_inputs 8 in
  match
    Supervisor.run_trial
      ~policy:(Supervisor.supervised ~round_cap:10 ())
      ~seed:3L ~trial:0
      ~run:(fun ~seed ~trial:_ -> a.Setups.arun_exec ~inputs ~seed ())
  with
  | Ok _ -> Alcotest.fail "expected the step-budget watchdog to trip"
  | Error f ->
      Alcotest.(check bool) "kind is round_cap" true (f.Supervisor.f_kind = Supervisor.Round_cap);
      let mentions_steps =
        let sub = "step budget exceeded" in
        let rec find i =
          i + String.length sub <= String.length f.f_error
          && (String.sub f.f_error i (String.length sub) = sub || find (i + 1))
        in
        find 0
      in
      Alcotest.(check bool) "error is in scheduler-step units" true mentions_steps

let test_parallel_matches_serial_on_crashing_async_trial () =
  let a = ben_or ~n:6 ~t:1 () in
  let inputs = split_inputs 6 in
  let run ~seed ~trial =
    if trial = 3 then failwith "poisoned async trial"
    else a.Setups.arun_exec ~inputs ~seed ()
  in
  let sink_s = Supervisor.sink () and sink_p = Supervisor.sink () in
  let st_s =
    Experiment.monte_carlo
      ~policy:(Supervisor.supervised ~sink:sink_s ()) ~trials:8 ~seed:11L ~run ()
  in
  let st_p =
    Parallel.monte_carlo ~domains:4
      ~policy:(Supervisor.supervised ~sink:sink_p ()) ~trials:8 ~seed:11L ~run ()
  in
  Alcotest.(check int) "one failure (serial)" 1 (List.length st_s.Experiment.failures);
  Alcotest.(check bool) "identical failure records" true
    (st_s.Experiment.failures = st_p.Experiment.failures);
  Alcotest.(check bool) "identical sink contents" true
    (Supervisor.drain sink_s = Supervisor.drain sink_p);
  let f = List.hd st_s.Experiment.failures in
  Alcotest.(check bool) "kind is crash" true (f.Supervisor.f_kind = Supervisor.Crash);
  Alcotest.(check int) "trial recorded" 3 f.f_trial;
  Alcotest.(check (float 1e-9)) "same mean steps"
    (Ba_stats.Summary.mean st_s.Experiment.rounds)
    (Ba_stats.Summary.mean st_p.Experiment.rounds);
  Alcotest.(check (float 1e-9)) "same mean bits"
    (Ba_stats.Summary.mean st_s.Experiment.bits)
    (Ba_stats.Summary.mean st_p.Experiment.bits);
  Alcotest.(check int) "same incomplete count" st_s.Experiment.incomplete
    st_p.Experiment.incomplete

let test_silence_windows_metered () =
  (* A silenced sender's suppressed messages are metered as crash silences
     and the run still audits cleanly as a fault run. *)
  let a =
    ben_or
      ~faults:
        { Setups.no_faults with
          Setups.fs_silences = [ { Ba_sim.Faults.s_node = 1; s_from = 1; s_until = 400 } ] }
      ~n:8 ~t:1 ()
  in
  let ro = a.Setups.arun_exec ~inputs:(split_inputs 8) ~seed:9L () in
  Alcotest.(check bool) "silenced sends metered" true
    (Ba_sim.Metrics.crash_silences ro.Run.metrics > 0)

let () =
  Alcotest.run "ba_run_substrate"
    [ ("async faults",
       [ Alcotest.test_case "fault-stream determinism" `Quick test_fault_stream_determinism;
         Alcotest.test_case "agreement under benign faults" `Quick
           test_agreement_under_benign_faults;
         Alcotest.test_case "bracha under worst-case scheduler" `Quick
           test_bracha_worst_case_scheduler;
         Alcotest.test_case "silence windows metered" `Quick test_silence_windows_metered ]);
      ("supervision",
       [ Alcotest.test_case "async step-cap failure record" `Quick
           test_async_step_cap_supervised;
         Alcotest.test_case "parallel = serial failure records" `Quick
           test_parallel_matches_serial_on_crashing_async_trial ]) ]
