(* Ba_harness.Supervisor: deterministic seed derivation across retries,
   crash isolation (1 poisoned trial of 100), the simulated-round watchdog,
   sink semantics, serial/parallel equivalence of failure records, and the
   failure records' JSON + Report plumbing. *)

module Supervisor = Ba_harness.Supervisor
module Experiment = Ba_harness.Experiment
module Report = Ba_harness.Report
module Json = Ba_harness.Json

let runner () =
  let open Ba_experiments.Setups in
  let n = 22 and t = 7 in
  let run = make ~protocol:(Las_vegas { alpha = 2.0 }) ~adversary:Silent ~n ~t in
  let inputs = inputs Split ~n ~t in
  fun ~seed ~trial:_ -> run.exec ~record:true ~inputs ~seed ()

(* ---------------- seed derivation ---------------- *)

let test_seed_derivation () =
  Alcotest.(check int64) "attempt 0 is the trial seed"
    (Supervisor.trial_seed ~seed:9L ~trial:4)
    (Supervisor.retry_seed ~seed:9L ~trial:4 ~attempt:0);
  Alcotest.(check bool) "retries re-mix" true
    (Supervisor.retry_seed ~seed:9L ~trial:4 ~attempt:1
    <> Supervisor.retry_seed ~seed:9L ~trial:4 ~attempt:0);
  Alcotest.(check int64) "derivation is pure"
    (Supervisor.retry_seed ~seed:9L ~trial:4 ~attempt:2)
    (Supervisor.retry_seed ~seed:9L ~trial:4 ~attempt:2);
  Alcotest.(check bool) "distinct trials, distinct streams" true
    (Supervisor.retry_seed ~seed:9L ~trial:4 ~attempt:1
    <> Supervisor.retry_seed ~seed:9L ~trial:5 ~attempt:1);
  (match Supervisor.retry_seed ~seed:9L ~trial:0 ~attempt:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative attempt accepted");
  Alcotest.(check int64) "Experiment re-exports the derivation"
    (Supervisor.trial_seed ~seed:9L ~trial:4)
    (Experiment.trial_seed ~seed:9L ~trial:4)

(* ---------------- run_trial barrier & watchdog ---------------- *)

let test_run_trial_ok () =
  match Supervisor.run_trial ~policy:Supervisor.default ~seed:3L ~trial:0 ~run:(runner ()) with
  | Ok o -> Alcotest.(check bool) "real outcome" true (Ba_sim.Run.span_units o.span > 0)
  | Error f -> Alcotest.failf "unexpected failure: %s" (Supervisor.failure_message f)

let crash_run ~seed:_ ~trial:_ : Ba_sim.Run.outcome = failwith "poisoned trial"

let test_run_trial_crash_record () =
  let go () =
    Supervisor.run_trial ~policy:(Supervisor.supervised ~retries:2 ()) ~seed:3L ~trial:7
      ~run:crash_run
  in
  match (go (), go ()) with
  | Error a, Error b ->
      Alcotest.(check bool) "kind is crash" true (a.Supervisor.f_kind = Supervisor.Crash);
      Alcotest.(check int) "trial recorded" 7 a.f_trial;
      Alcotest.(check int) "all attempts consumed" 3 a.f_attempts;
      Alcotest.(check int64) "seed is the last attempt's"
        (Supervisor.retry_seed ~seed:3L ~trial:7 ~attempt:2)
        a.f_seed;
      Alcotest.(check bool) "error text kept" true
        (String.length a.f_error > 0);
      Alcotest.(check int) "digest is 16 hex chars" 16 (String.length a.f_backtrace);
      Alcotest.(check bool) "byte-identical records across reruns" true (a = b)
  | _ -> Alcotest.fail "expected both runs to fail"

let test_retry_recovers () =
  (* Fails on the canonical trial seed, succeeds on any retry seed: one
     retry turns Error into Ok. *)
  let real = runner () in
  let flaky ~seed ~trial =
    if seed = Supervisor.trial_seed ~seed:5L ~trial then failwith "transient"
    else real ~seed ~trial
  in
  (match
     Supervisor.run_trial ~policy:(Supervisor.supervised ()) ~seed:5L ~trial:1 ~run:flaky
   with
  | Error f ->
      Alcotest.(check int) "no retries: one attempt" 1 f.Supervisor.f_attempts
  | Ok _ -> Alcotest.fail "expected the first attempt to fail");
  match
    Supervisor.run_trial ~policy:(Supervisor.supervised ~retries:1 ()) ~seed:5L ~trial:1 ~run:flaky
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "retry did not recover: %s" (Supervisor.failure_message f)

let test_watchdog_round_cap () =
  (* Any real run exceeds a 1-round budget: the watchdog must convert it
     into a Round_cap failure after exhausting the attempt budget. *)
  match
    Supervisor.run_trial
      ~policy:(Supervisor.supervised ~round_cap:1 ~retries:1 ())
      ~seed:3L ~trial:0 ~run:(runner ())
  with
  | Error f ->
      Alcotest.(check bool) "kind is round_cap" true
        (f.Supervisor.f_kind = Supervisor.Round_cap);
      Alcotest.(check int) "retried once" 2 f.f_attempts;
      Alcotest.(check string) "kind serializes" "round_cap"
        (Supervisor.kind_to_string f.f_kind)
  | Ok _ -> Alcotest.fail "expected the watchdog to trip"

let test_policy_validation () =
  (match Supervisor.supervised ~retries:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative retries accepted");
  match Supervisor.supervised ~round_cap:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "round_cap 0 accepted"

(* ---------------- sink ---------------- *)

let failure_stub trial =
  { Supervisor.f_trial = trial; f_seed = Int64.of_int trial; f_attempts = 1;
    f_kind = Supervisor.Crash; f_error = "stub"; f_backtrace = Supervisor.digest "stub" }

let test_sink_sorts_and_drains () =
  let s = Supervisor.sink () in
  Supervisor.record s [ failure_stub 9 ];
  Supervisor.record s [ failure_stub 2; failure_stub 5 ];
  let drained = Supervisor.drain s in
  Alcotest.(check (list int)) "sorted by trial" [ 2; 5; 9 ]
    (List.map (fun f -> f.Supervisor.f_trial) drained);
  Alcotest.(check int) "drain empties" 0 (List.length (Supervisor.drain s))

(* ---------------- crash isolation in the Monte-Carlo runners ---------------- *)

let poisoned_run real ~seed ~trial =
  if trial = 42 then failwith "poisoned trial 42" else real ~seed ~trial

let test_one_poisoned_of_100 () =
  let stats =
    Experiment.monte_carlo
      ~policy:(Supervisor.supervised ())
      ~trials:100 ~seed:5L
      ~run:(poisoned_run (runner ()))
      ()
  in
  Alcotest.(check int) "99 clean trials aggregated" 99 (Ba_stats.Summary.count stats.rounds);
  Alcotest.(check int) "one failure record" 1 (List.length stats.failures);
  let f = List.hd stats.failures in
  Alcotest.(check int) "the poisoned trial" 42 f.Supervisor.f_trial;
  Alcotest.(check bool) "a crash" true (f.f_kind = Supervisor.Crash)

let test_default_policy_aborts () =
  match
    Experiment.monte_carlo ~trials:50 ~seed:5L ~run:(poisoned_run (runner ())) ()
  with
  | exception Failure msg ->
      Alcotest.(check bool) "abort cites the trial" true
        (let rec find i =
           i + 2 <= String.length msg && (String.sub msg i 2 = "42" || find (i + 1))
         in
         find 0)
  | _ -> Alcotest.fail "default policy must abort on a crashed trial"

let test_parallel_matches_serial_failures () =
  let run = poisoned_run (runner ()) in
  let serial =
    Experiment.monte_carlo ~policy:(Supervisor.supervised ()) ~trials:60 ~seed:5L ~run ()
  in
  List.iter
    (fun domains ->
      let par =
        Ba_harness.Parallel.monte_carlo ~domains ~policy:(Supervisor.supervised ()) ~trials:60
          ~seed:5L ~run ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "identical failure records (domains=%d)" domains)
        true
        (par.failures = serial.failures);
      Alcotest.(check (float 1e-9)) "aggregates exclude the failed trial"
        (Ba_stats.Summary.mean serial.rounds)
        (Ba_stats.Summary.mean par.rounds))
    [ 1; 3 ]

(* ---------------- report & JSON plumbing ---------------- *)

let sample_report verdict =
  Report.make ~id:"EX" ~title:"x" ~claim:"c" ~metrics:[] ~verdict ~summary:"s" ~body:"b" ()

let test_failures_force_fail () =
  let r = Report.with_failures (sample_report Report.Pass) [ failure_stub 0 ] in
  Alcotest.(check bool) "verdict forced to fail" true (r.Report.verdict = Report.Fail);
  Alcotest.(check int) "records attached" 1 (List.length r.failures);
  let clean = Report.with_failures (sample_report Report.Pass) [] in
  Alcotest.(check bool) "no records, verdict kept" true (clean.Report.verdict = Report.Pass)

let test_failure_json_shape () =
  let f = failure_stub 3 in
  let j = Supervisor.failure_to_json f in
  Alcotest.(check (option int)) "trial" (Some 3)
    (Option.bind (Json.member "trial" j) Json.to_int);
  Alcotest.(check (option string)) "seed is a string" (Some "3")
    (Option.bind (Json.member "seed" j) Json.to_str);
  Alcotest.(check (option string)) "kind" (Some "crash")
    (Option.bind (Json.member "kind" j) Json.to_str);
  Alcotest.(check (option string)) "digest round-trips" (Some (Supervisor.digest "stub"))
    (Option.bind (Json.member "backtrace_digest" j) Json.to_str)

let test_digest_shape () =
  let d = Supervisor.digest "hello" in
  Alcotest.(check int) "16 chars" 16 (String.length d);
  Alcotest.(check bool) "lowercase hex" true
    (String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) d);
  Alcotest.(check string) "pure" d (Supervisor.digest "hello");
  Alcotest.(check bool) "input-sensitive" true (d <> Supervisor.digest "hellp")

let () =
  Alcotest.run "ba_supervisor"
    [ ("seeds", [ Alcotest.test_case "derivation" `Quick test_seed_derivation ]);
      ("run_trial",
       [ Alcotest.test_case "success passes through" `Quick test_run_trial_ok;
         Alcotest.test_case "crash record determinism" `Quick test_run_trial_crash_record;
         Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
         Alcotest.test_case "watchdog round cap" `Quick test_watchdog_round_cap;
         Alcotest.test_case "policy validation" `Quick test_policy_validation ]);
      ("sink", [ Alcotest.test_case "sorts and drains" `Quick test_sink_sorts_and_drains ]);
      ("isolation",
       [ Alcotest.test_case "1 poisoned of 100" `Slow test_one_poisoned_of_100;
         Alcotest.test_case "default policy aborts" `Quick test_default_policy_aborts;
         Alcotest.test_case "parallel matches serial" `Slow
           test_parallel_matches_serial_failures ]);
      ("plumbing",
       [ Alcotest.test_case "failures force fail" `Quick test_failures_force_fail;
         Alcotest.test_case "failure json shape" `Quick test_failure_json_shape;
         Alcotest.test_case "digest" `Quick test_digest_shape ]) ]
