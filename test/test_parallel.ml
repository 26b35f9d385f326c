(* Multicore Monte-Carlo: equivalence with the serial runner regardless of
   domain count (per-trial seeds are identical), violation aggregation. *)

open Ba_experiments

let runner () =
  let n = 22 and t = 7 in
  let run =
    Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~adversary:Setups.Committee_killer
      ~n ~t
  in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  fun ~seed ~trial:_ -> run.exec ~record:true ~inputs ~seed ()

let test_equivalent_to_serial () =
  let run = runner () in
  let serial =
    Ba_harness.Experiment.monte_carlo ~rounds_per_phase:2 ~trials:20 ~seed:5L ~run ()
  in
  List.iter
    (fun domains ->
      let par =
        Ba_harness.Parallel.monte_carlo ~domains ~rounds_per_phase:2 ~trials:20 ~seed:5L ~run ()
      in
      Alcotest.(check int) "trial count" 20 (Ba_stats.Summary.count par.rounds);
      Alcotest.(check (float 1e-9)) (Printf.sprintf "mean rounds (domains=%d)" domains)
        (Ba_stats.Summary.mean serial.rounds)
        (Ba_stats.Summary.mean par.rounds);
      Alcotest.(check (float 1e-9)) "total messages"
        (Ba_stats.Summary.total serial.messages)
        (Ba_stats.Summary.total par.messages);
      Alcotest.(check int) "agreement failures" serial.agreement_failures
        par.agreement_failures)
    [ 1; 2; 3; 7 ]

let test_more_domains_than_trials () =
  let run = runner () in
  let par = Ba_harness.Parallel.monte_carlo ~domains:16 ~trials:3 ~seed:1L ~run () in
  Alcotest.(check int) "all trials done" 3 (Ba_stats.Summary.count par.rounds)

let test_fail_fast_reports_lowest_trial () =
  let run = runner () in
  let bogus (o : Ba_sim.Run.outcome) =
    (* Fire only on trials whose round count is even — arbitrary but
       deterministic; the reported trial must be the lowest firing one. *)
    if Ba_sim.Run.span_units o.span mod 2 = 0 then
      [ { Ba_trace.Checker.check = "bogus"; detail = "even rounds" } ]
    else []
  in
  let serial_first =
    let found = ref None in
    (try
       ignore
         (Ba_harness.Experiment.monte_carlo ~check:bogus ~trials:10 ~seed:5L ~run ())
     with Failure msg -> found := Some msg);
    !found
  in
  let parallel_first =
    let found = ref None in
    (try
       ignore
         (Ba_harness.Parallel.monte_carlo ~domains:3 ~check:bogus ~trials:10 ~seed:5L ~run ())
     with Failure msg -> found := Some msg);
    !found
  in
  match (serial_first, parallel_first) with
  | Some s, Some p -> Alcotest.(check string) "same first failure" s p
  | _ -> Alcotest.fail "expected failures in both runners"

let test_no_fail_fast_collects () =
  let run = runner () in
  let bogus _ = [ { Ba_trace.Checker.check = "bogus"; detail = "always" } ] in
  let par =
    Ba_harness.Parallel.monte_carlo ~domains:4 ~check:bogus ~fail_fast:false ~trials:8 ~seed:2L
      ~run ()
  in
  Alcotest.(check int) "all violations kept" 8 (List.length par.violations)

let test_default_domains_positive () =
  Alcotest.(check bool) "at least 1" true (Ba_harness.Parallel.default_domains () >= 1)

let test_raising_check_joins_domains () =
  (* A check closure that raises on the main domain's chunk must propagate
     (not deadlock or leak): the join is under Fun.protect. Exercised for
     both an arbitrary exception and a second run afterwards to show the
     runner is still usable. *)
  let run = runner () in
  let boom _ = raise Exit in
  List.iter
    (fun domains ->
      match
        Ba_harness.Parallel.monte_carlo ~domains ~check:boom ~trials:6 ~seed:3L ~run ()
      with
      | exception Exit -> ()
      | _ -> Alcotest.fail "raising check swallowed")
    [ 1; 2; 4 ];
  let again = Ba_harness.Parallel.monte_carlo ~domains:4 ~trials:6 ~seed:3L ~run () in
  Alcotest.(check int) "runner still functional" 6 (Ba_stats.Summary.count again.rounds)

let test_fail_fast_message_domain_independent () =
  (* Chunk results are sorted by trial before selection, so the cited trial
     must not depend on how trials were split across domains. *)
  let run = runner () in
  let bogus (o : Ba_sim.Run.outcome) =
    if Ba_sim.Run.span_units o.span mod 2 = 0 then
      [ { Ba_trace.Checker.check = "bogus"; detail = "even rounds" } ]
    else []
  in
  let first domains =
    try
      ignore
        (Ba_harness.Parallel.monte_carlo ~domains ~check:bogus ~trials:10 ~seed:5L ~run ());
      Alcotest.fail "expected a failure"
    with Failure msg -> msg
  in
  Alcotest.(check string) "two chunks agree with one" (first 1) (first 2)

let test_keep_going_in_parallel () =
  let run = runner () in
  let poisoned ~seed ~trial = if trial = 5 then failwith "poisoned" else run ~seed ~trial in
  let par =
    Ba_harness.Parallel.monte_carlo ~domains:4
      ~policy:(Ba_harness.Supervisor.supervised ())
      ~trials:12 ~seed:2L ~run:poisoned ()
  in
  Alcotest.(check int) "11 clean trials" 11 (Ba_stats.Summary.count par.rounds);
  Alcotest.(check (list int)) "failure isolated to trial 5" [ 5 ]
    (List.map (fun f -> f.Ba_harness.Supervisor.f_trial) par.failures)

(* ---------------- delivery sharder (within-round fan-out) ---------------- *)

let test_sharder_runs_every_thunk () =
  (* The engine hands the sharder up to [s_shards] thunks; every one must
     run exactly once, for any thunk count from empty to the full width. *)
  List.iter
    (fun domains ->
      let sharder = Ba_harness.Parallel.delivery_sharder ~domains in
      Alcotest.(check int)
        (Printf.sprintf "s_shards at domains=%d" domains)
        domains sharder.Ba_sim.Engine.s_shards;
      for k = 0 to domains do
        let hits = Array.init k (fun _ -> Atomic.make 0) in
        sharder.Ba_sim.Engine.s_run
          (Array.init k (fun i () -> Atomic.incr hits.(i)));
        Array.iteri
          (fun i a ->
            Alcotest.(check int)
              (Printf.sprintf "thunk %d of %d ran once (domains=%d)" i k domains)
              1 (Atomic.get a))
          hits
      done)
    [ 1; 2; 3; 5; 8 ]

let test_sharder_rejects_nonpositive () =
  List.iter
    (fun domains ->
      match Ba_harness.Parallel.delivery_sharder ~domains with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "domains=%d accepted" domains))
    [ 0; -1 ]

let test_sharder_propagates_and_survives () =
  (* A raising shard thunk must propagate out of [s_run] (after joining the
     spawned domains), and the sharder must remain usable afterwards. *)
  let sharder = Ba_harness.Parallel.delivery_sharder ~domains:3 in
  (match
     sharder.Ba_sim.Engine.s_run
       [| (fun () -> ()); (fun () -> raise Exit); (fun () -> ()) |]
   with
  | exception Exit -> ()
  | () -> Alcotest.fail "shard exception swallowed");
  let n = Atomic.make 0 in
  sharder.Ba_sim.Engine.s_run (Array.make 3 (fun () -> Atomic.incr n));
  Alcotest.(check int) "still functional" 3 (Atomic.get n)

let test_engine_outcomes_at_awkward_domain_counts () =
  (* Sharding is a wall-clock knob only: outcomes are byte-identical when
     the domain count does not divide n, and when it exceeds n (the engine
     clamps the shard count to n). *)
  let case ~n ~t ~domains_list =
    let run =
      Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 }) ~adversary:Setups.Committee_killer
        ~n ~t
    in
    let inputs = Setups.inputs Setups.Split ~n ~t in
    let base = run.exec ~domains:1 ~record:true ~inputs ~seed:44L () in
    List.iter
      (fun domains ->
        Alcotest.(check bool)
          (Printf.sprintf "n=%d identical at domains=%d" n domains)
          true
          (base = run.exec ~domains ~record:true ~inputs ~seed:44L ()))
      domains_list
  in
  case ~n:10 ~t:3 ~domains_list:[ 3; 4; 7 ];
  (* n < domains: more shards offered than nodes *)
  case ~n:3 ~t:0 ~domains_list:[ 8 ]

let () =
  Alcotest.run "ba_parallel"
    [ ("parallel",
       [ Alcotest.test_case "equivalent to serial" `Slow test_equivalent_to_serial;
         Alcotest.test_case "more domains than trials" `Quick test_more_domains_than_trials;
         Alcotest.test_case "fail fast lowest trial" `Quick test_fail_fast_reports_lowest_trial;
         Alcotest.test_case "collects without fail fast" `Quick test_no_fail_fast_collects;
         Alcotest.test_case "default domains" `Quick test_default_domains_positive;
         Alcotest.test_case "raising check joins domains" `Quick
           test_raising_check_joins_domains;
         Alcotest.test_case "fail-fast message domain-independent" `Quick
           test_fail_fast_message_domain_independent;
         Alcotest.test_case "keep-going in parallel" `Quick test_keep_going_in_parallel ]);
      ("delivery sharder",
       [ Alcotest.test_case "runs every thunk once" `Quick test_sharder_runs_every_thunk;
         Alcotest.test_case "rejects nonpositive domains" `Quick
           test_sharder_rejects_nonpositive;
         Alcotest.test_case "propagates and survives" `Quick
           test_sharder_propagates_and_survives;
         Alcotest.test_case "awkward domain counts" `Quick
           test_engine_outcomes_at_awkward_domain_counts ]) ]
