(* Ba_sim.Faults: link-fault semantics (drop / duplicate aging / corrupt
   metering), silence windows, plan validation, determinism of the salted
   fault stream, and the benign-fault audit in the trace checker. *)

module Faults = Ba_sim.Faults
module Metrics = Ba_sim.Metrics

let deliver inst metrics ~round ~src ~dst payload =
  Faults.deliver inst ~metrics ~round ~src ~dst payload

(* ---------------- plan construction & validation ---------------- *)

let test_none_plan () =
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  Alcotest.(check bool) "default make is none" true (Faults.is_none (Faults.make ()));
  Alcotest.(check bool) "drop plan is not none" false
    (Faults.is_none (Faults.make ~drop:0.1 ()))

let invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_validation () =
  invalid (fun () -> ignore (Faults.make ~drop:1.5 ()));
  invalid (fun () -> ignore (Faults.make ~duplicate:(-0.1) ()));
  invalid (fun () -> ignore (Faults.make ~corrupt:nan ()));
  (* corrupt > 0 needs a mutator: a "bit flip" is protocol-specific. *)
  invalid (fun () -> ignore (Faults.make ~corrupt:0.1 ()));
  invalid (fun () ->
      ignore (Faults.make ~silences:[ { Faults.s_node = -1; s_from = 1; s_until = 2 } ] ()));
  invalid (fun () ->
      ignore (Faults.make ~silences:[ { Faults.s_node = 0; s_from = 3; s_until = 2 } ] ()));
  (* instantiate checks the window against the actual n. *)
  let plan = Faults.make ~silences:[ { Faults.s_node = 9; s_from = 1; s_until = 2 } ] () in
  invalid (fun () -> ignore (Faults.instantiate plan ~n:4 ~seed:1L))

(* ---------------- drop / corrupt / self-delivery ---------------- *)

let test_certain_drop () =
  let inst = Faults.instantiate (Faults.make ~drop:1.0 ()) ~n:4 ~seed:7L in
  let m = Metrics.create () in
  for round = 1 to 3 do
    for src = 0 to 3 do
      for dst = 0 to 3 do
        if src <> dst then
          Alcotest.(check (option int)) "dropped" None
            (deliver inst m ~round ~src ~dst (Some 1))
      done
    done
  done;
  Alcotest.(check int) "every loss metered" (3 * 4 * 3) (Metrics.link_drops m);
  Alcotest.(check int) "fault_events agrees" (3 * 4 * 3) (Metrics.fault_events m)

let test_self_delivery_exempt () =
  let inst = Faults.instantiate (Faults.make ~drop:1.0 ()) ~n:4 ~seed:7L in
  let m = Metrics.create () in
  Alcotest.(check (option int)) "self loop untouched" (Some 5)
    (deliver inst m ~round:1 ~src:2 ~dst:2 (Some 5));
  Alcotest.(check int) "nothing metered" 0 (Metrics.fault_events m)

let test_zero_rates_passthrough () =
  let inst = Faults.instantiate (Faults.make ()) ~n:4 ~seed:7L in
  let m = Metrics.create () in
  Alcotest.(check (option int)) "payload unchanged" (Some 9)
    (deliver inst m ~round:1 ~src:0 ~dst:1 (Some 9));
  Alcotest.(check (option int)) "absence unchanged" None
    (deliver inst m ~round:1 ~src:1 ~dst:0 None);
  Alcotest.(check int) "nothing metered" 0 (Metrics.fault_events m)

let test_certain_corrupt () =
  let plan = Faults.make ~corrupt:1.0 ~mutate:(fun _rng v -> v + 100) () in
  let inst = Faults.instantiate plan ~n:2 ~seed:3L in
  let m = Metrics.create () in
  Alcotest.(check (option int)) "mutated" (Some 101)
    (deliver inst m ~round:1 ~src:0 ~dst:1 (Some 1));
  Alcotest.(check int) "corruption metered" 1 (Metrics.link_corruptions m)

(* ---------------- duplicate buffering & aging ---------------- *)

let test_duplicate_stale_redelivery () =
  let plan = Faults.make ~duplicate:1.0 () in
  let inst = Faults.instantiate plan ~n:2 ~seed:11L in
  let m = Metrics.create () in
  (* Round 1: fresh delivery, a copy is queued for round 2. *)
  Alcotest.(check (option int)) "fresh wins" (Some 42)
    (deliver inst m ~round:1 ~src:0 ~dst:1 (Some 42));
  Alcotest.(check int) "queueing is not yet an event" 0 (Metrics.link_duplicates m);
  (* Round 2: the link is idle, so the stale copy is re-delivered. *)
  Alcotest.(check (option int)) "stale redelivered" (Some 42)
    (deliver inst m ~round:2 ~src:0 ~dst:1 None);
  Alcotest.(check int) "redelivery metered" 1 (Metrics.link_duplicates m);
  (* It was consumed: the next idle round gets nothing. *)
  Alcotest.(check (option int)) "consumed" None (deliver inst m ~round:3 ~src:0 ~dst:1 None)

let test_duplicate_aging_and_busy_link () =
  let plan = Faults.make ~duplicate:1.0 () in
  (* Busy link: a fresh payload in the next round suppresses the stale copy
     (the synchronous inbox holds one slot per sender). *)
  let inst = Faults.instantiate plan ~n:2 ~seed:11L in
  let m = Metrics.create () in
  ignore (deliver inst m ~round:1 ~src:0 ~dst:1 (Some 1));
  Alcotest.(check (option int)) "fresh beats stale" (Some 2)
    (deliver inst m ~round:2 ~src:0 ~dst:1 (Some 2));
  Alcotest.(check int) "suppressed copy never metered" 0 (Metrics.link_duplicates m);
  (* Aging: a copy queued in round r is only valid in r+1. *)
  let inst = Faults.instantiate plan ~n:2 ~seed:11L in
  let m = Metrics.create () in
  ignore (deliver inst m ~round:1 ~src:0 ~dst:1 (Some 1));
  Alcotest.(check (option int)) "too old, discarded" None
    (deliver inst m ~round:3 ~src:0 ~dst:1 None);
  Alcotest.(check int) "no event for a discard" 0 (Metrics.link_duplicates m)

(* ---------------- silence windows ---------------- *)

let test_silence_window () =
  let w = { Faults.s_node = 2; s_from = 3; s_until = 6 } in
  let plan = Faults.make ~silences:[ w ] () in
  let inst = Faults.instantiate plan ~n:4 ~seed:1L in
  Alcotest.(check bool) "before window" false (Faults.silenced inst ~node:2 ~round:2);
  Alcotest.(check bool) "inside window" true (Faults.silenced inst ~node:2 ~round:3);
  Alcotest.(check bool) "last silent round" true (Faults.silenced inst ~node:2 ~round:5);
  Alcotest.(check bool) "until is exclusive" false (Faults.silenced inst ~node:2 ~round:6);
  Alcotest.(check bool) "other nodes unaffected" false (Faults.silenced inst ~node:1 ~round:4);
  Alcotest.(check int) "schedule count inside" 1 (Faults.silenced_in_round plan ~round:4);
  Alcotest.(check int) "schedule count outside" 0 (Faults.silenced_in_round plan ~round:6)

(* ---------------- determinism of the fault stream ---------------- *)

let drive ~seed =
  let inst = Faults.instantiate (Faults.make ~drop:0.5 ~duplicate:0.3 ()) ~n:6 ~seed in
  let m = Metrics.create () in
  let log = ref [] in
  for round = 1 to 8 do
    for src = 0 to 5 do
      for dst = 0 to 5 do
        log := deliver inst m ~round ~src ~dst (Some (round + src + dst)) :: !log
      done
    done
  done;
  (!log, Metrics.fault_events m)

let test_deterministic_in_seed () =
  let a, ea = drive ~seed:99L and b, eb = drive ~seed:99L in
  Alcotest.(check bool) "same seed, same deliveries" true (a = b);
  Alcotest.(check int) "same seed, same event count" ea eb;
  Alcotest.(check bool) "faults actually injected" true (ea > 0)

(* ---------------- engine integration & checker audit ---------------- *)

let outcome ~faults ~seed =
  let n = 22 and t = 7 in
  let run =
    let open Ba_experiments.Setups in
    match faults with
    | None -> make ~protocol:(Las_vegas { alpha = 2.0 }) ~adversary:Silent ~n ~t
    | Some faults ->
        make_faulty ~faults ~protocol:(Las_vegas { alpha = 2.0 }) ~adversary:Silent ~n ~t
  in
  let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t in
  run.exec ~record:true ~inputs ~seed ()

let test_benign_faults_audit () =
  (* A fault-free run must carry zero fault events, and the checker audit
     must stay quiet; an injected run trips the audit unless the experiment
     opted in via allow_faults. *)
  let clean = outcome ~faults:None ~seed:5L in
  Alcotest.(check int) "clean run has no fault events" 0
    (Metrics.fault_events clean.Ba_sim.Run.metrics);
  Alcotest.(check int) "audit quiet on clean run" 0
    (List.length (Ba_trace.Checker.benign_faults clean));
  let faults = { Ba_experiments.Setups.no_faults with fs_drop = 0.3 } in
  let faulty = outcome ~faults:(Some faults) ~seed:5L in
  Alcotest.(check bool) "faults metered" true
    (Metrics.fault_events faulty.Ba_sim.Run.metrics > 0);
  Alcotest.(check bool) "audit fires" true
    (Ba_trace.Checker.benign_faults faulty <> []);
  Alcotest.(check bool) "standard checker opts out via allow_faults" true
    (List.for_all
       (fun v -> v.Ba_trace.Checker.check <> "benign_faults")
       (Ba_trace.Checker.standard ~allow_faults:true faulty))

let test_faulty_run_deterministic () =
  let faults = { Ba_experiments.Setups.no_faults with fs_drop = 0.2; fs_duplicate = 0.1 } in
  let a = outcome ~faults:(Some faults) ~seed:17L in
  let b = outcome ~faults:(Some faults) ~seed:17L in
  Alcotest.(check bool) "same span" true (a.span = b.span);
  Alcotest.(check bool) "same outputs" true (a.outputs = b.outputs);
  Alcotest.(check int) "same fault exposure"
    (Metrics.fault_events a.metrics)
    (Metrics.fault_events b.metrics)

let () =
  Alcotest.run "ba_faults"
    [ ("plan",
       [ Alcotest.test_case "none & defaults" `Quick test_none_plan;
         Alcotest.test_case "validation" `Quick test_validation ]);
      ("links",
       [ Alcotest.test_case "certain drop" `Quick test_certain_drop;
         Alcotest.test_case "self-delivery exempt" `Quick test_self_delivery_exempt;
         Alcotest.test_case "zero rates pass through" `Quick test_zero_rates_passthrough;
         Alcotest.test_case "certain corrupt" `Quick test_certain_corrupt;
         Alcotest.test_case "duplicate stale redelivery" `Quick test_duplicate_stale_redelivery;
         Alcotest.test_case "duplicate aging & busy link" `Quick
           test_duplicate_aging_and_busy_link ]);
      ("silence", [ Alcotest.test_case "window semantics" `Quick test_silence_window ]);
      ("determinism",
       [ Alcotest.test_case "fault stream follows seed" `Quick test_deterministic_in_seed;
         Alcotest.test_case "faulty runs replay" `Quick test_faulty_run_deterministic ]);
      ("checker", [ Alcotest.test_case "benign-fault audit" `Quick test_benign_faults_audit ]) ]
