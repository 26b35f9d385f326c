(* The exhaustive verifier stack (DESIGN.md §12): TA IR validation and
   deterministic export, the sync/async explorers on clean protocols, the
   seeded mutant's counterexample (found, serialized, replayed), and the
   Checker edge cases the explorers lean on. *)

module Ta = Ba_verify.Ta
module Ta_model = Ba_verify.Ta_model
module Exhaust = Ba_verify.Exhaust

(* ------------------------------------------------------------------ *)
(* TA IR: the exported models validate; broken ones do not. *)

let test_models_validate () =
  List.iter
    (fun (stem, a) ->
      match Ta.validate a with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s: %s" stem
            (String.concat "; " (List.map (Format.asprintf "%a" Ta.pp_error) errs)))
    (Ta_model.all ())

let base =
  { Ta.ta_name = "toy";
    ta_comment = [];
    ta_params = [ "N"; "T" ];
    ta_shared = [ "s" ];
    ta_locations = [ "A"; "B" ];
    ta_initial = [ "A" ];
    ta_assumptions = [];
    ta_rules = [];
    ta_specs = [] }

let det r_from r_to r_guard r_updates = { Ta.r_from; r_to; r_guard; r_updates; r_kind = Ta.Det }

let expect_invalid what a =
  match Ta.validate a with
  | [] -> Alcotest.failf "%s: expected validation errors, got none" what
  | _ -> ()

let test_validator_rejects () =
  (* Upper-bounded counter: the guard could switch on -> off. *)
  expect_invalid "upper guard"
    { base with
      ta_rules = [ det "A" "B" (Ta.Cmp (Ta.Ge, Ta.Param "N", Ta.Shared "s")) [] ] };
  (* Counter with negative coefficient on the lower side. *)
  expect_invalid "negative coefficient"
    { base with
      ta_rules =
        [ det "A" "B" (Ta.Cmp (Ta.Ge, Ta.Sub (Ta.Param "N", Ta.Shared "s"), Ta.Const 0)) [] ] };
  (* Decrement: counters are monotone. *)
  expect_invalid "decrement"
    { base with ta_rules = [ det "A" "B" Ta.True [ { Ta.u_shared = "s"; u_delta = -1 } ] ] };
  (* Cycle: would break the bounded-counter argument. *)
  expect_invalid "cycle"
    { base with ta_rules = [ det "A" "B" Ta.True []; det "B" "A" Ta.True [] ] };
  (* Coin branch with one arm. *)
  expect_invalid "lone coin arm"
    { base with
      ta_rules = [ { Ta.r_from = "A"; r_to = "B"; r_guard = Ta.True; r_updates = [];
                     r_kind = Ta.Coin { coin = 0; value = 0 } } ] };
  (* Undeclared counter and location. *)
  expect_invalid "undeclared counter"
    { base with ta_rules = [ det "A" "B" (Ta.Cmp (Ta.Ge, Ta.Shared "zz", Ta.Const 1)) [] ] };
  expect_invalid "undeclared location" { base with ta_rules = [ det "A" "Z" Ta.True [] ] }

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let test_export_deterministic () =
  (* Two independent constructions of each model render byte-identically —
     the property the committed verify/ta goldens rely on. *)
  List.iter2
    (fun (s1, a1) (s2, a2) ->
      Alcotest.(check string) "stable stems" s1 s2;
      let t1 = Ta.to_string a1 and t2 = Ta.to_string a2 in
      Alcotest.(check string) (s1 ^ " byte-identical") t1 t2;
      Alcotest.(check bool) (s1 ^ " nonempty") true (String.length t1 > 200))
    (Ta_model.all ()) (Ta_model.all ())

let test_export_comment_safe () =
  (* A "*/" inside a comment line must not close the C comment early. *)
  let s = Ta.to_string { base with ta_comment = [ "W*/Q* post-send" ] } in
  Alcotest.(check bool) "embedded close escaped" false (contains s "W*/Q*");
  Alcotest.(check bool) "payload survives" true (contains s "Q* post-send")

(* ------------------------------------------------------------------ *)
(* Sync explorer. *)

let test_sync_rabin_verified () =
  match
    Exhaust.verify_sync ~protocol:Exhaust.Rabin ~n:4 ~t:1 ~phases:2 ~inputs:`Weights
      ~max_states:2_000_000 ()
  with
  | Exhaust.Verified stats ->
      Alcotest.(check bool) "explored a real space" true (stats.st_states > 100);
      Alcotest.(check bool) "one run per weight x corruption shape" true (stats.st_runs >= 5)
  | Violation (cex, _) -> Alcotest.failf "unexpected violation: %s" cex.sc_reason
  | Out_of_budget _ -> Alcotest.fail "budget exhausted on a tiny instance"

let test_sync_all_inputs_verified () =
  match
    Exhaust.verify_sync ~protocol:Exhaust.Rabin ~n:3 ~t:0 ~phases:2 ~inputs:`All
      ~max_states:2_000_000 ()
  with
  | Exhaust.Verified stats -> Alcotest.(check int) "2^3 input vectors" 8 stats.st_runs
  | Violation (cex, _) -> Alcotest.failf "unexpected violation: %s" cex.sc_reason
  | Out_of_budget _ -> Alcotest.fail "budget exhausted on a tiny instance"

let test_sync_budget () =
  match
    Exhaust.verify_sync ~protocol:Exhaust.Rabin ~n:4 ~t:1 ~phases:2 ~inputs:`Weights
      ~max_states:10 ()
  with
  | Exhaust.Out_of_budget stats -> Alcotest.(check bool) "counted" true (stats.st_states >= 10)
  | _ -> Alcotest.fail "a 10-state budget cannot cover the space"

let get_mutant_cex () =
  match
    Exhaust.verify_sync ~protocol:Exhaust.Rabin_broken ~n:4 ~t:1 ~phases:2 ~inputs:`Weights
      ~max_states:2_000_000 ()
  with
  | Exhaust.Violation (cex, _) -> cex
  | Verified _ -> Alcotest.fail "the off-by-one mutant verified clean"
  | Out_of_budget _ -> Alcotest.fail "budget exhausted before the mutant's bug"

let test_mutant_violation_replays () =
  let cex = get_mutant_cex () in
  Alcotest.(check bool) "replay through Ba_sim.Engine confirms" true
    (Exhaust.sync_cex_confirmed cex);
  Alcotest.(check string) "mutant name recorded" "rabin-broken" cex.sc_protocol

let test_sync_cex_json_roundtrip () =
  let cex = get_mutant_cex () in
  match Exhaust.sync_cex_of_json (Exhaust.sync_cex_to_json cex) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok cex' ->
      Alcotest.(check bool) "fields survive" true (cex = cex');
      Alcotest.(check bool) "decoded replay still violates" true
        (Exhaust.sync_cex_confirmed cex')

let test_protocol_names () =
  Alcotest.(check string) "rabin" "rabin" (Exhaust.sync_protocol_name Exhaust.Rabin);
  List.iter
    (fun p ->
      Alcotest.(check bool) "name round-trips" true
        (Exhaust.sync_protocol_of_name (Exhaust.sync_protocol_name p) = Some p))
    [ Exhaust.Rabin; Exhaust.Rabin_broken ];
  Alcotest.(check bool) "unknown rejected" true (Exhaust.sync_protocol_of_name "x" = None)

(* ------------------------------------------------------------------ *)
(* Async explorer. *)

let test_async_fault_free_verified () =
  match Exhaust.verify_async ~n:4 ~t:0 ~broadcaster:0 ~max_states:100_000 () with
  | Exhaust.Verified stats ->
      (* Eager closure: with no Byzantine node every delivery is
         uncontested, so both inputs collapse to one canonical run each. *)
      Alcotest.(check bool) "closure collapses the space" true (stats.st_states <= 8);
      Alcotest.(check int) "both broadcaster inputs" 2 stats.st_runs
  | Violation (cex, _) -> Alcotest.failf "unexpected violation: %s" cex.ac_reason
  | Out_of_budget _ -> Alcotest.fail "budget exhausted on the fault-free instance"

let test_async_budget () =
  match Exhaust.verify_async ~n:4 ~t:1 ~broadcaster:0 ~max_states:50 () with
  | Exhaust.Out_of_budget _ -> ()
  | Verified _ -> Alcotest.fail "50 states cannot cover the Byzantine configs"
  | Violation (cex, _) -> Alcotest.failf "unexpected violation: %s" cex.ac_reason

let test_async_cex_json_roundtrip () =
  let cex =
    { Exhaust.ac_n = 4;
      ac_t = 1;
      ac_broadcaster = 0;
      ac_input = 1;
      ac_byz = [ 2 ];
      ac_reason = "synthetic";
      ac_deliveries =
        [ { Exhaust.dv_src = 0; dv_dst = 1; dv_msg = Ba_async.Bracha_rbc.Init 1 };
          { Exhaust.dv_src = 2; dv_dst = 1; dv_msg = Ba_async.Bracha_rbc.Echo 0 };
          { Exhaust.dv_src = 2; dv_dst = 3; dv_msg = Ba_async.Bracha_rbc.Ready 1 } ] }
  in
  match Exhaust.async_cex_of_json (Exhaust.async_cex_to_json cex) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok cex' -> Alcotest.(check bool) "fields survive" true (cex = cex')

let test_async_benign_cex_not_confirmed () =
  (* A recorded schedule with no violation must NOT be "confirmed": the
     replay re-checks the outcome instead of trusting the tape. *)
  let cex =
    { Exhaust.ac_n = 4;
      ac_t = 0;
      ac_broadcaster = 0;
      ac_input = 1;
      ac_byz = [];
      ac_reason = "synthetic non-violation";
      ac_deliveries = [] }
  in
  Alcotest.(check bool) "benign schedule rejected" false (Exhaust.async_cex_confirmed cex)

(* ------------------------------------------------------------------ *)
(* Checker edge cases: the explorers (and the harness) rely on these
   checks being vacuous exactly when they should be. *)

let noop_adversary =
  { Ba_sim.Adversary.adv_name = "noop"; act = (fun _ -> Ba_sim.Adversary.no_op_action) }

let rabin_protocol () =
  Ba_core.Skeleton.make
    { Ba_core.Skeleton.cfg_name = "rabin";
      cfg_phases = 2;
      cfg_coin = Ba_core.Skeleton.Dealer (fun _ -> 0);
      cfg_cycle = false;
      cfg_coin_round = `Piggyback;
      cfg_termination = `Extra_phase }

let names vs = List.map (fun v -> v.Ba_trace.Checker.check) vs

let test_checker_zero_round_outcome () =
  (* max_rounds = 0: nobody ever steps. Agreement and validity are vacuous
     on the empty output set; completion must flag the truncated run. *)
  let o =
    Ba_sim.Engine.run ~max_rounds:0 ~protocol:(rabin_protocol ()) ~adversary:noop_adversary
      ~n:4 ~t:1 ~inputs:[| 0; 1; 0; 1 |] ~seed:7L ()
  in
  Alcotest.(check int) "no rounds ran" 0 (Ba_sim.Run.span_units o.span);
  Alcotest.(check bool) "not completed" false o.completed;
  Alcotest.(check (list string)) "agreement vacuous" [] (names (Ba_trace.Checker.agreement o));
  Alcotest.(check (list string)) "validity vacuous" [] (names (Ba_trace.Checker.validity o));
  Alcotest.(check bool) "completion flags the cap" true
    (Ba_trace.Checker.completion o <> [])

let silent_protocol : (unit, unit) Ba_sim.Protocol.t =
  { Ba_sim.Protocol.name = "silent";
    init = (fun _ ~input:_ -> ());
    send = (fun _ () ~round:_ -> None);
    recv = (fun _ () ~round:_ ~inbox:_ -> ());
    output = (fun () -> None);
    halted = (fun () -> false);
    msg_bits = (fun () -> 0);
    msg_words = (fun () -> 1);
    codec = None;
    inspect = (fun () -> None) }

let test_checker_all_silent_nodes () =
  (* Nodes that never send and never decide: agreement/validity stay
     vacuous over the whole run, completion reports the undecided nodes. *)
  let o =
    Ba_sim.Engine.run ~max_rounds:3 ~protocol:silent_protocol ~adversary:noop_adversary ~n:4
      ~t:1 ~inputs:[| 0; 0; 1; 1 |] ~seed:7L ()
  in
  Alcotest.(check bool) "silent run cannot complete" false o.completed;
  Alcotest.(check bool) "no outputs" true (Array.for_all (( = ) None) o.outputs);
  Alcotest.(check (list string)) "agreement vacuous" [] (names (Ba_trace.Checker.agreement o));
  Alcotest.(check (list string)) "validity vacuous" [] (names (Ba_trace.Checker.validity o));
  Alcotest.(check bool) "completion flags undecided nodes" true
    (Ba_trace.Checker.completion o <> []);
  Alcotest.(check (list string)) "no phantom corruptions" []
    (names (Ba_trace.Checker.corruption_budget o))

let test_checker_fault_free_async_trace () =
  (* A fault-free Bracha run under the FIFO scheduler passes the full
     substrate-level audit, including the benign-fault check. *)
  let o =
    Ba_async.Async_engine.run ~protocol:(Ba_async.Bracha_rbc.make ~broadcaster:0)
      ~adversary:Ba_async.Async_engine.fifo ~n:4 ~t:1 ~inputs:[| 1; 0; 0; 0 |] ~seed:7L ()
  in
  Alcotest.(check (list string)) "standard audit clean" []
    (names (Ba_trace.Checker.standard o));
  Alcotest.(check bool) "everyone delivered the broadcaster's value" true
    (Array.for_all (( = ) (Some 1)) o.outputs)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ba_verify"
    [ ("ta",
       [ Alcotest.test_case "exported models validate" `Quick test_models_validate;
         Alcotest.test_case "validator rejects broken IR" `Quick test_validator_rejects;
         Alcotest.test_case "export is deterministic" `Quick test_export_deterministic;
         Alcotest.test_case "comment close is escaped" `Quick test_export_comment_safe ]);
      ("sync",
       [ Alcotest.test_case "rabin n=4 t=1 verified" `Quick test_sync_rabin_verified;
         Alcotest.test_case "all-inputs sweep" `Quick test_sync_all_inputs_verified;
         Alcotest.test_case "budget exhaustion" `Quick test_sync_budget;
         Alcotest.test_case "mutant violation replays" `Quick test_mutant_violation_replays;
         Alcotest.test_case "cex json round-trip" `Quick test_sync_cex_json_roundtrip;
         Alcotest.test_case "protocol names" `Quick test_protocol_names ]);
      ("async",
       [ Alcotest.test_case "fault-free collapses" `Quick test_async_fault_free_verified;
         Alcotest.test_case "budget exhaustion" `Quick test_async_budget;
         Alcotest.test_case "cex json round-trip" `Quick test_async_cex_json_roundtrip;
         Alcotest.test_case "benign cex not confirmed" `Quick
           test_async_benign_cex_not_confirmed ]);
      ("checker edge cases",
       [ Alcotest.test_case "zero-round outcome" `Quick test_checker_zero_round_outcome;
         Alcotest.test_case "all-silent nodes" `Quick test_checker_all_silent_nodes;
         Alcotest.test_case "fault-free async trace" `Quick
           test_checker_fault_free_async_trace ]) ]
