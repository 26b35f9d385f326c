(* Engine semantics: delivery, self-loop, rushing corruption, budget
   clamping, metrics conservation, halting, outcome helpers. *)

(* A diagnostic protocol: each node broadcasts (round, me) and records its
   inbox; halts after [lifetime] rounds and outputs its input. *)
type echo_state = {
  input : int;
  lifetime : int;
  seen : (int * (int * int) option array) list;  (* (round, inbox snapshot) *)
  done_ : bool;
}

let echo ~lifetime : (echo_state, int * int) Ba_sim.Protocol.t =
  { Ba_sim.Protocol.name = "echo";
    init = (fun _ctx ~input -> { input; lifetime; seen = []; done_ = false });
    send = (fun ctx _st ~round -> Some (round, ctx.Ba_sim.Protocol.me));
    recv =
      (fun _ctx st ~round ~inbox ->
        let st = { st with seen = (round, Ba_sim.Plane.to_array inbox) :: st.seen } in
        if round >= st.lifetime then { st with done_ = true } else st);
    output = (fun st -> if st.done_ then Some st.input else None);
    halted = (fun st -> st.done_);
    msg_bits = (fun _ -> 8);
    msg_words = (fun _ -> 1);
    codec = None;
    inspect = (fun _ -> None) }

let run ?(adversary = Ba_sim.Adversary.silent) ?(n = 5) ?(t = 1) ?(lifetime = 3)
    ?(inputs = None) ?max_rounds ?(record = false) () =
  let inputs = match inputs with Some i -> i | None -> Array.init n (fun i -> i mod 2) in
  Ba_sim.Engine.run ?max_rounds ~record ~protocol:(echo ~lifetime) ~adversary ~n ~t ~inputs
    ~seed:1L ()

let test_round_count_and_completion () =
  let o = run ~lifetime:4 () in
  Alcotest.(check int) "rounds = lifetime" 4 (Ba_sim.Run.span_units o.span);
  Alcotest.(check bool) "completed" true o.completed

let test_max_rounds_cap () =
  let o = run ~lifetime:100 ~max_rounds:5 () in
  Alcotest.(check int) "stopped at cap" 5 (Ba_sim.Run.span_units o.span);
  Alcotest.(check bool) "not completed" false o.completed

let test_outputs () =
  let o = run ~n:4 ~t:0 ~inputs:(Some [| 1; 0; 1; 1 |]) () in
  Alcotest.(check (array (option int))) "outputs = inputs"
    [| Some 1; Some 0; Some 1; Some 1 |] o.outputs

let test_self_delivery () =
  (* Inspect a node's state via a crafted protocol run: node 2's inbox slot
     2 must hold its own broadcast. *)
  let captured = ref None in
  let probe : (unit, int * int) Ba_sim.Protocol.t =
    { Ba_sim.Protocol.name = "probe";
      init = (fun _ ~input:_ -> ());
      send = (fun ctx () ~round -> Some (round, ctx.Ba_sim.Protocol.me));
      recv =
        (fun ctx () ~round:_ ~inbox ->
          if ctx.Ba_sim.Protocol.me = 2 then captured := Some (Ba_sim.Plane.to_array inbox));
      output = (fun () -> Some 0);
      halted = (fun () -> true);
      msg_bits = (fun _ -> 1);
      msg_words = (fun _ -> 1);
      codec = None;
      inspect = (fun () -> None) }
  in
  ignore
    (Ba_sim.Engine.run ~protocol:probe ~adversary:Ba_sim.Adversary.silent ~n:4 ~t:0
       ~inputs:[| 0; 0; 0; 0 |] ~seed:2L ());
  match !captured with
  | Some inbox ->
      Alcotest.(check (option (pair int int))) "own message present" (Some (1, 2)) inbox.(2);
      Alcotest.(check (option (pair int int))) "peer message" (Some (1, 0)) inbox.(0)
  | None -> Alcotest.fail "probe never ran"

let test_rushing_replacement () =
  (* Corrupt node 0 in round 1: its round-1 broadcast must NOT be delivered
     even though it was produced before the adversary acted. *)
  let adv =
    { Ba_sim.Adversary.adv_name = "corrupt0";
      act =
        (fun view ->
          { Ba_sim.Adversary.corrupt = (if view.round = 1 then [ 0 ] else []);
            byz_msg = (fun ~src:_ ~dst:_ -> None) }) }
  in
  let o = run ~adversary:adv ~n:4 ~t:1 ~lifetime:1 ~record:true () in
  Alcotest.(check bool) "0 corrupted" true o.corrupted.(0);
  Alcotest.(check int) "one corruption" 1 o.corruptions_used;
  (* Every honest message was delivered to 3 honest nodes x 3 senders minus
     self-loops... honest senders are 1,2,3 -> each delivers to the other 2
     non-self honest nodes + corrupted node is not a receiver. 3 senders * 2
     receivers = 6 network messages. *)
  Alcotest.(check int) "messages" 6 (Ba_sim.Metrics.messages o.metrics)

let test_budget_clamped () =
  let adv =
    { Ba_sim.Adversary.adv_name = "greedy";
      act =
        (fun view ->
          { Ba_sim.Adversary.corrupt = List.init view.n Fun.id;
            byz_msg = (fun ~src:_ ~dst:_ -> None) }) }
  in
  let o = run ~adversary:adv ~n:6 ~t:2 () in
  Alcotest.(check int) "only t corruptions applied" 2 o.corruptions_used;
  let count = Array.fold_left (fun a c -> if c then a + 1 else a) 0 o.corrupted in
  Alcotest.(check int) "corrupted flags match" 2 count

let test_double_corruption_ignored () =
  let adv =
    { Ba_sim.Adversary.adv_name = "repeat";
      act =
        (fun _view ->
          { Ba_sim.Adversary.corrupt = [ 1; 1; 1 ]; byz_msg = (fun ~src:_ ~dst:_ -> None) }) }
  in
  let o = run ~adversary:adv ~n:5 ~t:3 () in
  Alcotest.(check int) "node 1 counted once" 1 o.corruptions_used

let test_byzantine_equivocation_delivery () =
  (* Corrupted node sends different payloads per receiver; verify per-dst
     delivery and metric counting as byzantine. *)
  let adv =
    { Ba_sim.Adversary.adv_name = "equivocate";
      act =
        (fun view ->
          { Ba_sim.Adversary.corrupt = (if view.round = 1 then [ 0 ] else []);
            byz_msg = (fun ~src ~dst -> Some (1000 + src, dst)) }) }
  in
  let o = run ~adversary:adv ~n:3 ~t:1 ~lifetime:1 () in
  Alcotest.(check bool) "byz messages counted" true
    (Ba_sim.Metrics.byzantine_messages o.metrics = 2)

let test_halted_nodes_stop_sending () =
  (* lifetime 1: everyone halts after round 1; engine must stop. *)
  let o = run ~lifetime:1 () in
  Alcotest.(check int) "one round" 1 (Ba_sim.Run.span_units o.span);
  Alcotest.(check bool) "completed" true o.completed

let test_input_validation () =
  Alcotest.check_raises "bad t" (Invalid_argument "Engine.run: need 0 <= t < n") (fun () ->
      ignore (run ~n:3 ~t:3 ()));
  Alcotest.check_raises "bad inputs length" (Invalid_argument "Engine.run: inputs length <> n")
    (fun () -> ignore (run ~n:3 ~t:0 ~inputs:(Some [| 0 |]) ()));
  Alcotest.check_raises "non-binary input" (Invalid_argument "Engine.run: inputs must be 0/1")
    (fun () -> ignore (run ~n:3 ~t:0 ~inputs:(Some [| 0; 2; 0 |]) ()))

let test_agreement_validity_helpers () =
  let mk outputs corrupted inputs : Ba_sim.Run.outcome =
    { protocol_name = "x"; adversary_name = "y"; n = Array.length outputs; t = 1; inputs;
      span = Ba_sim.Run.Rounds 1; completed = true; outputs; corrupted;
      corruptions_used = Array.fold_left (fun a c -> if c then a + 1 else a) 0 corrupted;
      metrics = Ba_sim.Metrics.create (); records = [] }
  in
  let o = mk [| Some 1; Some 1; None |] [| false; false; true |] [| 1; 1; 0 |] in
  Alcotest.(check bool) "agreement" true (Ba_sim.Run.agreement_holds o);
  Alcotest.(check bool) "validity (honest inputs 1)" true (Ba_sim.Run.validity_holds o);
  let o2 = mk [| Some 1; Some 0; None |] [| false; false; true |] [| 1; 1; 0 |] in
  Alcotest.(check bool) "disagreement detected" false (Ba_sim.Run.agreement_holds o2);
  Alcotest.(check bool) "validity violated" false (Ba_sim.Run.validity_holds o2);
  (* mixed honest inputs: validity vacuous *)
  let o3 = mk [| Some 0; Some 0; None |] [| false; false; true |] [| 1; 0; 1 |] in
  Alcotest.(check bool) "validity vacuous on mixed inputs" true (Ba_sim.Run.validity_holds o3);
  (* missing output = agreement failure via all_honest_decided *)
  let o4 = mk [| Some 1; None; None |] [| false; false; true |] [| 1; 1; 0 |] in
  Alcotest.(check bool) "undecided honest breaks agreement" false
    (Ba_sim.Run.agreement_holds o4)

let test_metrics_bits () =
  let o = run ~n:4 ~t:0 ~lifetime:2 () in
  (* 4 honest senders, 3 receivers each (no self over network), 2 rounds. *)
  Alcotest.(check int) "messages" 24 (Ba_sim.Metrics.messages o.metrics);
  Alcotest.(check int) "bits = 8 per message" (24 * 8) (Ba_sim.Metrics.bits o.metrics);
  Alcotest.(check int) "max bits" 8 (Ba_sim.Metrics.max_bits_per_message o.metrics);
  Alcotest.(check int) "rounds metric" 2 (Ba_sim.Metrics.rounds o.metrics)

let test_records () =
  let o = run ~n:4 ~t:1 ~lifetime:3 ~record:true () in
  Alcotest.(check int) "one record per round" 3 (List.length o.records);
  List.iteri
    (fun i (r : Ba_sim.Run.round_record) ->
      Alcotest.(check int) "rounds in order" (i + 1) r.rr_round)
    o.records

let test_adversary_sees_current_round_msgs () =
  (* The rushing guarantee: the view must contain the honest broadcasts of
     the round being corrupted. *)
  let saw = ref None in
  let adv =
    { Ba_sim.Adversary.adv_name = "peek";
      act =
        (fun view ->
          if view.round = 2 then saw := Some (Array.map (fun m -> m) view.honest_msgs);
          Ba_sim.Adversary.no_op_action) }
  in
  ignore (run ~adversary:adv ~n:3 ~t:1 ~lifetime:3 ());
  match !saw with
  | Some msgs ->
      Alcotest.(check (option (pair int int))) "sees round-2 broadcast of node 1" (Some (2, 1))
        msgs.(1)
  | None -> Alcotest.fail "adversary never saw round 2"

let test_congest_metering () =
  (* echo payload is 8 bits: limit 7 flags every delivered message, limit 8
     flags none. *)
  let go limit =
    let o =
      Ba_sim.Engine.run ~congest_limit_bits:limit ~protocol:(echo ~lifetime:2)
        ~adversary:Ba_sim.Adversary.silent ~n:4 ~t:0 ~inputs:(Array.make 4 0) ~seed:3L ()
    in
    Ba_sim.Metrics.congest_violations o.metrics
  in
  Alcotest.(check int) "limit 8: none" 0 (go 8);
  Alcotest.(check int) "limit 7: all 24" 24 (go 7)

let test_congest_checker_fires () =
  let o =
    Ba_sim.Engine.run ~congest_limit_bits:7 ~protocol:(echo ~lifetime:1)
      ~adversary:Ba_sim.Adversary.silent ~n:3 ~t:0 ~inputs:(Array.make 3 0) ~seed:4L ()
  in
  Alcotest.(check bool) "congest violation reported" true
    (List.exists
       (fun (v : Ba_trace.Checker.violation) -> v.check = "congest")
       (Ba_trace.Checker.standard o))

let test_alg3_respects_congest () =
  (* Algorithm 3 payloads stay within O(log n): a 32-bit limit at n=64 must
     never fire. *)
  let inst = Ba_core.Agreement.make ~n:64 ~t:21 () in
  let o =
    Ba_sim.Engine.run ~congest_limit_bits:32 ~protocol:inst.protocol
      ~adversary:Ba_sim.Adversary.silent ~n:64 ~t:21
      ~inputs:(Array.init 64 (fun i -> i mod 2)) ~seed:5L ()
  in
  Alcotest.(check int) "no violations" 0 (Ba_sim.Metrics.congest_violations o.metrics)

let test_eig_violates_congest () =
  let o =
    Ba_sim.Engine.run ~congest_limit_bits:32 ~protocol:Ba_baselines.Eig.protocol
      ~adversary:Ba_sim.Adversary.silent ~n:7 ~t:2 ~inputs:(Array.make 7 1) ~seed:6L ()
  in
  Alcotest.(check bool) "EIG flagged" true (Ba_sim.Metrics.congest_violations o.metrics > 0)

let prop_message_conservation =
  QCheck.Test.make ~name:"messages = senders x (n-1) x rounds with silent adversary" ~count:100
    QCheck.(pair (int_range 2 20) (int_range 1 5))
    (fun (n, lifetime) ->
      let o = run ~n ~t:0 ~lifetime ~inputs:(Some (Array.make n 0)) () in
      Ba_sim.Metrics.messages o.metrics = n * (n - 1) * lifetime)

let () =
  Alcotest.run "ba_sim"
    [ ("engine",
       [ Alcotest.test_case "round count" `Quick test_round_count_and_completion;
         Alcotest.test_case "max_rounds cap" `Quick test_max_rounds_cap;
         Alcotest.test_case "outputs" `Quick test_outputs;
         Alcotest.test_case "self delivery" `Quick test_self_delivery;
         Alcotest.test_case "rushing replacement" `Quick test_rushing_replacement;
         Alcotest.test_case "budget clamped" `Quick test_budget_clamped;
         Alcotest.test_case "double corruption ignored" `Quick test_double_corruption_ignored;
         Alcotest.test_case "equivocation delivery" `Quick test_byzantine_equivocation_delivery;
         Alcotest.test_case "halted nodes stop" `Quick test_halted_nodes_stop_sending;
         Alcotest.test_case "input validation" `Quick test_input_validation;
         Alcotest.test_case "outcome helpers" `Quick test_agreement_validity_helpers;
         Alcotest.test_case "metrics bits" `Quick test_metrics_bits;
         Alcotest.test_case "records" `Quick test_records;
         Alcotest.test_case "rushing view" `Quick test_adversary_sees_current_round_msgs;
         Alcotest.test_case "congest metering" `Quick test_congest_metering;
         Alcotest.test_case "congest checker" `Quick test_congest_checker_fires;
         Alcotest.test_case "alg3 within CONGEST" `Quick test_alg3_respects_congest;
         Alcotest.test_case "eig violates CONGEST" `Quick test_eig_violates_congest ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_message_conservation ]) ]
