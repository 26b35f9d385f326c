(* Bracha reliable broadcast: validity, consistency, totality under
   adversarial scheduling and an equivocating Byzantine broadcaster. *)

open Ba_async

let run ?(n = 10) ?(t = 3) ?(adversary = Async_engine.fifo) ~broadcaster ~value ~seed () =
  let inputs = Array.make n 0 in
  inputs.(broadcaster) <- value;
  Async_engine.run ~protocol:(Bracha_rbc.make ~broadcaster) ~adversary ~n ~t ~inputs ~seed ()

let deliveries = Ba_sim.Run.honest_outputs

let test_thresholds () =
  Alcotest.(check int) "echo n=10 t=3" 7 (Bracha_rbc.echo_threshold ~n:10 ~t:3);
  Alcotest.(check int) "echo n=4 t=1" 3 (Bracha_rbc.echo_threshold ~n:4 ~t:1);
  Alcotest.(check int) "ready support" 4 (Bracha_rbc.ready_support ~t:3);
  Alcotest.(check int) "deliver" 7 (Bracha_rbc.deliver_threshold ~t:3)

let test_honest_broadcaster_validity () =
  List.iter
    (fun value ->
      let o = run ~broadcaster:2 ~value ~seed:1L () in
      Alcotest.(check bool) "completed" true o.completed;
      List.iter (fun (_, b) -> Alcotest.(check int) "delivered value" value b) (deliveries o);
      Alcotest.(check int) "everyone delivered" 10 (List.length (deliveries o)))
    [ 0; 1 ]

let test_random_scheduler () =
  for s = 1 to 20 do
    let o =
      run
        ~adversary:(Async_adv.random_scheduler ~rng:(Ba_prng.Rng.create (Int64.of_int s)))
        ~broadcaster:0 ~value:1 ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) "completed" true o.completed;
    List.iter (fun (_, b) -> Alcotest.(check int) "value" 1 b) (deliveries o)
  done

let test_delayed_broadcaster () =
  let o =
    run ~adversary:(Async_adv.delayer ~victims:[ 0 ]) ~broadcaster:0 ~value:1 ~seed:3L ()
  in
  Alcotest.(check bool) "totality despite starvation" true o.completed

let equivocating_broadcaster ~broadcaster =
  (* Corrupt the broadcaster before anything is delivered; inject Init 0 to
     even nodes, Init 1 to odd nodes, once each. *)
  let injected = ref false in
  Async_engine.opaque ~name:"equivocating-broadcaster"
      (fun view ->
        let corrupt =
          if view.Async_engine.step = 1 then [ broadcaster ] else []
        in
        let inject =
          if (not !injected) && (view.step = 1 || view.corrupted.(broadcaster)) then begin
            injected := true;
            List.init view.n (fun dst ->
                (broadcaster, dst, Bracha_rbc.Init (dst mod 2)))
          end
          else []
        in
        { Async_engine.deliver = None; corrupt; inject })

let test_equivocation_consistency () =
  (* The broadcaster sends 0 to half, 1 to the other half: honest nodes must
     never deliver two different values; and if anyone delivers, everyone
     does (totality). *)
  for s = 1 to 25 do
    let o =
      run ~n:10 ~t:3
        ~adversary:(equivocating_broadcaster ~broadcaster:4)
        ~broadcaster:4 ~value:0 ~seed:(Int64.of_int s) ()
    in
    let ds = deliveries o in
    (match ds with
    | [] -> ()
    | (_, b0) :: rest ->
        List.iter (fun (_, b) -> Alcotest.(check int) "consistency" b0 b) rest);
    if o.completed then
      Alcotest.(check int) "totality: all 9 honest delivered" 9 (List.length ds)
    else Alcotest.(check int) "no partial delivery" 0 (List.length ds)
  done

let test_silent_broadcaster_no_delivery () =
  (* Corrupt the broadcaster immediately and inject nothing: nobody may
     deliver anything. *)
  let kill =
    Async_engine.opaque ~name:"kill-broadcaster"
        (fun view ->
          { Async_engine.deliver = None;
            corrupt = (if view.Async_engine.step = 1 then [ 0 ] else []);
            inject = [] })
  in
  let o = run ~adversary:kill ~broadcaster:0 ~value:1 ~seed:7L () in
  Alcotest.(check bool) "incomplete" false o.completed;
  Alcotest.(check int) "no deliveries" 0 (List.length (deliveries o))

let test_forged_init_ignored () =
  (* A Byzantine helper (not the broadcaster) injecting Init must be
     ignored: everyone still delivers the real broadcaster's value. *)
  let helper_forger =
    Async_engine.opaque ~name:"helper-forger"
        (fun view ->
          let corrupt = if view.Async_engine.step = 1 then [ 9 ] else [] in
          let inject =
            if view.step <= 20 && view.corrupted.(9) then
              [ (9, view.step mod view.n, Bracha_rbc.Init 0) ]
            else []
          in
          { Async_engine.deliver = None; corrupt; inject })
  in
  let o = run ~adversary:helper_forger ~broadcaster:2 ~value:1 ~seed:9L () in
  Alcotest.(check bool) "completed" true o.completed;
  List.iter (fun (_, b) -> Alcotest.(check int) "real value wins" 1 b) (deliveries o)

let test_ready_amplification () =
  (* Byzantine helpers sending t Ready(0) alone cannot cause delivery of 0
     (needs 2t+1), nor even an honest Ready (needs t+1). *)
  let ready_spammer =
    Async_engine.opaque ~name:"ready-spammer"
        (fun view ->
          let corrupt = if view.Async_engine.step = 1 then [ 7; 8; 9 ] else [] in
          let inject =
            if view.step <= 60 && view.corrupted.(9) then
              [ (7, view.step mod view.n, Bracha_rbc.Ready 0);
                (8, view.step mod view.n, Bracha_rbc.Ready 0);
                (9, view.step mod view.n, Bracha_rbc.Ready 0) ]
            else []
          in
          { Async_engine.deliver = None; corrupt; inject })
  in
  let o = run ~adversary:ready_spammer ~broadcaster:2 ~value:1 ~seed:11L () in
  Alcotest.(check bool) "completed" true o.completed;
  List.iter (fun (_, b) -> Alcotest.(check int) "spam cannot flip value" 1 b) (deliveries o)

let prop_consistency_random =
  QCheck.Test.make ~name:"consistency under random scheduling + equivocation" ~count:30
    QCheck.int64 (fun seed ->
      let o =
        run ~n:7 ~t:2
          ~adversary:(equivocating_broadcaster ~broadcaster:3)
          ~broadcaster:3 ~value:0 ~seed ()
      in
      match deliveries o with
      | [] -> true
      | (_, b0) :: rest -> List.for_all (fun (_, b) -> b = b0) rest)

let () =
  Alcotest.run "ba_bracha_rbc"
    [ ("reliable-broadcast",
       [ Alcotest.test_case "thresholds" `Quick test_thresholds;
         Alcotest.test_case "validity" `Quick test_honest_broadcaster_validity;
         Alcotest.test_case "random scheduler" `Quick test_random_scheduler;
         Alcotest.test_case "delayed broadcaster" `Quick test_delayed_broadcaster;
         Alcotest.test_case "equivocation consistency" `Quick test_equivocation_consistency;
         Alcotest.test_case "silent broadcaster" `Quick test_silent_broadcaster_no_delivery;
         Alcotest.test_case "forged init ignored" `Quick test_forged_init_ignored;
         Alcotest.test_case "ready amplification guard" `Quick test_ready_amplification ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_consistency_random ]) ]
