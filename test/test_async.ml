(* Asynchronous engine + Ben-Or: delivery semantics, fairness, and the
   protocol's agreement/validity under adversarial scheduling. *)

open Ba_async

(* A trivial async protocol: decide on the first message value received;
   node 0 broadcasts its input. *)
type echo_state = { my_input : int; got : int option }

let echo : (echo_state, int) Async_engine.protocol =
  { Async_engine.name = "async-echo";
    init =
      (fun ctx ~input ->
        let sends =
          if ctx.Async_engine.me = 0 then Async_engine.broadcast ~n:ctx.n input else []
        in
        ({ my_input = input; got = (if ctx.me = 0 then Some input else None) }, sends));
    on_message = (fun _ctx st ~src:_ msg ->
        ((if st.got = None then { st with got = Some msg } else st), []));
    output = (fun st -> st.got);
    msg_bits = (fun _ -> 1) }

let test_echo_delivers_everything () =
  let n = 5 in
  let o =
    Async_engine.run ~protocol:echo ~adversary:Async_engine.fifo ~n ~t:0
      ~inputs:[| 1; 0; 0; 0; 0 |] ~seed:1L ()
  in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check int) "deliveries" 5 (Ba_sim.Metrics.messages o.metrics);
  Array.iter (fun out -> Alcotest.(check (option int)) "all got 1" (Some 1) out) o.outputs

let test_deadlock_detected () =
  (* Nobody sends: node 1..n never decide -> incomplete, no infinite loop. *)
  let silent : (echo_state, int) Async_engine.protocol =
    { echo with
      init = (fun _ctx ~input -> ({ my_input = input; got = None }, [])) }
  in
  let o =
    Async_engine.run ~protocol:silent ~adversary:Async_engine.fifo ~n:4 ~t:0
      ~inputs:(Array.make 4 0) ~seed:1L ()
  in
  Alcotest.(check bool) "incomplete" false o.completed

let test_bounded_delay_forces_delivery () =
  (* The delayer starves node 0's broadcast; the bounded-delay rule must
     still deliver it. *)
  let n = 5 in
  let o =
    Async_engine.run ~max_delay:10 ~protocol:echo
      ~adversary:(Async_adv.delayer ~victims:[ 0 ]) ~n ~t:0 ~inputs:[| 1; 0; 0; 0; 0 |]
      ~seed:2L ()
  in
  Alcotest.(check bool) "completed despite starvation" true o.completed

let test_corruption_retracts_messages () =
  (* Corrupt node 0 at step 1: its initial broadcast must never arrive. *)
  let adv =
    Async_engine.opaque ~name:"kill-0"
        (fun view ->
          { Async_engine.deliver = None;
            corrupt = (if view.Async_engine.step = 1 then [ 0 ] else []);
            inject = [] })
  in
  let o =
    Async_engine.run ~max_steps:200 ~protocol:echo ~adversary:adv ~n:4 ~t:1
      ~inputs:[| 1; 0; 0; 0 |] ~seed:3L ()
  in
  Alcotest.(check bool) "receivers starve" false o.completed;
  Alcotest.(check int) "no deliveries" 0 (Ba_sim.Metrics.messages o.metrics)

let test_injection_requires_corruption () =
  (* Injections from honest nodes are dropped. *)
  let adv =
    Async_engine.opaque ~name:"bad-inject"
        (fun _ -> { Async_engine.deliver = None; corrupt = []; inject = [ (1, 2, 99) ] })
  in
  let o =
    Async_engine.run ~max_steps:50 ~protocol:echo ~adversary:adv ~n:4 ~t:1
      ~inputs:[| 1; 0; 0; 0 |] ~seed:4L ()
  in
  (* node 2 must decide 1 (echo from node 0), never 99 *)
  Alcotest.(check (option int)) "forged message dropped" (Some 1) o.outputs.(2)

let test_validation () =
  Alcotest.check_raises "bad t" (Invalid_argument "Async_engine.run: need 0 <= t < n")
    (fun () ->
      ignore
        (Async_engine.run ~protocol:echo ~adversary:Async_engine.fifo ~n:3 ~t:3
           ~inputs:(Array.make 3 0) ~seed:1L ()))

(* ---------------- Ben-Or ---------------- *)

let ben_or_run ?(n = 11) ?(t = 2) ~adversary ~inputs ~seed () =
  Async_engine.run ~protocol:(Ben_or_async.make ~n ~t) ~adversary ~n ~t ~inputs ~seed ()

let test_ben_or_validity () =
  List.iter
    (fun b ->
      let o =
        ben_or_run ~adversary:Async_engine.fifo ~inputs:(Array.make 11 b) ~seed:5L ()
      in
      Alcotest.(check bool) "completed" true o.completed;
      Alcotest.(check bool) "validity" true (Ba_sim.Run.validity_holds o);
      List.iter (fun out -> Alcotest.(check (option int)) "value" (Some b) out)
        (Array.to_list o.outputs))
    [ 0; 1 ]

let test_ben_or_agreement_random_scheduler () =
  for s = 1 to 15 do
    let o =
      ben_or_run
        ~adversary:(Async_adv.random_scheduler ~rng:(Ba_prng.Rng.create (Int64.of_int s)))
        ~inputs:(Array.init 11 (fun i -> i mod 2))
        ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d completed" s) true o.completed;
    Alcotest.(check bool) (Printf.sprintf "seed %d agreement" s) true
      (Ba_sim.Run.agreement_holds o)
  done

let test_ben_or_agreement_byzantine () =
  for s = 1 to 15 do
    let o =
      ben_or_run
        ~adversary:(Async_adv.ben_or_splitter ~rng:(Ba_prng.Rng.create (Int64.of_int (s * 13))))
        ~inputs:(Array.init 11 (fun i -> i mod 2))
        ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d clean" s) true
      (o.completed && Ba_sim.Run.agreement_holds o);
    Alcotest.(check bool) "budget respected" true (o.corruptions_used <= 2)
  done

let test_ben_or_validity_under_attack () =
  List.iter
    (fun b ->
      for s = 1 to 6 do
        let o =
          ben_or_run
            ~adversary:(Async_adv.ben_or_splitter ~rng:(Ba_prng.Rng.create (Int64.of_int s)))
            ~inputs:(Array.make 11 b) ~seed:(Int64.of_int s) ()
        in
        Alcotest.(check bool) "clean" true (o.completed && Ba_sim.Run.validity_holds o)
      done)
    [ 0; 1 ]

let test_ben_or_delayer_liveness () =
  let o =
    ben_or_run ~adversary:(Async_adv.delayer ~victims:[ 0; 1; 2 ])
      ~inputs:(Array.init 11 (fun i -> i mod 2)) ~seed:9L ()
  in
  Alcotest.(check bool) "terminates despite starvation" true o.completed

let test_ben_or_flooder () =
  let forge ~rng ~step:_ ~dst:_ =
    if Ba_prng.Rng.bool rng then Ben_or_async.mk_r ~round:1 ~v:(Ba_prng.Rng.int rng 2)
    else Ben_or_async.mk_d ~v:(Ba_prng.Rng.int rng 2)
  in
  for s = 1 to 8 do
    let o =
      ben_or_run
        ~adversary:(Async_adv.byz_flooder ~rng:(Ba_prng.Rng.create (Int64.of_int s)) ~forge)
        ~inputs:(Array.init 11 (fun i -> i mod 2))
        ~seed:(Int64.of_int s) ()
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d clean" s) true
      (o.completed && Ba_sim.Run.agreement_holds o)
  done

let test_ben_or_balancer_scheduling_attack () =
  (* Pure scheduling (zero corruptions): the balancer starves supermajorities
     by delivering minority votes first; it must cost more deliveries than
     FIFO while never breaking agreement. *)
  let n = 16 and t = 3 in
  let inputs = Array.init n (fun i -> i mod 2) in
  let total adversary_of =
    let acc = ref 0 in
    for s = 1 to 10 do
      let o =
        Async_engine.run ~protocol:(Ben_or_async.make ~n ~t) ~adversary:(adversary_of s) ~n ~t
          ~inputs ~seed:(Int64.of_int s) ()
      in
      Alcotest.(check bool) "clean" true (o.completed && Ba_sim.Run.agreement_holds o);
      Alcotest.(check int) "zero corruptions" 0 o.corruptions_used;
      acc := !acc + (Ba_sim.Metrics.messages o.metrics)
    done;
    !acc
  in
  let fifo = total (fun _ -> Async_engine.fifo) in
  let balancer =
    total (fun s -> Async_adv.ben_or_balancer ~rng:(Ba_prng.Rng.create (Int64.of_int s)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "balancer %d > fifo %d deliveries" balancer fifo)
    true (balancer > fifo)

let test_ben_or_resilience_guard () =
  Alcotest.check_raises "n = 5t rejected"
    (Invalid_argument "Ben_or_async.make: the classic protocol needs n > 5t") (fun () ->
      ignore (Ben_or_async.make ~n:10 ~t:2))

let prop_ben_or_random_inputs_safe =
  QCheck.Test.make ~name:"ben-or agreement on random inputs and schedules" ~count:20
    QCheck.(pair int64 (int_range 0 2047))
    (fun (seed, bits) ->
      let n = 11 and t = 2 in
      let inputs = Array.init n (fun i -> (bits lsr i) land 1) in
      let o =
        Async_engine.run ~protocol:(Ben_or_async.make ~n ~t)
          ~adversary:(Async_adv.random_scheduler ~rng:(Ba_prng.Rng.create seed))
          ~n ~t ~inputs ~seed ()
      in
      o.completed && Ba_sim.Run.agreement_holds o && Ba_sim.Run.validity_holds o)

let () =
  Alcotest.run "ba_async"
    [ ("engine",
       [ Alcotest.test_case "echo delivery" `Quick test_echo_delivers_everything;
         Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
         Alcotest.test_case "bounded delay" `Quick test_bounded_delay_forces_delivery;
         Alcotest.test_case "corruption retracts" `Quick test_corruption_retracts_messages;
         Alcotest.test_case "injection needs corruption" `Quick test_injection_requires_corruption;
         Alcotest.test_case "validation" `Quick test_validation ]);
      ("ben-or",
       [ Alcotest.test_case "validity" `Quick test_ben_or_validity;
         Alcotest.test_case "agreement, random scheduler" `Quick
           test_ben_or_agreement_random_scheduler;
         Alcotest.test_case "agreement, byzantine" `Quick test_ben_or_agreement_byzantine;
         Alcotest.test_case "validity under attack" `Quick test_ben_or_validity_under_attack;
         Alcotest.test_case "delayer liveness" `Quick test_ben_or_delayer_liveness;
         Alcotest.test_case "flooder" `Quick test_ben_or_flooder;
         Alcotest.test_case "balancer scheduling attack" `Slow
           test_ben_or_balancer_scheduling_attack;
         Alcotest.test_case "resilience guard" `Quick test_ben_or_resilience_guard ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_ben_or_random_inputs_safe ]) ]
