(* Quickstart: run the paper's Algorithm 3 once, against the strongest
   adaptive adversary, and inspect the outcome.

     dune exec examples/quickstart.exe *)

let () =
  let n = 64 in
  (* Optimal resilience: any t < n/3. *)
  let t = Ba_core.Params.max_tolerated n in

  (* 1. Build the protocol instance. The committee partition and phase count
        come from the paper's formula c = min{a*ceil(t^2/n)*log n, 3at/log n}. *)
  let inst = Ba_core.Agreement.make ~n ~t () in
  Printf.printf "Algorithm 3 at n=%d, t=%d: %d committees of size %d, %d phases\n" n t
    (Ba_core.Committee.count inst.committees)
    (Ba_core.Committee.size inst.committees)
    inst.config.Ba_core.Skeleton.cfg_phases;

  (* 2. Pick an adversary. The committee-killer is the strongest known
        adaptive rushing attack: it corrupts the phase's coin flippers after
        seeing their flips. *)
  let adversary =
    Ba_adversary.Skeleton_adv.committee_killer ~config:inst.config
      ~designated:(fun ~phase v -> Ba_core.Agreement.is_flipper inst ~phase v)
  in

  (* 3. Inputs: worst case is an even split. *)
  let inputs = Array.init n (fun i -> i mod 2) in

  (* 4. Run the synchronous engine. Everything is deterministic in the seed. *)
  let outcome =
    Ba_sim.Engine.run ~record:true ~protocol:inst.protocol ~adversary ~n ~t ~inputs ~seed:42L
      ()
  in

  (* 5. Inspect. *)
  Format.printf "%a@." Ba_trace.Export.pp_outcome outcome;
  Format.printf "metrics: %a@." Ba_sim.Metrics.pp outcome.metrics;
  (match Ba_sim.Run.honest_outputs outcome with
  | (_, b) :: _ -> Printf.printf "all honest nodes decided on %d\n" b
  | [] -> print_endline "no honest outputs?!");

  (* 6. The invariant checkers encode the paper's lemmas; run them on any
        outcome you produce. *)
  match Ba_trace.Checker.standard ~rounds_per_phase:2 outcome with
  | [] -> print_endline "invariants: agreement, validity, Lemma 3, Lemma 4 all hold"
  | vs -> List.iter (fun v -> Format.printf "VIOLATION %a@." Ba_trace.Checker.pp_violation v) vs
