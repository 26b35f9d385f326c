(* The benchmark's workloads: what one trial of each runs, built once per
   process (the set-up) and then called once per trial.

   Every workload runs the library three ways, and the three must give
   identical outcomes on the same trial seed:
   - [plain]: the protocol and adversary records as the library builds
     them, through [Engine.run] / [Async_engine.run];
   - [traced]: the same records wrapped by [Layers];
   - [repeat]: the same configuration through the public [Setups]
     runner. *)

open Ba_sim
module Setups = Ba_experiments.Setups

type kind = Alg3_killer | Alg3_benign | Ks_sparse | Benor_async

type t = {
  name : string;
  kind : kind;
  n : int;
  t : int;
  params : string;  (** the configuration, for the printed header *)
  micro : string;  (** the [BENCH_micro.json] micro sharing this hot path *)
}

let all =
  [ { name = "alg3-killer"; kind = Alg3_killer; n = 128; t = 42;
      params = "Las Vegas Algorithm 3, alpha=2, split inputs, committee-killer IR point";
      micro = "engine/alg3-n64-killer" };
    { name = "alg3-benign"; kind = Alg3_benign; n = 2048; t = 682;
      params = "Las Vegas Algorithm 3, alpha=2, split inputs, silent adversary";
      micro = "engine/round-n256" };
    { name = "ks-sparse"; kind = Ks_sparse; n = 4096; t = 0;
      params = "Ks_sample, degree ceil(sqrt n), split inputs, silent adversary";
      micro = "plane/sparse-round-n1M" };
    { name = "benor-async"; kind = Benor_async; n = 16; t = 3;
      params = "Ben-Or, unanimous inputs, schedulers fifo/random/splitter by trial index";
      micro = "engine/async-step*" } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Toy sizes on the same code paths, for the smoke test. *)
let smoke w =
  match w.kind with
  | Alg3_killer -> { w with n = 16; t = 5 }
  | Alg3_benign -> { w with n = 64; t = 21 }
  | Ks_sparse -> { w with n = 64 }
  | Benor_async -> { w with n = 6; t = 1 }

(* Trial [i]'s engine seed, a pure function of the workload seed. *)
let trial_seed ~seed i =
  Ba_prng.Splitmix64.mix (Int64.add (Ba_prng.Splitmix64.mix seed) (Int64.of_int i))

(* Ben-Or trials cycle through three schedulers, one per async engine
   path: the batched mailbox drain, the uniform slab walk and the general
   view loop. *)
type sched = Fifo | Uniform | Opaque

let schedulers = [| Fifo; Uniform; Opaque |]

let sched_name = function Fifo -> "fifo" | Uniform -> "uniform" | Opaque -> "opaque"

let sched_of_trial w i = match w.kind with Benor_async -> Some schedulers.(i mod 3) | _ -> None

type built = {
  plain : index:int -> int64 -> Run.outcome;
  traced : index:int -> int64 -> Run.outcome;  (** accumulates into [acc] *)
  repeat : index:int -> int64 -> Run.outcome;
  acc : Layers.acc;
  replay_topology : seed:int64 -> rounds:int -> int;
      (** calls [Topology.recipients] for every (round, src) of a trial and
          returns the call count; 0 on the dense plane *)
}

let build w =
  let n = w.n and t = w.t in
  let inputs = Setups.inputs Setups.Split ~n ~t in
  let acc = Layers.create () in
  let no_topology ~seed:_ ~rounds:_ = 0 in
  match w.kind with
  | Alg3_killer | Alg3_benign ->
      let inst = Ba_core.Las_vegas.make ~alpha:2.0 ~n ~t () in
      let designated ~phase v =
        Ba_core.Committee.is_member inst.committees
          (Ba_core.Committee.for_phase inst.committees ~phase)
          v
      in
      let killer = w.kind = Alg3_killer in
      let adversary () =
        if killer then
          Ba_adversary.Strategy.to_skeleton ~name:"committee-killer"
            Ba_adversary.Strategy.committee_killer_point ~config:inst.config ~designated
        else Ba_adversary.Generic.silent
      in
      let setup =
        Setups.make ~protocol:(Setups.Las_vegas { alpha = 2.0 })
          ~adversary:(if killer then Setups.Committee_killer else Setups.Silent)
          ~n ~t
      in
      let max_rounds = setup.default_max_rounds in
      let traced_protocol = Layers.protocol acc inst.protocol in
      let exec protocol adversary seed =
        Engine.to_run
          (Engine.run ~max_rounds ~record:false ~protocol ~adversary ~n ~t ~inputs ~seed ())
      in
      { plain = (fun ~index:_ seed -> exec inst.protocol (adversary ()) seed);
        traced =
          (fun ~index:_ seed -> exec traced_protocol (Layers.adversary acc (adversary ())) seed);
        repeat = (fun ~index:_ seed -> Engine.to_run (setup.exec ~record:false ~inputs ~seed ()));
        acc;
        replay_topology = no_topology }
  | Ks_sparse ->
      let degree = Ba_sparse.Ks_agreement.default_degree ~n in
      let inst = Ba_sparse.Ks_agreement.make ~degree ~n ~t () in
      let topology = Topology.Sampled { degree } in
      let setup =
        Setups.make ~protocol:(Setups.Ks_sample { degree = 0 }) ~adversary:Setups.Silent ~n ~t
      in
      let max_rounds = setup.default_max_rounds in
      let traced_protocol = Layers.protocol acc inst.protocol in
      let exec protocol adversary seed =
        Engine.to_run
          (Engine.run ~max_rounds ~record:false ~topology ~protocol ~adversary ~n ~t ~inputs
             ~seed ())
      in
      { plain = (fun ~index:_ seed -> exec inst.protocol Ba_adversary.Generic.silent seed);
        traced =
          (fun ~index:_ seed ->
            exec traced_protocol (Layers.adversary acc Ba_adversary.Generic.silent) seed);
        repeat = (fun ~index:_ seed -> Engine.to_run (setup.exec ~record:false ~inputs ~seed ()));
        acc;
        replay_topology =
          (fun ~seed ~rounds ->
            let ti = Topology.instantiate topology ~n ~seed in
            for round = 1 to rounds do
              for src = 0 to n - 1 do
                ignore (Topology.recipients ti ~round ~src : int array)
              done
            done;
            rounds * n) }
  | Benor_async ->
      (* Unanimous inputs: from split inputs Ben-Or runs a geometric number
         of rounds whose per-message cost grows with the round, so trial
         time is so heavy-tailed that the tail and peak heap of a run
         depend more on its seed than on the code. *)
      let inputs = Setups.inputs (Setups.Unanimous 1) ~n ~t in
      let module A = Ba_async.Async_engine in
      let protocol = Ba_async.Ben_or_async.make ~n ~t in
      let traced_protocol = Layers.async_protocol acc protocol in
      (* The scheduler stream [Setups.make_async] derives from the seed. *)
      let adversary sched seed : (_, _) A.adversary =
        let rng = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix seed) in
        match sched with
        | Fifo -> A.fifo
        | Uniform -> Ba_async.Async_adv.random_scheduler ~rng
        | Opaque -> Ba_async.Async_adv.ben_or_splitter ~rng
      in
      let setups =
        Array.map
          (fun sched ->
            let scheduler =
              match sched with
              | Fifo -> Setups.Fifo_sched
              | Uniform -> Setups.Random_sched
              | Opaque -> Setups.Splitter_sched
            in
            Setups.make_async ~protocol:Setups.Async_ben_or ~scheduler ~n ~t ())
          schedulers
      in
      let sched index = schedulers.(index mod 3) in
      let exec protocol adversary seed =
        A.to_run (A.run ~protocol ~adversary ~n ~t ~inputs ~seed ())
      in
      { plain = (fun ~index seed -> exec protocol (adversary (sched index) seed) seed);
        traced =
          (fun ~index seed ->
            exec traced_protocol (Layers.async_adversary acc (adversary (sched index) seed)) seed);
        repeat = (fun ~index seed -> setups.(index mod 3).arun_exec ~inputs ~seed ());
        acc;
        replay_topology = no_topology }

(* One trial's outcome, reduced to what the engine decided: the span, every
   output, the final corruption set and the message and bit counts. *)
let digest (o : Run.outcome) =
  let b = Buffer.create (64 + (2 * Array.length o.outputs)) in
  Buffer.add_string b (Printf.sprintf "%s %d|" (Run.span_label o.span) (Run.span_units o.span));
  Array.iter
    (function None -> Buffer.add_char b '-' | Some v -> Buffer.add_string b (string_of_int v))
    o.outputs;
  Buffer.add_char b '|';
  Array.iter (fun c -> Buffer.add_char b (if c then 'x' else '.')) o.corrupted;
  let m = o.metrics in
  Buffer.add_string b
    (Printf.sprintf "|%d %d %d %d %d %d" (Metrics.messages m) (Metrics.honest_messages m)
       (Metrics.byzantine_messages m) (Metrics.bits m) (Metrics.words m) o.corruptions_used);
  Digest.string (Buffer.contents b)
