type protocol_kind =
  | Alg3 of { alpha : float; coin_round : [ `Piggyback | `Extra ] }
  | Las_vegas of { alpha : float }
  | Chor_coan
  | Chor_coan_lv
  | Rabin
  | Local_coin
  | Phase_king
  | Eig
  | Ks_broadcast
  | Ks_sample of { degree : int }
  | Word_budget of { degree : int }

type adversary_kind =
  | Silent
  | Static_crash
  | Staggered_crash of int
  | Committee_killer
  | Crash_committee_killer
  | Equivocator
  | Lone_finisher of int
  | Random_noise of float
  | Ir of Ba_adversary.Strategy.genome

type input_pattern = Unanimous of int | Split | Near_threshold

let protocol_name = function
  | Alg3 { coin_round = `Piggyback; _ } -> "alg3"
  | Alg3 { coin_round = `Extra; _ } -> "alg3-extra-round"
  | Las_vegas _ -> "las-vegas"
  | Chor_coan -> "chor-coan"
  | Chor_coan_lv -> "chor-coan-lv"
  | Rabin -> "rabin"
  | Local_coin -> "local-coin"
  | Phase_king -> "phase-king"
  | Eig -> "eig"
  | Ks_broadcast -> "ks-broadcast"
  | Ks_sample _ -> "ks-sample"
  | Word_budget _ -> "word-budget"

let adversary_name = function
  | Silent -> "silent"
  | Static_crash -> "static-crash"
  | Staggered_crash k -> Printf.sprintf "staggered-crash-%d" k
  | Committee_killer -> "committee-killer"
  | Crash_committee_killer -> "crash-committee-killer"
  | Equivocator -> "equivocator"
  | Lone_finisher v -> Printf.sprintf "lone-finisher-%d" v
  | Random_noise _ -> "random-noise"
  | Ir g -> Ba_adversary.Strategy.name g

let inputs pattern ~n ~t =
  match pattern with
  | Unanimous b ->
      if b <> 0 && b <> 1 then invalid_arg "Setups.inputs: unanimous value must be 0/1";
      Array.make n b
  | Split -> Array.init n (fun i -> i mod 2)
  | Near_threshold ->
      (* Majority-for-1 of size n - 2t + (t+1)/2: above the t+1 floor, below
         the n-t ceiling, so round-1 decisions are adversary-controlled. *)
      let ones = min (n - t - 1) (n - (2 * t) + ((t + 1) / 2)) in
      Array.init n (fun i -> if i < ones then 1 else 0)

let all_protocol_names =
  [ "alg3"; "alg3-extra-round"; "las-vegas"; "chor-coan"; "chor-coan-lv"; "rabin";
    "local-coin"; "phase-king"; "eig"; "ks-broadcast"; "ks-sample"; "word-budget" ]

let all_adversary_names =
  [ "silent"; "static-crash"; "staggered-crash"; "committee-killer"; "crash-committee-killer";
    "equivocator"; "lone-finisher"; "random-noise" ]

let parse_protocol s =
  match s with
  | "alg3" -> Ok (Alg3 { alpha = 2.0; coin_round = `Piggyback })
  | "alg3-extra-round" -> Ok (Alg3 { alpha = 2.0; coin_round = `Extra })
  | "las-vegas" -> Ok (Las_vegas { alpha = 2.0 })
  | "chor-coan" -> Ok Chor_coan
  | "chor-coan-lv" -> Ok Chor_coan_lv
  | "rabin" -> Ok Rabin
  | "local-coin" -> Ok Local_coin
  | "phase-king" -> Ok Phase_king
  | "eig" -> Ok Eig
  | "ks-broadcast" -> Ok Ks_broadcast
  | "ks-sample" -> Ok (Ks_sample { degree = 0 })
  | "word-budget" -> Ok (Word_budget { degree = 0 })
  | _ -> Error (Printf.sprintf "unknown protocol %S; expected one of: %s" s
                  (String.concat ", " all_protocol_names))

let parse_adversary s =
  match s with
  | "silent" -> Ok Silent
  | "static-crash" -> Ok Static_crash
  | "staggered-crash" -> Ok (Staggered_crash 1)
  | "committee-killer" -> Ok Committee_killer
  | "crash-committee-killer" -> Ok Crash_committee_killer
  | "equivocator" -> Ok Equivocator
  | "lone-finisher" -> Ok (Lone_finisher 0)
  | "random-noise" -> Ok (Random_noise 0.3)
  | _ -> Error (Printf.sprintf "unknown adversary %S; expected one of: %s" s
                  (String.concat ", " all_adversary_names))

type fault_spec = {
  fs_drop : float;
  fs_duplicate : float;
  fs_corrupt : float;
  fs_silences : Ba_sim.Faults.silence list;
}

let no_faults = { fs_drop = 0.0; fs_duplicate = 0.0; fs_corrupt = 0.0; fs_silences = [] }

(* Benign payload corruption for skeleton messages: flip the vote, the
   decided flag, or a piggybacked coin flip — the message-level "bit flips"
   that actually influence the phase machine's thresholds. *)
let mutate_skeleton rng (m : Ba_core.Skeleton.msg) =
  match Ba_prng.Rng.int rng 3 with
  | 0 -> { m with m_val = 1 - m.m_val }
  | 1 -> { m with m_decided = not m.m_decided }
  | _ -> (
      match m.m_flip with
      | Some f -> { m with m_flip = Some (-f) }
      | None -> { m with m_val = 1 - m.m_val })

let skeleton_fault_plan = function
  | None -> None
  | Some s ->
      Some
        (Ba_sim.Faults.make ~drop:s.fs_drop ~duplicate:s.fs_duplicate ~corrupt:s.fs_corrupt
           ?mutate:(if s.fs_corrupt > 0.0 then Some mutate_skeleton else None)
           ~silences:s.fs_silences ())

let generic_fault_plan = function
  | None -> None
  | Some s ->
      if s.fs_corrupt > 0.0 then
        invalid_arg "Setups.make: corrupt faults need a skeleton-message protocol";
      Some
        (Ba_sim.Faults.make ~drop:s.fs_drop ~duplicate:s.fs_duplicate ~silences:s.fs_silences ())

type run = {
  run_protocol : string;
  run_adversary : string;
  rounds_per_phase : int option;
  default_max_rounds : int;
  exec :
    ?max_rounds:int ->
    ?congest_limit_bits:int ->
    ?domains:int ->
    record:bool ->
    inputs:int array ->
    seed:int64 ->
    unit ->
    Ba_sim.Run.outcome;
}

let sharder_of ~domains =
  if domains < 1 then invalid_arg "Setups: domains must be >= 1"
  else if domains = 1 then Ba_sim.Engine.sequential
  else Ba_harness.Parallel.delivery_sharder ~domains

(* Adversary corruption cap: E18/E19 split the fault budget t between the
   Byzantine adversary and the injected benign faults. *)
let cap_adversary cap adv =
  match cap with None -> adv | Some limit -> Ba_adversary.Generic.capped ~limit adv

let adversary_rng seed = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.lognot seed))

(* Generic (message-agnostic) adversaries, or None if the kind needs
   skeleton messages. *)
let generic_adversary kind ~seed : ('s, 'm) Ba_sim.Adversary.t option =
  match kind with
  | Silent -> Some Ba_adversary.Generic.silent
  | Static_crash -> Some (Ba_adversary.Generic.static_crash ~rng:(adversary_rng seed))
  | Staggered_crash k ->
      Some (Ba_adversary.Generic.staggered_crash ~rng:(adversary_rng seed) ~per_round:k)
  | Ir g -> (
      (* Only crash genomes are message-agnostic; everything else forges
         skeleton messages and must go through [skeleton_adversary]. *)
      match g.Ba_adversary.Strategy.g_tactic with
      | Ba_adversary.Strategy.Crash ->
          Some (Ba_adversary.Strategy.to_generic ~rng:(adversary_rng seed) g)
      | _ -> None)
  | Committee_killer | Crash_committee_killer | Equivocator | Lone_finisher _ | Random_noise _ ->
      None

let skeleton_adversary kind ~config ~designated ~seed :
    (Ba_core.Skeleton.state, Ba_core.Skeleton.msg) Ba_sim.Adversary.t =
  match generic_adversary kind ~seed with
  | Some adv -> adv
  | None -> (
      match kind with
      | Committee_killer -> Ba_adversary.Skeleton_adv.committee_killer ~config ~designated
      | Crash_committee_killer ->
          Ba_adversary.Skeleton_adv.crash_committee_killer ~config ~designated
      | Equivocator -> Ba_adversary.Skeleton_adv.equivocator ~rng:(adversary_rng seed) ~config
      | Lone_finisher target ->
          Ba_adversary.Skeleton_adv.lone_finisher ~rng:(adversary_rng seed) ~config ~target
      | Random_noise p ->
          Ba_adversary.Skeleton_adv.random_noise ~rng:(adversary_rng seed) ~config
            ~corrupt_prob:p
      | Ir g -> Ba_adversary.Strategy.to_skeleton ~rng:(adversary_rng seed) g ~config ~designated
      | Silent | Static_crash | Staggered_crash _ -> assert false)

let skeleton_run ~faults ~cap ~protocol ~config ~designated ~adversary ~n ~t ~round_bound =
  let rpp = Ba_core.Skeleton.rounds_per_phase config in
  let faults = skeleton_fault_plan faults in
  { run_protocol = protocol.Ba_sim.Protocol.name;
    run_adversary = adversary_name adversary;
    rounds_per_phase = Some rpp;
    default_max_rounds = round_bound;
    exec =
      (fun ?max_rounds ?congest_limit_bits ?(domains = 1) ~record ~inputs ~seed () ->
        let max_rounds = Option.value max_rounds ~default:round_bound in
        let adv = cap_adversary cap (skeleton_adversary adversary ~config ~designated ~seed) in
        Ba_sim.Engine.run ~max_rounds ?congest_limit_bits ?faults
          ~sharder:(sharder_of ~domains) ~record ~protocol ~adversary:adv ~n ~t ~inputs ~seed ()) }

let generic_run ?(topology = Ba_sim.Topology.Dense) ~faults ~cap ~protocol ~adversary ~n ~t
    ~round_bound ~rounds_per_phase () =
  match generic_adversary adversary ~seed:0L with
  | None ->
      invalid_arg
        (Printf.sprintf "Setups.make: adversary %s needs a skeleton-message protocol"
           (adversary_name adversary))
  | Some _ ->
      let faults = generic_fault_plan faults in
      { run_protocol = protocol.Ba_sim.Protocol.name;
        run_adversary = adversary_name adversary;
        rounds_per_phase;
        default_max_rounds = round_bound;
        exec =
          (fun ?max_rounds ?congest_limit_bits ?(domains = 1) ~record ~inputs ~seed () ->
            let max_rounds = Option.value max_rounds ~default:round_bound in
            let adv = cap_adversary cap (Option.get (generic_adversary adversary ~seed)) in
            Ba_sim.Engine.run ~max_rounds ?congest_limit_bits ?faults
              ~sharder:(sharder_of ~domains) ~topology ~record ~protocol ~adversary:adv ~n ~t
              ~inputs ~seed ()) }

let make_impl ~faults ~cap ~protocol ~adversary ~n ~t =
  match protocol with
  | Alg3 { alpha; coin_round } ->
      let inst = Ba_core.Agreement.make ~alpha ~coin_round ~n ~t () in
      skeleton_run ~faults ~cap ~protocol:inst.protocol ~config:inst.config
        ~designated:(fun ~phase v -> Ba_core.Agreement.is_flipper inst ~phase v)
        ~adversary ~n ~t
        ~round_bound:(Ba_core.Agreement.round_bound inst)
  | Las_vegas { alpha } ->
      let inst = Ba_core.Las_vegas.make ~alpha ~n ~t () in
      let designated ~phase v =
        Ba_core.Committee.is_member inst.committees
          (Ba_core.Committee.for_phase inst.committees ~phase)
          v
      in
      (* Las Vegas has no phase cap: give it a generous adversarial bound. *)
      let round_bound =
        64 + (8 * int_of_float (ceil (Ba_core.Las_vegas.expected_round_bound inst)))
      in
      skeleton_run ~faults ~cap ~protocol:inst.protocol ~config:inst.config ~designated ~adversary
        ~n ~t ~round_bound
  | Chor_coan | Chor_coan_lv ->
      let cycle = protocol = Chor_coan_lv in
      let inst = Ba_baselines.Chor_coan.make ~cycle ~n ~t () in
      let round_bound =
        let base = Ba_baselines.Chor_coan.round_bound inst in
        if cycle then 64 + (8 * base) else base
      in
      skeleton_run ~faults ~cap ~protocol:inst.protocol ~config:inst.config
        ~designated:(fun ~phase v -> Ba_baselines.Chor_coan.designated inst ~phase v)
        ~adversary ~n ~t ~round_bound
  | Rabin ->
      (* Dealer seed must differ per run seed but be shared by all nodes:
         a fresh instance is built inside exec. *)
      let probe = Ba_baselines.Rabin.make ~n ~t ~dealer_seed:0L () in
      let rpp = Ba_core.Skeleton.rounds_per_phase probe.config in
      let round_bound = Ba_baselines.Rabin.round_bound probe in
      let fault_plan = skeleton_fault_plan faults in
      { run_protocol = probe.protocol.Ba_sim.Protocol.name;
        run_adversary = adversary_name adversary;
        rounds_per_phase = Some rpp;
        default_max_rounds = round_bound;
        exec =
          (fun ?max_rounds ?congest_limit_bits ?(domains = 1) ~record ~inputs ~seed () ->
            let dealer_seed = Ba_prng.Splitmix64.mix (Int64.add seed 0x5EEDL) in
            let inst = Ba_baselines.Rabin.make ~n ~t ~dealer_seed () in
            let max_rounds = Option.value max_rounds ~default:round_bound in
            let adv =
              cap_adversary cap
                (skeleton_adversary adversary ~config:inst.config
                   ~designated:(fun ~phase:_ _ -> false)
                   ~seed)
            in
            Ba_sim.Engine.run ~max_rounds ?congest_limit_bits ?faults:fault_plan
              ~sharder:(sharder_of ~domains) ~record ~protocol:inst.protocol ~adversary:adv ~n ~t
              ~inputs ~seed ()) }
  | Local_coin ->
      let inst = Ba_baselines.Local_coin.make ~n ~t () in
      skeleton_run ~faults ~cap ~protocol:inst.protocol ~config:inst.config
        ~designated:(fun ~phase:_ _ -> false)
        ~adversary ~n ~t
        ~round_bound:(Ba_sim.Protocol.default_round_cap ~n)
  | Phase_king ->
      let protocol = Ba_baselines.Phase_king.make ~n ~t in
      generic_run ~faults ~cap ~protocol ~adversary ~n ~t
        ~round_bound:(Ba_baselines.Phase_king.rounds ~t + 2)
        ~rounds_per_phase:(Some 2) ()
  | Eig ->
      if n > 10 then invalid_arg "Setups.make: eig is exponential; use n <= 10";
      generic_run ~faults ~cap ~protocol:Ba_baselines.Eig.protocol ~adversary ~n ~t
        ~round_bound:(Ba_baselines.Eig.rounds ~t + 1)
        ~rounds_per_phase:None ()
  | Ks_broadcast ->
      (* Dense control arm: same dynamics as ks-sample with a full-degree
         sample on the dense plane. *)
      let inst = Ba_sparse.Ks_agreement.make ~name:"ks-broadcast" ~degree:(n - 1) ~n ~t () in
      generic_run ~faults ~cap ~protocol:inst.protocol ~adversary ~n ~t
        ~round_bound:inst.round_bound ~rounds_per_phase:None ()
  | Ks_sample { degree } ->
      let degree =
        if degree = 0 then Ba_sparse.Ks_agreement.default_degree ~n else degree
      in
      let inst = Ba_sparse.Ks_agreement.make ~degree ~n ~t () in
      generic_run
        ~topology:(Ba_sim.Topology.Sampled { degree })
        ~faults ~cap ~protocol:inst.protocol ~adversary ~n ~t ~round_bound:inst.round_bound
        ~rounds_per_phase:None ()
  | Word_budget { degree } ->
      let degree =
        if degree = 0 then Ba_sparse.Ks_agreement.default_degree ~n else degree
      in
      let inst = Ba_sparse.Word_budget.make ~degree ~n ~t () in
      generic_run
        ~topology:(Ba_sim.Topology.Sampled { degree })
        ~faults ~cap ~protocol:inst.protocol ~adversary ~n ~t ~round_bound:inst.round_bound
        ~rounds_per_phase:None ()

let make ~protocol ~adversary ~n ~t = make_impl ~faults:None ~cap:None ~protocol ~adversary ~n ~t

let make_faulty ~faults ~protocol ~adversary ~n ~t =
  make_impl ~faults:(Some faults) ~cap:None ~protocol ~adversary ~n ~t

let make_capped ~faults ~limit ~protocol ~adversary ~n ~t =
  if limit < 0 then invalid_arg "Setups.make_capped: limit must be >= 0";
  make_impl ~faults:(Some faults) ~cap:(Some limit) ~protocol ~adversary ~n ~t

(* ------------------------------------------------------------------ *)
(* Asynchronous setups (unified run substrate)                         *)
(* ------------------------------------------------------------------ *)

type async_protocol_kind = Async_ben_or | Async_bracha of { broadcaster : int }

type async_scheduler_kind =
  | Fifo_sched
  | Random_sched
  | Delayer_sched of int list
  | Balancer_sched
  | Splitter_sched

let async_protocol_name = function
  | Async_ben_or -> "ben-or"
  | Async_bracha { broadcaster } -> Printf.sprintf "rbc-b%d" broadcaster

let async_scheduler_name = function
  | Fifo_sched -> "fifo"
  | Random_sched -> "random"
  | Delayer_sched _ -> "delayer"
  | Balancer_sched -> "balancer"
  | Splitter_sched -> "splitter"

let all_async_protocol_names = [ "ben-or"; "rbc" ]

let all_async_scheduler_names = [ "fifo"; "random"; "delayer"; "balancer"; "splitter" ]

let parse_async_protocol s =
  match s with
  | "ben-or" -> Ok Async_ben_or
  | "rbc" -> Ok (Async_bracha { broadcaster = 0 })
  | _ ->
      Error
        (Printf.sprintf "unknown async protocol %S; expected one of: %s" s
           (String.concat ", " all_async_protocol_names))

let parse_async_scheduler s =
  match s with
  | "fifo" -> Ok Fifo_sched
  | "random" -> Ok Random_sched
  | "delayer" -> Ok (Delayer_sched [ 0 ])
  | "balancer" -> Ok Balancer_sched
  | "splitter" -> Ok Splitter_sched
  | _ ->
      Error
        (Printf.sprintf "unknown async scheduler %S; expected one of: %s" s
           (String.concat ", " all_async_scheduler_names))

(* Benign payload corruption for Ben-Or messages, through the classify /
   mk_* introspection surface: flip the vote (R/P/D); a [?] P-vote becomes
   a random definite vote. *)
let mutate_ben_or rng m =
  match Ba_async.Ben_or_async.classify m with
  | `R (round, v) -> Ba_async.Ben_or_async.mk_r ~round ~v:(1 - v)
  | `P (round, v) ->
      let v = if v = 2 then Ba_prng.Rng.int rng 2 else 1 - v in
      Ba_async.Ben_or_async.mk_p ~round ~v
  | `D v -> Ba_async.Ben_or_async.mk_d ~v:(1 - v)

let mutate_bracha _rng (m : Ba_async.Bracha_rbc.msg) =
  match m with
  | Ba_async.Bracha_rbc.Init v -> Ba_async.Bracha_rbc.Init (1 - v)
  | Ba_async.Bracha_rbc.Echo v -> Ba_async.Bracha_rbc.Echo (1 - v)
  | Ba_async.Bracha_rbc.Ready v -> Ba_async.Bracha_rbc.Ready (1 - v)

let async_fault_plan ~mutate = function
  | None -> None
  | Some s ->
      Some
        (Ba_sim.Faults.make ~drop:s.fs_drop ~duplicate:s.fs_duplicate ~corrupt:s.fs_corrupt
           ?mutate:(if s.fs_corrupt > 0.0 then Some mutate else None)
           ~silences:s.fs_silences ())

type async_run = {
  arun_protocol : string;
  arun_scheduler : string;
  arun_exec :
    ?max_steps:int ->
    ?max_delay:int ->
    ?trace:Ba_sim.Run.trace ->
    ?sharder:Ba_sim.Engine.sharder ->
    inputs:int array ->
    seed:int64 ->
    unit ->
    Ba_sim.Run.outcome;
}

(* The scheduler RNG derivation: one stream per exec call, mixed from the
   run seed — the derivation E17 has always used, so its trials replay
   byte-identically through this path. *)
let scheduler_rng seed = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix seed)

let make_async ?faults ~protocol ~scheduler ~n ~t () =
  (match scheduler with
  | Delayer_sched victims ->
      List.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg (Printf.sprintf "Setups.make_async: delayer victim %d outside [0,%d)" v n))
        victims
  | (Balancer_sched | Splitter_sched) when protocol <> Async_ben_or ->
      invalid_arg "Setups.make_async: balancer/splitter schedulers target ben-or"
  | Fifo_sched | Random_sched | Balancer_sched | Splitter_sched -> ());
  let arun_scheduler = async_scheduler_name scheduler in
  match protocol with
  | Async_ben_or ->
      let p = Ba_async.Ben_or_async.make ~n ~t in
      let plan = async_fault_plan ~mutate:mutate_ben_or faults in
      { arun_protocol = async_protocol_name protocol;
        arun_scheduler;
        arun_exec =
          (fun ?max_steps ?max_delay ?trace ?sharder ~inputs ~seed () ->
            let rng = scheduler_rng seed in
            let adversary =
              match scheduler with
              | Fifo_sched -> Ba_async.Async_engine.fifo
              | Random_sched -> Ba_async.Async_adv.random_scheduler ~rng
              | Delayer_sched victims -> Ba_async.Async_adv.delayer ~victims
              | Balancer_sched -> Ba_async.Async_adv.ben_or_balancer ~rng
              | Splitter_sched -> Ba_async.Async_adv.ben_or_splitter ~rng
            in
            Ba_async.Async_engine.run ?max_steps ?max_delay ?faults:plan ?trace ?sharder
              ~protocol:p ~adversary ~n ~t ~inputs ~seed ()) }
  | Async_bracha { broadcaster } ->
      if broadcaster < 0 || broadcaster >= n then
        invalid_arg (Printf.sprintf "Setups.make_async: broadcaster %d outside [0,%d)" broadcaster n);
      let p = Ba_async.Bracha_rbc.make ~broadcaster in
      let plan = async_fault_plan ~mutate:mutate_bracha faults in
      { arun_protocol = async_protocol_name protocol;
        arun_scheduler;
        arun_exec =
          (fun ?max_steps ?max_delay ?trace ?sharder ~inputs ~seed () ->
            let rng = scheduler_rng seed in
            let adversary =
              match scheduler with
              | Fifo_sched -> Ba_async.Async_engine.fifo
              | Random_sched -> Ba_async.Async_adv.random_scheduler ~rng
              | Delayer_sched victims -> Ba_async.Async_adv.delayer ~victims
              | Balancer_sched | Splitter_sched -> assert false (* rejected above *)
            in
            Ba_async.Async_engine.run ?max_steps ?max_delay ?faults:plan ?trace ?sharder
              ~protocol:p ~adversary ~n ~t ~inputs ~seed ()) }
