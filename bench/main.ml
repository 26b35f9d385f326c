(* Benchmark harness.

   Two parts:
   1. the registered experiment suite (E1-E22, Experiments.registry): the
      paper is a theory result, so its claims are regenerated empirically —
      tables and figures on stdout, optionally a schema-versioned JSON
      suite document (see DESIGN.md section 5 / EXPERIMENTS.md);
   2. Bechamel micro-benchmarks of the substrates (PRNG, coin Monte-Carlo,
      engine rounds, phase model), optionally emitted as a schema-versioned
      micro-baseline document for the @perf-smoke regression gate
      (DESIGN.md section 10).

   Usage:
     dune exec bench/main.exe                 # everything, quick profile
     dune exec bench/main.exe -- --full       # full-size experiments
     dune exec bench/main.exe -- --micro-only [--quota-ms N] [--json BENCH_micro.json]
     dune exec bench/main.exe -- --experiments-only [--domains K]
     dune exec bench/main.exe -- --json BENCH_experiments.json *)

let run_experiments ~quick ~seed ~domains ~json_path =
  (* Stream each report as it completes (the full profile takes minutes;
     a single batched run would sit silent until the very end). *)
  let registry = Ba_experiments.Experiments.registry in
  let entries =
    List.map
      (fun (d : Ba_harness.Registry.descriptor) ->
        let t0 = Unix.gettimeofday () in
        let r = d.run ~policy:Ba_harness.Supervisor.default ~domains ~quick ~seed in
        let wall = Unix.gettimeofday () -. t0 in
        Format.printf "%a@." Ba_harness.Report.pp r;
        Format.print_flush ();
        (d, r, Some wall))
      (Ba_harness.Registry.all registry)
  in
  match json_path with
  | None -> ()
  | Some path ->
      let doc =
        Ba_harness.Registry.suite_json ~seed
          ~profile:(if quick then "quick" else "full")
          ~entries ()
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Ba_harness.Json.to_string ~pretty:true doc);
          Out_channel.output_char oc '\n');
      Printf.printf "wrote %s\n%!" path

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let make_micro_tests () =
  let open Bechamel in
  let rng = Ba_prng.Rng.create 7L in
  let prng_bits = Test.make ~name:"rng/bits64" (Staged.stage (fun () -> Ba_prng.Rng.bits64 rng))
  in
  let prng_int =
    Test.make ~name:"rng/int-1000" (Staged.stage (fun () -> Ba_prng.Rng.int rng 1000))
  in
  let coin_sum =
    Test.make ~name:"coin/honest-sum-1024"
      (Staged.stage (fun () -> Ba_core.Common_coin.honest_sum rng ~flippers:1024))
  in
  let coin_trial =
    Test.make ~name:"coin/mc-trial-4096"
      (Staged.stage (fun () ->
           let x = Ba_core.Common_coin.honest_sum rng ~flippers:4096 in
           Ba_core.Common_coin.commons ~flippers:4096 ~sum:x ~budget:32))
  in
  let engine_of adversary name =
    let n = 64 and t = 21 in
    let run =
      Ba_experiments.Setups.make ~protocol:(Ba_experiments.Setups.Las_vegas { alpha = 2.0 })
        ~adversary ~n ~t
    in
    let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t in
    let seed = ref 0L in
    Test.make ~name
      (Staged.stage (fun () ->
           seed := Int64.add !seed 1L;
           let o = run.exec ~record:false ~inputs ~seed:!seed () in
           Ba_sim.Run.span_units o.span))
  in
  let engine_silent = engine_of Ba_experiments.Setups.Silent "engine/alg3-n64-silent" in
  let engine_killer =
    engine_of Ba_experiments.Setups.Committee_killer "engine/alg3-n64-killer"
  in
  (* The perf gate's headline metric: eight benign all-to-all broadcast
     rounds of Algorithm 3 at n=256 — the O(n^2)-deliveries hot path every
     experiment ultimately spins (batched-plane fast path since DESIGN.md
     section 10). *)
  let engine_round =
    let n = 256 and t = 64 in
    let run =
      Ba_experiments.Setups.make ~protocol:(Ba_experiments.Setups.Las_vegas { alpha = 2.0 })
        ~adversary:Ba_experiments.Setups.Silent ~n ~t
    in
    let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t in
    let seed = ref 0L in
    Test.make ~name:"engine/round-n256"
      (Staged.stage (fun () ->
           seed := Int64.add !seed 1L;
           let o = run.exec ~max_rounds:8 ~record:false ~inputs ~seed:!seed () in
           Ba_sim.Run.span_units o.span))
  in
  (* The asynchronous plane's hot path: one capped Ben-Or run through the
     unified substrate — scheduler pop, fault application, per-message
     metering and delivery (DESIGN.md section 11). *)
  let engine_async_step =
    let n = 16 and t = 3 in
    let arun =
      Ba_experiments.Setups.make_async ~protocol:Ba_experiments.Setups.Async_ben_or
        ~scheduler:Ba_experiments.Setups.Random_sched ~n ~t ()
    in
    let inputs = Array.init n (fun i -> i mod 2) in
    let seed = ref 0L in
    Test.make ~name:"engine/async-step"
      (Staged.stage (fun () ->
           seed := Int64.add !seed 1L;
           Ba_sim.Run.span_units
             (arun.Ba_experiments.Setups.arun_exec ~max_steps:2048 ~inputs ~seed:!seed ())
               .Ba_sim.Run.span))
  in
  (* The same workload through the batched mailbox-draining path (fifo is
     order-insensitive, so the engine drains whole per-node mailboxes per
     activation instead of popping one message per step — DESIGN.md
     section 15). The ratio to engine/async-step isolates the actor-runtime
     win over the per-step scheduler loop. *)
  let engine_async_step_batched =
    let n = 16 and t = 3 in
    let arun =
      Ba_experiments.Setups.make_async ~protocol:Ba_experiments.Setups.Async_ben_or
        ~scheduler:Ba_experiments.Setups.Fifo_sched ~n ~t ()
    in
    let inputs = Array.init n (fun i -> i mod 2) in
    let seed = ref 0L in
    Test.make ~name:"engine/async-step-batched"
      (Staged.stage (fun () ->
           seed := Int64.add !seed 1L;
           Ba_sim.Run.span_units
             (arun.Ba_experiments.Setups.arun_exec ~max_steps:2048 ~inputs ~seed:!seed ())
               .Ba_sim.Run.span))
  in
  (* A full uncapped Ben-Or round-trip at n = 64: end-to-end async consensus
     cost (slab churn across the whole in-flight population, completion
     tracking) rather than a capped step sample. *)
  let engine_async_round =
    let n = 64 and t = 12 in
    let arun =
      Ba_experiments.Setups.make_async ~protocol:Ba_experiments.Setups.Async_ben_or
        ~scheduler:Ba_experiments.Setups.Fifo_sched ~n ~t ()
    in
    let inputs = Array.init n (fun i -> i mod 2) in
    let seed = ref 0L in
    Test.make ~name:"engine/async-round-n64"
      (Staged.stage (fun () ->
           seed := Int64.add !seed 1L;
           Ba_sim.Run.span_units
             (arun.Ba_experiments.Setups.arun_exec ~max_steps:8192 ~inputs ~seed:!seed ())
               .Ba_sim.Run.span))
  in
  let model =
    let rng = Ba_prng.Rng.create 11L in
    Test.make ~name:"model/alg3-n2^24-t16384"
      (Staged.stage (fun () ->
           (Ba_experiments.Fast_model.alg3 rng ~n:(1 lsl 24) ~t:16384 ~budget:16384 ())
             .Ba_experiments.Fast_model.rounds))
  in
  (* The sparse plane at experiment-killing scale: one sampled delivery
     round at n = 10^6 with a constant sample degree — the dense plane
     would need 10^12 deliveries here; the topology-restricted path does
     n * degree (DESIGN.md section 13). *)
  let sparse_round =
    let n = 1_000_000 in
    let run =
      Ba_experiments.Setups.make
        ~protocol:(Ba_experiments.Setups.Ks_sample { degree = 4 })
        ~adversary:Ba_experiments.Setups.Silent ~n ~t:0
    in
    let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t:0 in
    let seed = ref 0L in
    Test.make ~name:"plane/sparse-round-n1M"
      (Staged.stage (fun () ->
           seed := Int64.add !seed 1L;
           let o = run.exec ~max_rounds:1 ~record:false ~inputs ~seed:!seed () in
           Ba_sim.Run.span_units o.span))
  in
  (* The sampled plane's two layers at the ks-sparse benchmark's size
     (n = 4096, degree 64): one sender's recipient draw into a reused buffer
     — a fresh (round, sender) stream per call — and one whole sampled
     round, CSR inbox build and recv included (DESIGN.md section 13). *)
  let topology_draw =
    let n = 4096 in
    let ti = Ba_sim.Topology.instantiate (Ba_sim.Topology.Sampled { degree = 64 }) ~n ~seed:7L in
    let buf = Array.make (Ba_sim.Topology.degree_bound ti) 0 in
    let calls = ref 0 in
    Test.make ~name:"topology/recipients-d64"
      (Staged.stage (fun () ->
           incr calls;
           Ba_sim.Topology.recipients_into ti ~round:(1 + (!calls / n)) ~src:(!calls mod n) buf
             ~pos:0))
  in
  let csr_round =
    let n = 4096 in
    let run =
      Ba_experiments.Setups.make
        ~protocol:(Ba_experiments.Setups.Ks_sample { degree = 64 })
        ~adversary:Ba_experiments.Setups.Silent ~n ~t:0
    in
    let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t:0 in
    let seed = ref 0L in
    Test.make ~name:"plane/csr-round-n4096"
      (Staged.stage (fun () ->
           seed := Int64.add !seed 1L;
           let o = run.exec ~max_rounds:1 ~record:false ~inputs ~seed:!seed () in
           Ba_sim.Run.span_units o.span))
  in
  [ prng_bits; prng_int; coin_sum; coin_trial; engine_silent; engine_killer; engine_round;
    engine_async_step; engine_async_step_batched; engine_async_round; model; sparse_round;
    topology_draw; csr_round ]

(* Returns the measured (name, ns/call) pairs, sorted by name. *)
let run_micro ~quota_ms =
  let open Bechamel in
  let open Toolkit in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (float_of_int quota_ms /. 1000.)) ~stabilize:true
      ()
  in
  print_endline "== micro-benchmarks (ns per call, OLS on monotonic clock) ==";
  let measured = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      let rows = ref [] in
      Hashtbl.iter (* lint: allow D004 -- collected then sorted by name below *)
        (fun name ols_result -> rows := (name, ols_result) :: !rows)
        analysis;
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "  %-28s %12.1f ns/call\n%!" name est;
              measured := (name, est) :: !measured
          | Some ests ->
              Printf.printf "  %-28s %s\n%!" name
                (String.concat ", " (List.map (Printf.sprintf "%.1f") ests))
          | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        (List.sort (fun (a, _) (b, _) -> compare a b) !rows))
    (make_micro_tests ());
  List.sort compare !measured

(* Per-metric tolerance overrides for the committed baseline: the
   wall-clock-scale runs (capped async executions, a 10^6-node sampled
   round) are allocation- and scheduler-noisy in a way the ns-scale micros
   are not, so they get looser gates than the global default. The slab
   engine cut engine/async-step's per-run allocation enough to tighten its
   gate from 6.0 toward the 3.0 default; the batched variants inherit the
   same bound. *)
let micro_tolerances =
  [ ("engine/async-step", 4.0); ("engine/async-step-batched", 4.0);
    ("engine/async-round-n64", 4.0); ("plane/sparse-round-n1M", 8.0) ]

let write_micro_json ~path measured =
  let metrics =
    List.filter_map
      (fun (name, ns) -> if Float.is_finite ns && ns > 0.0 then Some (name, ns) else None)
      measured
  in
  let tolerances =
    List.filter (fun (name, _) -> List.mem_assoc name metrics) micro_tolerances
  in
  let doc = Ba_harness.Micro.make ~calibration:"rng/bits64" ~tolerances metrics in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Ba_harness.Json.to_string ~pretty:true (Ba_harness.Micro.to_json doc));
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let quick = not (has "--full") in
  let find_value flag fallback parse =
    let rec find = function
      | f :: v :: _ when f = flag -> parse v
      | _ :: rest -> find rest
      | [] -> fallback
    in
    find args
  in
  let seed = find_value "--seed" 2026L Int64.of_string in
  let json_path = find_value "--json" None (fun v -> Some v) in
  let quota_ms = find_value "--quota-ms" 500 int_of_string in
  let domains = find_value "--domains" 1 int_of_string in
  if quota_ms <= 0 then begin
    prerr_endline "bench: --quota-ms must be > 0";
    exit 2
  end;
  if domains <= 0 then begin
    prerr_endline "bench: --domains must be > 0";
    exit 2
  end;
  if has "--micro-only" then begin
    let measured = run_micro ~quota_ms in
    match json_path with None -> () | Some path -> write_micro_json ~path measured
  end
  else begin
    if not (has "--experiments-only") then ignore (run_micro ~quota_ms : (string * float) list);
    Printf.printf "\n== experiment suite (%s profile, seed %Ld) ==\n%!"
      (if quick then "quick" else "full") seed;
    run_experiments ~quick ~seed ~domains ~json_path
  end
