let default_domains () = min 8 (Domain.recommended_domain_count ())

let delivery_sharder ~domains =
  if domains < 1 then invalid_arg "Parallel.delivery_sharder: domains < 1";
  { Ba_sim.Engine.s_shards = domains;
    s_run =
      (fun thunks ->
        match Array.length thunks with
        | 0 -> ()
        | 1 -> thunks.(0) ()
        | k ->
            let handles = Array.init (k - 1) (fun i -> Domain.spawn thunks.(i + 1)) in
            let joined = ref false in
            (* First shard on the calling domain; every spawned domain is
               joined even if it (or a spawned thunk) raises. *)
            Fun.protect
              ~finally:(fun () ->
                if not !joined then
                  (* lint: allow D008 -- teardown join must not mask the primary raise *)
                  Array.iter (fun h -> try Domain.join h with _ -> ()) handles)
              (fun () ->
                thunks.(0) ();
                Array.iter Domain.join handles;
                joined := true)) }

type partial = {
  p_rounds : Ba_stats.Summary.t;
  p_phases : Ba_stats.Summary.t;
  p_messages : Ba_stats.Summary.t;
  p_bits : Ba_stats.Summary.t;
  p_corruptions : Ba_stats.Summary.t;
  mutable p_agreement_failures : int;
  mutable p_validity_failures : int;
  mutable p_incomplete : int;
  mutable p_violations : (int * Ba_trace.Checker.violation list) list;
      (* (trial, violations), lowest trial last *)
  mutable p_failures : Supervisor.failure list;  (* lowest trial last *)
}

let empty_partial () =
  { p_rounds = Ba_stats.Summary.create ();
    p_phases = Ba_stats.Summary.create ();
    p_messages = Ba_stats.Summary.create ();
    p_bits = Ba_stats.Summary.create ();
    p_corruptions = Ba_stats.Summary.create ();
    p_agreement_failures = 0;
    p_validity_failures = 0;
    p_incomplete = 0;
    p_violations = [];
    p_failures = [] }

let run_chunk ~rounds_per_phase ~check ~policy ~seed ~run ~lo ~hi =
  let acc = empty_partial () in
  for trial = lo to hi - 1 do
    match Supervisor.run_trial ~policy ~seed ~trial ~run with
    | Error f ->
        (* Even without [keep_going] the chunk finishes: the merge step on
           the main domain raises after every domain is joined, so a
           poisoned trial never leaks domains. *)
        acc.p_failures <- f :: acc.p_failures
    | Ok ro ->
        Ba_stats.Summary.add_int acc.p_rounds (Ba_sim.Run.span_units ro.span);
        (match rounds_per_phase with
        | Some rpp when rpp > 0 ->
            Ba_stats.Summary.add acc.p_phases
              (float_of_int (Ba_sim.Run.span_units ro.span) /. float_of_int rpp)
        | Some _ | None -> ());
        Ba_stats.Summary.add_int acc.p_messages (Ba_sim.Metrics.messages ro.Ba_sim.Run.metrics);
        Ba_stats.Summary.add_int acc.p_bits (Ba_sim.Metrics.bits ro.Ba_sim.Run.metrics);
        Ba_stats.Summary.add_int acc.p_corruptions ro.Ba_sim.Run.corruptions_used;
        if not (Ba_sim.Run.agreement_holds ro) then
          acc.p_agreement_failures <- acc.p_agreement_failures + 1;
        if not (Ba_sim.Run.validity_holds ro) then
          acc.p_validity_failures <- acc.p_validity_failures + 1;
        if not ro.Ba_sim.Run.completed then acc.p_incomplete <- acc.p_incomplete + 1;
        let vs = check ro in
        if vs <> [] then acc.p_violations <- (trial, vs) :: acc.p_violations
  done;
  acc

let monte_carlo ?domains ?rounds_per_phase ?check ?(fail_fast = true)
    ?(policy = Supervisor.default) ?range ~trials ~seed ~run () =
  if trials <= 0 then invalid_arg "Parallel.monte_carlo: trials <= 0";
  let range_lo, range_hi =
    match range with
    | None -> (0, trials)
    | Some (lo, hi) ->
        if lo < 0 || hi > trials || lo >= hi then
          invalid_arg "Parallel.monte_carlo: range outside [0, trials) or empty";
        (lo, hi)
  in
  let span = range_hi - range_lo in
  let check =
    match check with
    | Some f -> f
    | None -> fun o -> Ba_trace.Checker.standard ?rounds_per_phase o
  in
  let domains = max 1 (min span (Option.value domains ~default:(default_domains ()))) in
  let chunk = (span + domains - 1) / domains in
  let bounds =
    List.init domains (fun d ->
        (range_lo + (d * chunk), min range_hi (range_lo + ((d + 1) * chunk))))
    |> List.filter (fun (lo, hi) -> lo < hi)
  in
  let partials =
    match bounds with
    | [] -> []
    | (lo0, hi0) :: rest ->
        (* Backtrace recording is domain-local in OCaml 5: propagate the
           spawning domain's setting so a failure record's backtrace digest
           does not depend on which domain ran the trial. *)
        let record_bt = Printexc.backtrace_status () in
        let handles =
          List.map
            (fun (lo, hi) ->
              Domain.spawn (fun () ->
                  Printexc.record_backtrace record_bt;
                  run_chunk ~rounds_per_phase ~check ~policy ~seed ~run ~lo ~hi))
            rest
        in
        (* The first chunk runs on the current domain. If it (or an early
           join) raises — e.g. a raising [check] closure — every spawned
           domain is still joined before the exception escapes: no leaked
           domains (ISSUE 3 satellite; previously a main-chunk raise
           abandoned the handles). *)
        let joined = ref false in
        Fun.protect
          ~finally:(fun () ->
            if not !joined then
              List.iter
                (* lint: allow D008 -- teardown join must not mask the primary raise *)
                (fun h -> try ignore (Domain.join h : partial) with _ -> ())
                handles)
          (fun () ->
            let first =
              run_chunk ~rounds_per_phase ~check ~policy ~seed ~run ~lo:lo0 ~hi:hi0
            in
            let rest = List.map Domain.join handles in
            joined := true;
            first :: rest)
  in
  let merged = empty_partial () in
  let merge_summary get =
    List.fold_left (fun acc p -> Ba_stats.Summary.merge acc (get p)) (Ba_stats.Summary.create ())
      partials
  in
  let rounds = merge_summary (fun p -> p.p_rounds) in
  let phases = merge_summary (fun p -> p.p_phases) in
  let messages = merge_summary (fun p -> p.p_messages) in
  let bits = merge_summary (fun p -> p.p_bits) in
  let corruptions = merge_summary (fun p -> p.p_corruptions) in
  List.iter
    (fun p ->
      merged.p_agreement_failures <- merged.p_agreement_failures + p.p_agreement_failures;
      merged.p_validity_failures <- merged.p_validity_failures + p.p_validity_failures;
      merged.p_incomplete <- merged.p_incomplete + p.p_incomplete;
      merged.p_violations <- p.p_violations @ merged.p_violations;
      merged.p_failures <- p.p_failures @ merged.p_failures)
    partials;
  (* Chunks accumulate lowest-trial-last and merge in arbitrary chunk order:
     sort by trial before selecting or reporting anything, so the failure
     message, the violation list and the failure records are identical for
     every domain count. *)
  let failures_sorted =
    List.stable_sort
      (fun (a : Supervisor.failure) b -> compare a.f_trial b.f_trial)
      merged.p_failures
  in
  (match failures_sorted with
  | f :: _ when not policy.keep_going -> Supervisor.raise_failure f
  | _ -> ());
  let violations_sorted =
    List.sort (fun (a, _) (b, _) -> compare a b) merged.p_violations
  in
  (match (fail_fast, violations_sorted) with
  | true, (trial, vs) :: _ ->
      failwith
        (Format.asprintf "experiment trial %d (seed %Ld): %a" trial
           (Experiment.trial_seed ~seed ~trial)
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Ba_trace.Checker.pp_violation)
           vs)
  | _ -> ());
  Option.iter (fun s -> Supervisor.record s failures_sorted) policy.failure_sink;
  { Experiment.trials = span;
    rounds;
    phases;
    messages;
    bits;
    corruptions;
    agreement_failures = merged.p_agreement_failures;
    validity_failures = merged.p_validity_failures;
    incomplete = merged.p_incomplete;
    violations = List.concat_map snd violations_sorted;
    failures = failures_sorted }
