type stats = {
  trials : int;
  rounds : Ba_stats.Summary.t;
  phases : Ba_stats.Summary.t;
  messages : Ba_stats.Summary.t;
  bits : Ba_stats.Summary.t;
  corruptions : Ba_stats.Summary.t;
  agreement_failures : int;
  validity_failures : int;
  incomplete : int;
  violations : Ba_trace.Checker.violation list;
  failures : Supervisor.failure list;
}

let trial_seed = Supervisor.trial_seed

let max_kept_violations = 32

let check_range ~trials = function
  | None -> (0, trials)
  | Some (lo, hi) ->
      if lo < 0 || hi > trials || lo >= hi then
        invalid_arg "Experiment.monte_carlo: range outside [0, trials) or empty";
      (lo, hi)

let monte_carlo ?rounds_per_phase ?check ?(fail_fast = true)
    ?(policy = Supervisor.default) ?range ~trials ~seed ~run () =
  if trials <= 0 then invalid_arg "Experiment.monte_carlo: trials <= 0";
  let lo, hi = check_range ~trials range in
  let check =
    match check with
    | Some f -> f
    | None -> fun o -> Ba_trace.Checker.standard ?rounds_per_phase o
  in
  let rounds = Ba_stats.Summary.create ()
  and phases = Ba_stats.Summary.create ()
  and messages = Ba_stats.Summary.create ()
  and bits = Ba_stats.Summary.create ()
  and corruptions = Ba_stats.Summary.create () in
  let agreement_failures = ref 0 and validity_failures = ref 0 and incomplete = ref 0 in
  let violations = ref [] and violation_count = ref 0 in
  let failures = ref [] in
  for trial = lo to hi - 1 do
    match Supervisor.run_trial ~policy ~seed ~trial ~run with
    | Error f ->
        if not policy.keep_going then Supervisor.raise_failure f;
        failures := f :: !failures
    | Ok ro ->
        Ba_stats.Summary.add_int rounds (Ba_sim.Run.span_units ro.span);
        (match rounds_per_phase with
        | Some rpp when rpp > 0 ->
            Ba_stats.Summary.add phases
              (float_of_int (Ba_sim.Run.span_units ro.span) /. float_of_int rpp)
        | Some _ | None -> ());
        Ba_stats.Summary.add_int messages (Ba_sim.Metrics.messages ro.Ba_sim.Run.metrics);
        Ba_stats.Summary.add_int bits (Ba_sim.Metrics.bits ro.Ba_sim.Run.metrics);
        Ba_stats.Summary.add_int corruptions ro.Ba_sim.Run.corruptions_used;
        if not (Ba_sim.Run.agreement_holds ro) then incr agreement_failures;
        if not (Ba_sim.Run.validity_holds ro) then incr validity_failures;
        if not ro.Ba_sim.Run.completed then incr incomplete;
        let vs = check ro in
        if vs <> [] then begin
          incr violation_count;
          if List.length !violations < max_kept_violations then violations := vs @ !violations;
          if fail_fast then
            failwith
              (Format.asprintf "experiment trial %d (seed %Ld): %a" trial
                 (trial_seed ~seed ~trial)
                 (Format.pp_print_list ~pp_sep:Format.pp_print_space
                    Ba_trace.Checker.pp_violation)
                 vs)
        end
  done;
  let failures = List.rev !failures in
  Option.iter (fun s -> Supervisor.record s failures) policy.failure_sink;
  { trials = hi - lo;
    rounds;
    phases;
    messages;
    bits;
    corruptions;
    agreement_failures = !agreement_failures;
    validity_failures = !validity_failures;
    incomplete = !incomplete;
    violations = !violations;
    failures }

(* Merging keeps at most this many violation records, mirroring the serial
   runner's cap. *)
let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let merge_stats a b =
  { trials = a.trials + b.trials;
    rounds = Ba_stats.Summary.merge a.rounds b.rounds;
    phases = Ba_stats.Summary.merge a.phases b.phases;
    messages = Ba_stats.Summary.merge a.messages b.messages;
    bits = Ba_stats.Summary.merge a.bits b.bits;
    corruptions = Ba_stats.Summary.merge a.corruptions b.corruptions;
    agreement_failures = a.agreement_failures + b.agreement_failures;
    validity_failures = a.validity_failures + b.validity_failures;
    incomplete = a.incomplete + b.incomplete;
    violations = take max_kept_violations (a.violations @ b.violations);
    failures =
      List.stable_sort
        (fun (x : Supervisor.failure) y -> compare x.f_trial y.f_trial)
        (a.failures @ b.failures) }

let sweep xs f = List.map (fun x -> (x, f x)) xs
