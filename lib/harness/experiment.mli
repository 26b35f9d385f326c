(** Monte-Carlo experiment runner.

    Wraps repeated engine runs with: per-trial seeds derived from one master
    seed (reproducibility), invariant checking on every trial (a violation
    is recorded, and by default aborts the experiment loudly), and summary
    aggregation of the measurements the paper's claims are about. *)

type stats = {
  trials : int;
  rounds : Ba_stats.Summary.t;
  phases : Ba_stats.Summary.t;  (** rounds / rounds_per_phase when given *)
  messages : Ba_stats.Summary.t;
  bits : Ba_stats.Summary.t;
  corruptions : Ba_stats.Summary.t;
  agreement_failures : int;
  validity_failures : int;
  incomplete : int;
  violations : Ba_trace.Checker.violation list;  (** most recent first, capped *)
  failures : Supervisor.failure list;
      (** supervised trial failures kept by a [keep_going] policy, in trial
          order; failed trials are excluded from every aggregate above *)
}

(** [monte_carlo ~trials ~seed ~run ()] executes [run ~seed ~trial] for
    [trial] in [0, trials), each with an independent derived seed. Every
    trial runs under {!Supervisor.run_trial}: a raising or round-budget-
    overrunning trial either aborts with full context (the default policy)
    or — under a [keep_going] policy — becomes a {!Supervisor.failure}
    record in [stats.failures] while the remaining trials run. [run] may
    drive either engine: the [rounds] summary holds the span in its native
    unit, scheduler steps for asynchronous outcomes.

    @param rounds_per_phase used for the phase summary and Lemma 4 checking.
    @param check override the per-outcome checker (default
    {!Ba_trace.Checker.standard}).
    @param fail_fast raise [Failure] on the first violation (default true —
    experiments must not silently aggregate broken runs). Checker violations
    are science, not infrastructure: they are never converted to failure
    records.
    @param policy supervision policy (default {!Supervisor.default}).
    @param range run only trials [lo, hi) of the experiment (default the
    whole [0, trials) span). Per-trial seeds stay a function of the {e
    global} trial index, so folding range shards back together with
    {!merge_stats} reproduces the unsharded statistics byte-for-byte — the
    contract the campaign layer's checkpoints rely on (DESIGN.md §14).
    [stats.trials] counts only the executed range.
    @raise Invalid_argument if the range is empty or outside [0, trials). *)
val monte_carlo :
  ?rounds_per_phase:int ->
  ?check:(Ba_sim.Run.outcome -> Ba_trace.Checker.violation list) ->
  ?fail_fast:bool ->
  ?policy:Supervisor.policy ->
  ?range:(int * int) ->
  trials:int ->
  seed:int64 ->
  run:(seed:int64 -> trial:int -> Ba_sim.Run.outcome) ->
  unit ->
  stats

(** [merge_stats a b] — fold two disjoint trial ranges' statistics into one.
    Summary merging is exact ({!Ba_stats.Summary.merge}), counters add, and
    failure records are re-sorted by trial, so folding per-shard stats in
    any order reproduces the single-pass aggregates byte-for-byte (the
    capped [violations] list keeps concatenation order and is the one field
    whose {e ordering} depends on the fold order). *)
val merge_stats : stats -> stats -> stats

(** [trial_seed ~seed ~trial] — the derived per-trial seed (exposed so tests
    can reproduce a single trial of an experiment); an alias of
    {!Supervisor.trial_seed}, which owns the derivation. *)
val trial_seed : seed:int64 -> trial:int -> int64

(** [sweep xs f] — maps [f] over parameter points, keeping the pairing. *)
val sweep : 'a list -> ('a -> 'b) -> ('a * 'b) list
