(** Multicore Monte-Carlo (OCaml 5 domains).

    Same contract and same results as {!Experiment.monte_carlo} — per-trial
    seeds are derived identically, so the aggregate statistics are
    bit-for-bit independent of the domain count — but trials run across
    [domains] cores. Trials are supervised exactly like the serial runner
    ({!Supervisor.run_trial}): crashes and round-budget overruns become
    {!Supervisor.failure} records under a [keep_going] policy, and the
    failure records themselves are sorted by trial, hence also independent
    of the domain count.

    Requirement on [run]: it must not share mutable state between calls
    (every setup in {!Ba_experiments.Setups} satisfies this — each [exec]
    builds its own adversary, RNGs and protocol state from the seed).

    Domains are always joined, even when the main-domain chunk raises (a
    raising [check] closure, for instance): the join is wrapped in
    [Fun.protect], so an exception never leaks spawned domains.

    Fail-fast semantics differ slightly from the serial runner: violations
    abort after the in-flight chunks complete, and the reported failure is
    the lowest-numbered violating trial (chunk results are sorted by trial
    before any selection, so the message is consistent regardless of which
    chunk finished first). Likewise, without [keep_going] a failing trial
    aborts only after every chunk has finished and joined, citing the
    lowest-numbered failing trial.

    [range] restricts execution to trials [lo, hi) exactly as in
    {!Experiment.monte_carlo}: per-trial seeds stay a function of the global
    trial index, the range is chunked across domains, and
    [stats.trials = hi - lo]. *)

val monte_carlo :
  ?domains:int ->
  ?rounds_per_phase:int ->
  ?check:(Ba_sim.Run.outcome -> Ba_trace.Checker.violation list) ->
  ?fail_fast:bool ->
  ?policy:Supervisor.policy ->
  ?range:(int * int) ->
  trials:int ->
  seed:int64 ->
  run:(seed:int64 -> trial:int -> Ba_sim.Run.outcome) ->
  unit ->
  Experiment.stats

(** [default_domains ()] — [min 8 (Domain.recommended_domain_count ())]. *)
val default_domains : unit -> int

(** [delivery_sharder ~domains] — a domain-backed {!Ba_sim.Engine.sharder}
    for within-round delivery: shard thunks [1..] run on fresh domains, the
    first on the calling domain, all joined before returning (even on an
    exception). Both engines consume it: the synchronous plane shards
    benign-round recipients (DESIGN.md §10), the asynchronous engine
    shards a batch's per-destination mailbox activations (DESIGN.md §15,
    [Async_engine.run ?sharder] / [ba_async_run --domains]). Engine
    outcomes are byte-identical at any [domains] (see
    {!Ba_sim.Engine.sharder}); this only changes wall-clock. Domains are
    spawned per batch — worthwhile for large workloads, pure overhead for
    small runs, which is why it is opt-in ([--domains] on the CLIs).
    @raise Invalid_argument if [domains < 1]. *)
val delivery_sharder : domains:int -> Ba_sim.Engine.sharder
