(** Invariant checkers over engine outcomes.

    Every simulation in the test-suite and the harness runs through these;
    a non-empty violation list is a correctness bug (either in a protocol
    or in the engine), never an acceptable outcome.

    Every check is typed on the one outcome record {!Ba_sim.Run.outcome},
    so synchronous and asynchronous executions audit through one code path.
    The phase-structured checks consume the per-round
    {!Ba_sim.Run.round_record}s (run the synchronous engine with
    [~record:true]); they encode the paper's lemmas:

    - {b decided coherence} (Lemma 3): at every round snapshot, all honest
      nodes with a set decided flag hold one identical value.
    - {b frozen finishers}: once a node reports finished, its value never
      changes and equals its final output.
    - {b termination gap} (Lemma 4): every honest node halts at most two
      phases after the first finisher appears.
    - {b corruption budget}: at most [t] corruptions, each node corrupted at
      most once. *)

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** {1 Outcome-level checks} (no records needed; both engines). *)

val agreement : Ba_sim.Run.outcome -> violation list

val validity : Ba_sim.Run.outcome -> violation list

(** [completion o] — the run finished before the engine's cap and every
    honest node decided. The violation names the cap in the span's native
    unit (round cap vs. scheduler-step cap). *)
val completion : Ba_sim.Run.outcome -> violation list

(** [corruption_budget o] — at most [t] corrupted, [corruptions_used]
    coherent with the corruption set, and (from the records, so trivially
    when there are none) no node corrupted twice. *)
val corruption_budget : Ba_sim.Run.outcome -> violation list

(** [congest o] — fires when the run was metered with a CONGEST limit and
    some payload exceeded it. *)
val congest : Ba_sim.Run.outcome -> violation list

(** [benign_faults o] — fires when the run's metrics show injected benign
    fault events ({!Ba_sim.Faults}): in a configuration that claims to be
    fault-free, any metered drop/duplicate/corruption/silence is a harness
    bug. Fault experiments opt out via {!standard}'s [allow_faults]. *)
val benign_faults : Ba_sim.Run.outcome -> violation list

(** {1 Record-level checks} (synchronous runs with [~record:true]). *)

val decided_coherence : Ba_sim.Run.outcome -> violation list

val frozen_finishers : Ba_sim.Run.outcome -> violation list

(** [termination_gap ~rounds_per_phase o] — Lemma 4's two-phase window. *)
val termination_gap : rounds_per_phase:int -> Ba_sim.Run.outcome -> violation list

(** [standard ?rounds_per_phase ?allow_faults o] — all of the above that
    apply (record checks are skipped when the outcome carries no records; the
    termination gap is skipped unless [rounds_per_phase] is given; the
    {!benign_faults} audit is skipped when [allow_faults] is [true] — default
    [false], so fault injection never leaks into an experiment silently).
    This is the default audit of every Monte-Carlo trial, on either
    engine. *)
val standard :
  ?rounds_per_phase:int -> ?allow_faults:bool -> Ba_sim.Run.outcome -> violation list

(** Equal to {!standard}; kept only because the trial benchmark under
    [perfbench/] calls it. *)
val standard_run :
  ?rounds_per_phase:int -> ?allow_faults:bool -> Ba_sim.Run.outcome -> violation list
