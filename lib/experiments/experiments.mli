(** The paper's claims as runnable experiments (E1–E23 in DESIGN.md §5).

    The experiments themselves live in the per-claim modules ({!Exp_coin},
    {!Exp_scaling}, {!Exp_complexity}, {!Exp_baselines}, {!Exp_ablations},
    {!Exp_async}, {!Exp_robustness}, {!Exp_sparse}, {!Exp_attack}), each of
    which publishes {!Ba_harness.Registry.descriptor}s. This module only
    assembles them: {!registry} is the single source of truth that
    [ba_sweep] and [bench] drive — no experiment list is maintained
    anywhere else.

    Every experiment returns a structured {!Ba_harness.Report.t}: rendered
    [body] tables/figures for the terminal, plus machine-readable [verdict],
    [metrics] and [series] for the JSON/CSV pipeline. All experiments are
    deterministic in [seed]. [quick] shrinks sizes/trials by roughly 4x. *)

(** The full E1–E23 registry, in numeric id order. The single source of
    truth for every driver ([ba_sweep], [bench]) and for the DESIGN.md §5
    coverage test. *)
val registry : Ba_harness.Registry.t
