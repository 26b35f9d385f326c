(** Sampling-majority dynamics (Augustine, Pandurangan & Robinson, PODC
    2013 — discussed in the paper's related work, Section 1.3).

    Each round every node broadcasts its current value, samples the values
    of two uniformly random peers from its inbox, and replaces its value by
    the majority of {own, sample₁, sample₂}. With at most
    [O(√n / polylog n)] Byzantine nodes this converges to a common value in
    [polylog n] rounds — but unlike the coin-based protocols it offers only
    *almost-everywhere* agreement against stronger adversaries, and its
    analysis also rests on an anti-concentration argument, which is why the
    paper cites it next to the committee coin.

    Included as a contrast baseline: experiment E12 shows convergence
    degrading as the corruption budget crosses the [√n] threshold — the same
    threshold at which Algorithm 1's coin dies, but without the committee
    amplification that rescues Algorithm 3.

    Model notes: sampling is implemented pull-free — everyone broadcasts
    (complete network, 1-bit payloads) and each node samples two received
    values locally; a sampled Byzantine or silent slot contributes the value
    the adversary sent to *this* node (or is resampled if silent). The
    protocol runs for a fixed [rounds] horizon and then outputs its value;
    it does not detect termination. *)

type msg = Value of int

type state

(** [make ~rounds] — run the dynamics for [rounds] rounds then output.
    [rounds] defaults to [4 ⌈log2 n⌉²] when [None] (chosen per instance at
    [init] time). *)
val make : ?rounds:int -> unit -> (state, msg) Ba_sim.Protocol.t

(** [agreement_fraction outcome] — the fraction of honest nodes holding the
    modal output: 1.0 means global agreement, values near 0.5 a split.
    Useful because this protocol targets almost-everywhere agreement. *)
val agreement_fraction : Ba_sim.Run.outcome -> float
