(** Exhaustive small-instance verifier (DESIGN.md §12).

    Monte-Carlo trials sample executions; this module {e enumerates} them.
    For tiny instances (n ≤ 7, a bounded number of phases) it walks every
    reachable global state of a protocol under {e every} adversary choice,
    checking agreement and validity on each state, and returns either
    [Verified] with exploration statistics or a minimal-depth
    counterexample that replays through the unmodified engines.

    {b Synchronous plane} ({!verify_sync}): the Rabin-skeleton dealer
    protocol (and its seeded off-by-one {!Mutant}) under the adaptive
    rushing adversary of [Ba_sim.Engine]. Per round the explorer branches
    over every corruption choice (all subsets of uncorrupted nodes within
    the remaining budget), every equivocation pattern (an independent
    per-(corrupted src, honest dst) choice from the round's message
    alphabet), and both dealer-coin values at R2. The alphabet is the
    {e observational quotient} of the full message space: the skeleton
    reads its inbox only through the plane's tally kernels, which count
    well-formed current-(phase, sub) votes — so a Byzantine payload is
    equivalent to one of [{silent, vote 0, vote 1}] in R1 and
    [{silent, decided 0, decided 1}] in R2 (flips are dead for dealer
    configs, mislabeled phases/subs are uncounted). States are memoized on
    an injective encoding, so schedules that commute into the same global
    state are explored once.

    The agreement property is conditioned on certification (see
    [Skeleton.state_certified]): a bounded Las-Vegas run cut off at the
    phase cap with no Case-1 finisher may halt with split values — that is
    coin non-convergence, not disagreement — but one certified finish
    obligates every honest output to equal it. Validity is unconditional.

    {b Asynchronous plane} ({!verify_async}): Bracha reliable broadcast
    under every scheduler interleaving and a static Byzantine set (sound
    for safety: an adaptive corruption's history can be replayed by a
    from-the-start Byzantine node sending the same messages). Byzantine
    influence is a pending pool of first-counted messages (per (byz, dst):
    Echo 0/1, Ready 0/1, plus Init 0/1 from a Byzantine broadcaster);
    delivery order — the scheduler — is the exploration's branch point.
    Memoizing on the canonical (states, pending-multiset) encoding is a
    partial-order reduction: interleavings of independent deliveries
    collapse to one state. Checked: consistency (no two honest nodes
    deliver different values) and validity (an honest broadcaster's value
    is the only deliverable one). *)

(** {1 Verdicts} *)

type stats = {
  st_states : int;  (** distinct global states visited *)
  st_transitions : int;  (** successor evaluations *)
  st_runs : int;  (** input vectors / fault configurations explored *)
}

type 'cex verdict =
  | Verified of stats
  | Violation of 'cex * stats
  | Out_of_budget of stats  (** [max_states] exhausted — NOT a verification *)

(** {1 Synchronous plane} *)

type sync_protocol = Rabin | Rabin_broken

val sync_protocol_name : sync_protocol -> string

val sync_protocol_of_name : string -> sync_protocol option

(** One Byzantine message choice: [bc_opt] indexes the round's alphabet
    (0 = silent — omitted from counterexamples). *)
type byz_choice = { bc_src : int; bc_dst : int; bc_opt : int }

(** Everything the adversary decided in one round. *)
type decision = {
  d_round : int;
  d_corrupt : int list;  (** nodes corrupted this round, ascending *)
  d_coin : int option;  (** dealer coin fixed for this round's phase (R2) *)
  d_byz : byz_choice list;  (** non-silent Byzantine messages *)
}

type sync_cex = {
  sc_protocol : string;
  sc_n : int;
  sc_t : int;
  sc_phases : int;
  sc_inputs : int array;
  sc_round : int;  (** round whose post-state violates *)
  sc_reason : string;
  sc_decisions : decision list;  (** rounds 1 .. [sc_round], in order *)
}

(** [verify_sync ~protocol ~n ~t ~phases ~inputs ~max_states ()] — explore
    the complete adversary space. [inputs] selects the initial-vector sweep:
    [`Weights] one representative per Hamming weight (sound for the
    node-symmetric dealer protocols — no flippers, no committees),
    [`All] all [2^n] vectors. [max_states] bounds visited states across the
    whole sweep. *)
val verify_sync :
  protocol:sync_protocol ->
  n:int ->
  t:int ->
  phases:int ->
  inputs:[ `Weights | `All ] ->
  max_states:int ->
  unit ->
  sync_cex verdict

(** [replay_sync cex] — re-execute the counterexample through the real
    [Ba_sim.Engine.run] with a tape adversary (silent once the tape ends)
    and the recorded dealer coins. *)
val replay_sync : sync_cex -> Ba_sim.Run.outcome

(** [sync_cex_confirmed cex] — the replayed outcome indeed violates
    agreement or validity ([Ba_sim.Run.agreement_holds] /
    [validity_holds] on the full run). *)
val sync_cex_confirmed : sync_cex -> bool

val sync_cex_to_json : sync_cex -> Ba_harness.Json.t

val sync_cex_of_json : Ba_harness.Json.t -> (sync_cex, string) result

(** {1 Asynchronous plane} *)

type delivery = { dv_src : int; dv_dst : int; dv_msg : Ba_async.Bracha_rbc.msg }

type async_cex = {
  ac_n : int;
  ac_t : int;
  ac_broadcaster : int;
  ac_input : int;  (** the broadcaster's input (0 when Byzantine) *)
  ac_byz : int list;  (** static Byzantine set, ascending *)
  ac_reason : string;
  ac_deliveries : delivery list;  (** the violating schedule, in order *)
}

(** [verify_async ~n ~t ~broadcaster ~max_states ()] — Bracha RBC over all
    interleavings, for every representative Byzantine set of size ≤ [t]
    (non-broadcaster nodes are interchangeable, so one representative per
    (size, contains-broadcaster) class suffices) and both broadcaster
    inputs when the broadcaster is honest. *)
val verify_async :
  n:int -> t:int -> broadcaster:int -> max_states:int -> unit -> async_cex verdict

(** [replay_async cex] — drive [Ba_async.Async_engine.run] along the
    recorded schedule: Byzantine messages become injections batched onto
    the following honest delivery's step, honest deliveries are picked by
    id from the engine's pending view ([max_delay] set high enough that
    fairness never preempts the tape). Runs of more than [n] consecutive
    Byzantine deliveries are split across steps (the engine caps injections
    at [n] per step), which can force an out-of-tape FIFO delivery early —
    {!async_cex_confirmed} re-checks the outcome rather than trusting the
    mapping. *)
val replay_async : async_cex -> Ba_sim.Run.outcome

val async_cex_confirmed : async_cex -> bool

val async_cex_to_json : async_cex -> Ba_harness.Json.t

val async_cex_of_json : Ba_harness.Json.t -> (async_cex, string) result
