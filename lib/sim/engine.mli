(** The synchronous round engine.

    Implements the paper's model: a complete network of [n] nodes, lockstep
    rounds, reliable authenticated point-to-point channels (the receiver
    always knows the true sender identity — Byzantine nodes cannot forge
    sender IDs, only payloads), and a full-information rushing adaptive
    adversary (see {!Adversary}).

    Round structure:
    + every live honest node produces its broadcast ([Protocol.send]);
    + the adversary observes everything (including those broadcasts) and
      picks new corruptions and per-recipient Byzantine payloads;
    + newly corrupted nodes have their round broadcast replaced — rushing;
    + each live honest node receives its inbox and steps ([Protocol.recv]).

    The run ends when every honest node has halted, or at [max_rounds]. *)

(** Delivery sharding (DESIGN.md §10). In a benign broadcast round every
    live recipient reads the same shared message plane, so their [recv]
    steps are independent and the engine can split them across [s_shards]
    contiguous node ranges: it builds one thunk per shard and hands the
    array to [s_run], which must run every thunk to completion before
    returning (in any order, on any domain). Per lint rule D007 the engine
    never spawns domains itself — [Ba_harness.Parallel.delivery_sharder]
    supplies a domain-backed implementation. Sharding never applies to
    rounds with Byzantine senders or link faults (those are per-recipient
    anyway), and outcomes are byte-identical at any shard count because
    recv draws only from per-node RNG streams. *)
type sharder = { s_shards : int; s_run : (unit -> unit) array -> unit }

(** Runs the thunks in order on the calling domain — the default. *)
val sequential : sharder

(** [run ~protocol ~adversary ~n ~t ~inputs ~seed ()] executes one instance.

    @param max_rounds cap (default {!Protocol.default_round_cap}).
    @param record keep per-round {!Run.round_record}s in the outcome's
    [records], for the record-level checkers and the timeline.
    @param congest_limit_bits when set, every delivered payload larger than
    this is counted as a CONGEST violation in the metrics (the paper's model
    allows O(log n) bits per edge per round); delivery still happens, so a
    violating protocol (e.g. EIG) remains runnable but measurably so.
    @param faults a benign fault-injection {!Faults.plan} (link drop /
    duplication / corruption, crash-recovery silence windows); the fault
    stream is derived from [seed], every injected event is metered, and
    passing {!Faults.none} (or omitting the argument) is the exact fault-free
    engine.
    @param sharder how to fan benign-round delivery out over domains
    (default {!sequential}); any shard count yields byte-identical outcomes.
    @param topology the per-round delivery {!Topology.plan} (default
    [Topology.Dense], which is bit-for-bit the historical dense engine). A
    restricted plan delivers each broadcast only to the sender's per-round
    recipient set, through per-recipient sparse plane slices; a node still
    always hears itself. Byzantine payloads are likewise constrained to the
    corrupted sender's sampled links ([byz_msg] is consulted once per
    sampled edge, senders ascending then recipients ascending), and
    corruption accounting, budget caps and checker audits are unchanged.
    Link faults compose: {!Faults.deliver} is applied to every sampled
    edge in the same deterministic order. Sampling draws from a dedicated
    salted stream keyed by [(seed, round, src)], so recipient sets are
    independent of adversary behaviour and of the shard count.
    @param trace unified substrate trace hook ({!Run.trace}); the
    synchronous engine emits round-granularity events only ([Run.Tick] per
    round, [Run.Corrupt] per corruption — per-message events would defeat
    the batched delivery plane of DESIGN.md §10). Omitting it costs
    nothing on the hot path.
    @param inputs binary inputs, one per node (length [n]).
    @raise Invalid_argument if [inputs] has the wrong length, if any input is
    not 0/1, if [t < 0] or [t >= n], if the fault plan names a node [>= n],
    or if the sharder offers no shard. *)
val run :
  ?max_rounds:int ->
  ?record:bool ->
  ?congest_limit_bits:int ->
  ?faults:'msg Faults.plan ->
  ?sharder:sharder ->
  ?topology:Topology.plan ->
  ?trace:Run.trace ->
  protocol:('state, 'msg) Protocol.t ->
  adversary:('state, 'msg) Adversary.t ->
  n:int ->
  t:int ->
  inputs:int array ->
  seed:int64 ->
  unit ->
  Run.outcome

(** The identity on {!Run.outcome}; kept only because the trial benchmark
    under [perfbench/] calls it. *)
val to_run : Run.outcome -> Run.outcome
