(** The shared execution substrate: the one outcome record of the
    synchronous round engine ({!Engine}) and the asynchronous scheduler
    engine ([Ba_async.Async_engine]).

    Both engines return {!outcome} directly, so the harness layers —
    checkers, supervised trial runners, reports, timelines, the registry —
    consume a single record regardless of which plane produced it. Duration
    is a {!span}: lockstep rounds for the synchronous engine, scheduler
    steps for the asynchronous one. Cost
    accounting is one {!Metrics} value either way — per-message bits are
    metered through {!Metrics.record_message} on both planes, so the bit
    complexities the communication-centric lines of work measure (King–Saia,
    Cohen–Keidar–Spiegelman) are comparable across engines. *)

(** Duration of an execution in its engine's native unit. *)
type span = Rounds of int  (** synchronous lockstep rounds *)
          | Steps of int  (** asynchronous scheduler steps *)

(** The numeric magnitude of a span, unit erased (for aggregation). *)
val span_units : span -> int

(** ["rounds"] or ["steps"] — for messages and reports. *)
val span_label : span -> string

(** Per-round snapshot a synchronous run keeps when [~record:true], consumed
    by the record-level checkers and the timeline. *)
type round_record = {
  rr_round : int;
  rr_new_corruptions : int list;
  rr_views : Protocol.node_view option array;
      (** post-[recv] introspection; [None] for corrupted nodes or protocols
          without introspection *)
}

(** Outcome of one protocol execution, on either engine. *)
type outcome = {
  protocol_name : string;
  adversary_name : string;
  n : int;
  t : int;
  inputs : int array;
  span : span;  (** duration in the engine's native unit *)
  completed : bool;  (** every honest node halted/decided before the cap *)
  outputs : int option array;  (** [outputs.(v)] for honest [v]; [None] for corrupted *)
  corrupted : bool array;  (** final corruption set *)
  corruptions_used : int;
  metrics : Metrics.t;
  records : round_record list;
      (** oldest first; empty for asynchronous runs and for synchronous
          runs without [~record:true] *)
}

(** [honest_outputs o] — the decided values of honest nodes (those with an
    output), as a list of [(node, value)] in node order. *)
val honest_outputs : outcome -> (int * int) list

(** [agreement_holds o] — no two honest nodes output different values, and
    every honest node produced an output. *)
val agreement_holds : outcome -> bool

(** [validity_holds o] — if all honest *inputs* (of finally-honest nodes)
    equal [b], every honest output equals [b]; vacuously true otherwise. *)
val validity_holds : outcome -> bool

(** [all_honest_decided o] — every finally-honest node produced an output. *)
val all_honest_decided : outcome -> bool

(** {1 Trace hook}

    Both engines accept an optional [?trace] callback and feed it the same
    event vocabulary. [index] is the engine's native clock: the round number
    (1-based) for the synchronous engine, the scheduler step (1-based) for
    the asynchronous one. The synchronous engine reports at round
    granularity ([Tick]/[Corrupt] only — its batched delivery plane has no
    per-message loop to instrument without losing the DESIGN.md §10 fast
    path); the asynchronous engine additionally reports every delivery and
    every injected link fault as scheduler-visible [Deliver]/[Fault]
    events. *)

type fault_kind = Drop | Duplicate | Corrupt_payload | Silence

type event =
  | Tick of { index : int }  (** a round began / a scheduler step ran *)
  | Corrupt of { index : int; node : int }  (** adversary corrupted [node] *)
  | Deliver of { index : int; src : int; dst : int; bits : int; byzantine : bool }
  | Fault of { index : int; kind : fault_kind; src : int; dst : int }

type trace = event -> unit
