(** ASCII timeline of a recorded run: one row per node, one column per
    round, showing each node's trajectory through the protocol.

    Glyphs: ['0']/['1'] — undecided, holding that value; ['a']/['b'] —
    decided on 0/1; ['A']/['B'] — finished on 0/1; ['x'] — corrupted (from
    the round of corruption on); [' '] — halted (left the protocol).

    Invaluable when debugging an adversary: the committee-killer shows up
    as columns of alternating 0/1 stripes that suddenly collapse into a
    solid block of [a]/[b] once a coin survives. *)

(** [render ?max_nodes ?max_rounds outcome] — needs a synchronous run
    recorded with [~record:true]; renders the header and a note when no
    records are present (always so for asynchronous runs). Large runs
    are cropped to [max_nodes] rows (default 64) and [max_rounds] columns
    (default 120), annotated when cropped. *)
val render : ?max_nodes:int -> ?max_rounds:int -> Ba_sim.Run.outcome -> string
