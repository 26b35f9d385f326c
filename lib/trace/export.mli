(** Trace and outcome export for offline analysis. *)

(** [outcome_row o] — a flat key/value rendering of an outcome's headline
    numbers (protocol, adversary, n, t, span, completed, messages, bits,
    corruptions, agreement, validity). The span's key is
    {!Ba_sim.Run.span_label}: ["rounds"] for a synchronous run, ["steps"]
    for an asynchronous one. *)
val outcome_row : Ba_sim.Run.outcome -> (string * string) list

(** [round_rows o] — one row per recorded round (none for an asynchronous
    or unrecorded run): round number, corruptions
    this round, and per-state counters (decided/finished/live counts). *)
val round_rows : Ba_sim.Run.outcome -> (string * string) list list

(** [to_csv ~path rows] — write rows (all sharing the first row's keys as
    header) to [path]. *)
val to_csv : path:string -> (string * string) list list -> unit

(** [pp_outcome] — human-readable one-line outcome summary; the span reads
    [rounds=] or [steps=] as {!outcome_row}'s key does. *)
val pp_outcome : Format.formatter -> Ba_sim.Run.outcome -> unit
