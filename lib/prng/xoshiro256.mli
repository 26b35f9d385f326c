(** xoshiro256++ (Blackman & Vigna 2019): the workhorse generator.

    256-bit state, period [2^256 - 1], passes BigCrush. Seeded via SplitMix64
    so that any [int64] seed produces a well-mixed initial state. *)

(** The state is the four 64-bit words held unboxed in one 32-byte buffer,
    so {!next} writes it back without allocating; only the returned
    [int64] is boxed, and not even that where the call is inlined.
    Streams are pinned by known-answer tests. *)
type t

(** [create seed] seeds the four state words from SplitMix64 on [seed]. *)
val create : int64 -> t

(** [copy g] is an independent generator with identical state. *)
val copy : t -> t

(** [next g] returns the next 64-bit output. *)
val next : t -> int64

(** [jump g] advances [g] by [2^128] steps in place — used to derive
    non-overlapping substreams. *)
val jump : t -> unit
