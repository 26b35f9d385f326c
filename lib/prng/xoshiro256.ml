(* The four state words live unboxed in one 32-byte [Bytes.t] (offsets 0,
   8, 16, 24), read and written through the unchecked 64-bit primitives.
   A record of [mutable int64] fields would box a fresh [int64] on every
   field write — four allocations per draw — while here a draw allocates
   nothing but, when not inlined, its boxed result. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let sm = Splitmix64.create seed in
  let g = Bytes.create 32 in
  for i = 0 to 3 do
    set64 g (8 * i) (Splitmix64.next sm)
  done;
  g

let copy = Bytes.copy

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let[@inline] next g =
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 (Int64.logxor s2 t);
  set64 g 24 (rotl s3 45);
  result

let jump_table =
  (* lint: allow D003 -- xoshiro256** jump polynomial: written nowhere, read-only constant *)
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump g =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.(logand word (shift_left 1L b)) <> 0L then
          for i = 0 to 3 do
            set64 acc (8 * i) (Int64.logxor (get64 acc (8 * i)) (get64 g (8 * i)))
          done;
        ignore (next g : int64)
      done)
    jump_table;
  Bytes.blit acc 0 g 0 32
