(* Per-round delivery topologies for the message plane (DESIGN.md §13).

   The engine's historical behaviour — every sender reaches every live
   recipient — is the [Dense] plan and stays on the packed-slab fast path
   untouched. The two restricted plans compute, for each (round, sender), a
   deterministic recipient set:

   - [Sampled { degree }]: King–Saia-style uniform sampling — [degree]
     distinct recipients drawn per sender per round from a salted SplitMix64
     stream keyed by (seed, round, sender). Re-keying per (round, src) makes
     the sets independent of evaluation order, so delivery sharding cannot
     perturb them and any domain count replays byte-identically.
   - [Committees { count }]: round-robin committee-to-committee links —
     node [v] belongs to committee [v mod count] and reaches its own
     committee plus the round's designated committee [(round - 1) mod
     count]. No randomness; used for committee-routed baselines and the
     small-instance verifier's topology tests.

   Sampling draws nothing from the per-node protocol streams or the
   adversary stream: corrupting a node never perturbs anyone's recipient
   sets (the "oblivious sampler" property the soundness argument of
   DESIGN.md §13 leans on). *)

type plan =
  | Dense
  | Sampled of { degree : int }
  | Committees of { count : int }

(* The sampler's scratch, allocated for sampled plans only: a value [x]
   counts as already drawn in the current call iff [tp_mark.(x) = tp_stamp],
   and each call bumps the stamp, so the set is cleared in O(1); [tp_tmp]
   ([degree] slots) and [tp_count] (65) are the radix sort's buffers. *)
type t = {
  tp_plan : plan;
  tp_n : int;
  tp_salt : int64;
  tp_mark : int array;
  mutable tp_stamp : int;
  tp_tmp : int array;
  tp_count : int array;
}

let plan_name = function
  | Dense -> "dense"
  | Sampled { degree } -> Printf.sprintf "sampled-%d" degree
  | Committees { count } -> Printf.sprintf "committees-%d" count

let is_dense = function Dense -> true | Sampled _ | Committees _ -> false

let validate plan ~n =
  if n < 1 then invalid_arg "Topology.validate: n < 1";
  match plan with
  | Dense -> ()
  | Sampled { degree } ->
      if degree < 1 || degree > n - 1 then
        invalid_arg
          (Printf.sprintf "Topology.validate: sampled degree %d outside [1, n-1=%d]" degree (n - 1))
  | Committees { count } ->
      if count < 1 || count > n then
        invalid_arg (Printf.sprintf "Topology.validate: committee count %d outside [1, n=%d]" count n)

(* Salt tag for the topology stream: independent of the fault stream
   (0xFA175EED) and the per-node splitter streams derived from the seed. *)
let topology_salt = 0x70B0_106FL

let instantiate plan ~n ~seed =
  validate plan ~n;
  let mark, tmp, count =
    match plan with
    | Sampled { degree } -> (Array.make n 0, Array.make degree 0, Array.make 65 0)
    | Dense | Committees _ -> ([||], [||], [||])
  in
  { tp_plan = plan;
    tp_n = n;
    tp_salt = Ba_prng.Splitmix64.mix (Int64.add (Ba_prng.Splitmix64.mix seed) topology_salt);
    tp_mark = mark;
    tp_stamp = 0;
    tp_tmp = tmp;
    tp_count = count }

let degree_bound t =
  match t.tp_plan with
  | Dense -> t.tp_n - 1
  | Sampled { degree } -> degree
  | Committees { count } ->
      (* own committee + designated committee, self excluded *)
      min (t.tp_n - 1) (2 * (((t.tp_n - 1) / count) + 1))

let edge_rng t ~round ~src =
  let h = Ba_prng.Splitmix64.mix (Int64.add t.tp_salt (Int64.of_int round)) in
  Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.add h (Int64.of_int src)))

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Sorts [a.(lo)] .. [a.(lo + len - 1)], all in [0, n), ascending and in
   place: insertion sort up to 16 values, otherwise an LSD radix sort on
   6-bit digits through [tp_tmp] and the 65 counters of [tp_count] —
   O(len * ceil(log2 n / 6)), two passes at n = 4096, and allocation-free.
   Radix rather than a comparison sort because at sampled degrees (k = 64)
   the comparison sorts' data-dependent branches cost more than two
   counting passes. *)
let sort_draws t (a : int array) lo len =
  if len <= 16 then insertion_sort a lo (lo + len)
  else begin
    let tmp = t.tp_tmp and count = t.tp_count in
    let shift = ref 0 in
    while (t.tp_n - 1) lsr !shift > 0 do
      let sh = !shift in
      Array.fill count 0 65 0;
      for i = lo to lo + len - 1 do
        let d = (a.(i) lsr sh) land 63 in
        count.(d + 1) <- count.(d + 1) + 1
      done;
      for d = 1 to 64 do
        count.(d) <- count.(d) + count.(d - 1)
      done;
      for i = lo to lo + len - 1 do
        let x = a.(i) in
        let d = (x lsr sh) land 63 in
        tmp.(count.(d)) <- x;
        count.(d) <- count.(d) + 1
      done;
      Array.blit tmp 0 a lo len;
      shift := sh + 6
    done
  end

(* [k] distinct values from [0, n) \ {skip}, written sorted ascending into
   [into.(pos)] .. [into.(pos + k - 1)]. Rejection sampling for the sparse
   regime (k well below n): expected O(k) draws, membership by the stamped
   mark array. Near-dense requests fall back to a partial Fisher-Yates over
   the explicit candidate set, kept in the mark array and zeroed after —
   O(n), only reachable at test scale. Both branches must keep drawing the
   exact stream the committed experiment payloads were produced with;
   test_sparse pins them against the previous sampler. *)
let sample_into t rng ~k ~skip into ~pos =
  let n = t.tp_n and mark = t.tp_mark in
  if 2 * k >= n - 1 then begin
    for i = 0 to n - 2 do
      mark.(i) <- (if i >= skip then i + 1 else i)
    done;
    for i = 0 to k - 1 do
      let j = i + Ba_prng.Rng.int rng (n - 1 - i) in
      let x = mark.(i) in
      mark.(i) <- mark.(j);
      mark.(j) <- x
    done;
    Array.blit mark 0 into pos k;
    Array.fill mark 0 n 0;
    sort_draws t into pos k
  end
  else begin
    let stamp = t.tp_stamp + 1 in
    t.tp_stamp <- stamp;
    let filled = ref 0 in
    while !filled < k do
      let raw = Ba_prng.Rng.int rng (n - 1) in
      let x = if raw >= skip then raw + 1 else raw in
      if mark.(x) <> stamp then begin
        mark.(x) <- stamp;
        into.(pos + !filled) <- x;
        incr filled
      end
    done;
    sort_draws t into pos k
  end

let recipients_into t ~round ~src into ~pos =
  if round < 1 then invalid_arg "Topology.recipients: rounds are 1-based";
  if src < 0 || src >= t.tp_n then invalid_arg "Topology.recipients: src out of range";
  if pos < 0 || Array.length into - pos < degree_bound t then
    invalid_arg "Topology.recipients_into: buffer shorter than degree_bound";
  let n = t.tp_n in
  match t.tp_plan with
  | Dense ->
      for i = 0 to n - 2 do
        into.(pos + i) <- (if i >= src then i + 1 else i)
      done;
      n - 1
  | Sampled { degree } ->
      let k = min degree (n - 1) in
      sample_into t (edge_rng t ~round ~src) ~k ~skip:src into ~pos;
      k
  | Committees { count } ->
      let mine = src mod count in
      let tgt = (round - 1) mod count in
      let k = ref 0 in
      for u = 0 to n - 1 do
        if u <> src && (u mod count = mine || u mod count = tgt) then begin
          into.(pos + !k) <- u;
          incr k
        end
      done;
      !k

let recipients t ~round ~src =
  let into = Array.make (degree_bound t) 0 in
  let k = recipients_into t ~round ~src into ~pos:0 in
  if k = Array.length into then into else Array.sub into 0 k
