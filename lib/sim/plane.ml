(* Batched message plane (DESIGN.md sections 10 and 13).

   One round's deliveries, as seen by a recipient. The engine hands out
   three representations:

   - shared (flat): the round's honest broadcast slab, payloads packed once
     into a reusable int-code array and aggregation results memoized. In a
     benign dense round every live recipient reads this one plane, so the
     round costs O(n) instead of O(n^2) for protocols whose recv is a
     tally;
   - overlay: a dense round touched by Byzantine senders or link faults
     hands each recipient the round's shared plane plus that recipient's
     sorted patch list of (src, code, payload) — Byzantine senders and the
     links a fault rewrote. A kernel takes the base's memoized answer,
     takes out the base codes at the patched sources and adds the patch
     codes, so a recipient costs O(#patches) rather than O(n);
   - sparse slice: under a restricted Topology a recipient's inbox is the
     short list of senders whose sampled recipient set contained it. The
     slice stores (sorted source ids, packed codes, boxed payloads) for just
     those deliveries, so tally kernels cost O(in-degree).

   A fourth, solo flat form over a caller-owned array derives codes on the
   fly and memoizes nothing. The engine does not build it: it is the
   plainly-correct plane of the reference oracles and the exhaustive
   verifier.

   The cache is keyed by plain ints (never closures — lint D005 bans
   physical equality, and structural equality on closures is meaningless),
   which imposes the documented requirement that a [signed_sum] membership
   predicate is determined by its (phase, sub) key for a given plane. An
   overlay inherits that requirement from its base. *)
let absent = -1
let opaque = -2

(* Code layout (non-negative values only):
     bits 0-1  vote        0 | 1 | 2 = not a countable vote
     bit  2    decided
     bits 3-4  sub-round   protocol-defined, 0..3
     bits 5-6  flip        0 = none | 1 = +1 | 2 = -1
     bits 7+   phase
   Negative codes: [absent] (no message) and [opaque] (a payload whose
   phase no in-range query can ever match, e.g. a Byzantine header). *)

let max_phase = 1 lsl 44

let code ~phase ~sub ~decided ~vote ~flip =
  if phase < 0 || phase > max_phase then opaque
  else begin
    if sub < 0 || sub > 3 then invalid_arg "Plane.code: sub out of range";
    let v = if vote = 0 || vote = 1 then vote else 2 in
    let f = match flip with Some 1 -> 1 | Some (-1) -> 2 | Some _ | None -> 0 in
    (phase lsl 7) lor (f lsl 5) lor (sub lsl 3) lor ((if decided then 1 else 0) lsl 2) lor v
  end

type cache_entry = {
  ck_kind : int; (* 0 = vote_counts, 1 = signed_sum *)
  ck_phase : int;
  ck_sub : int;
  ck_flag : int; (* decided_only for vote_counts; 0 for signed_sum *)
  cr_a : int;
  cr_b : int;
}

type 'msg repr =
  | Flat of {
      f_data : 'msg option array;
      f_codes : int array option; (* packed slab; present only on shared planes *)
      f_encode : ('msg -> int) option;
    }
  | Overlay of {
      o_base : 'msg t; (* a flat plane, normally shared *)
      o_srcs : int array; (* patched sources, strictly ascending within [0, o_len) *)
      o_codes : int array; (* patch codes in step with o_srcs; unread without codec *)
      o_msgs : 'msg option array; (* patch payloads in step with o_srcs *)
      o_len : int;
    }
  | Sparse of {
      sp_n : int; (* sender-id space; [length] of the plane *)
      sp_srcs : int array; (* sorted ascending within [lo, hi) *)
      sp_codes : int array option; (* packed in step with sp_srcs; None without codec *)
      sp_msgs : 'msg option array; (* boxed payloads, in step with sp_srcs *)
      sp_lo : int;
      sp_hi : int;
    }

and 'msg t = { p_repr : 'msg repr; mutable p_cache : cache_entry list }

let of_array ?encode data =
  { p_repr = Flat { f_data = data; f_codes = None; f_encode = encode }; p_cache = [] }

let shared ?encode ~slab data =
  let codes =
    match encode with
    | None -> None
    | Some f ->
        let n = Array.length data in
        let slab = if Array.length slab >= n then slab else Array.make n absent in
        for i = 0 to n - 1 do
          slab.(i) <- (match data.(i) with None -> absent | Some m -> f m)
        done;
        Some slab
  in
  { p_repr = Flat { f_data = data; f_codes = codes; f_encode = encode }; p_cache = [] }

let overlay base ~srcs ~codes ~msgs ~len =
  (match base.p_repr with
  | Flat _ -> ()
  | Overlay _ | Sparse _ -> invalid_arg "Plane.overlay: base must be a flat plane");
  if len < 0 || len > Array.length srcs || len > Array.length codes || len > Array.length msgs
  then invalid_arg "Plane.overlay: len exceeds a patch array";
  { p_repr = Overlay { o_base = base; o_srcs = srcs; o_codes = codes; o_msgs = msgs; o_len = len };
    p_cache = [] }

let sparse_slice ?codes ~n ~srcs ~msgs ~lo ~hi () =
  if lo < 0 || hi < lo || hi > Array.length srcs then
    invalid_arg "Plane.sparse_slice: bad [lo, hi) slice";
  if Array.length msgs <> Array.length srcs then
    invalid_arg "Plane.sparse_slice: msgs length <> srcs length";
  (match codes with
  | Some cs when Array.length cs <> Array.length srcs ->
      invalid_arg "Plane.sparse_slice: codes length <> srcs length"
  | Some _ | None -> ());
  { p_repr = Sparse { sp_n = n; sp_srcs = srcs; sp_codes = codes; sp_msgs = msgs; sp_lo = lo; sp_hi = hi };
    p_cache = [] }

let rec shard_view t =
  match t.p_repr with
  | Overlay o -> { p_repr = Overlay { o with o_base = shard_view o.o_base }; p_cache = [] }
  | Flat _ | Sparse _ -> { t with p_cache = [] }

let rec length t =
  match t.p_repr with
  | Flat f -> Array.length f.f_data
  | Overlay o -> length o.o_base
  | Sparse s -> s.sp_n

(* Index of [v] in the ascending [srcs.(lo)] .. [srcs.(hi - 1)], or -1. *)
let search srcs ~lo ~hi v =
  let lo = ref lo and hi = ref hi and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = srcs.(mid) in
    if x = v then found := mid else if x < v then lo := mid + 1 else hi := mid
  done;
  !found

let rec get t v =
  match t.p_repr with
  | Flat f -> f.f_data.(v)
  | Overlay o ->
      let k = search o.o_srcs ~lo:0 ~hi:o.o_len v in
      if k >= 0 then o.o_msgs.(k) else get o.o_base v
  | Sparse s ->
      let k = search s.sp_srcs ~lo:s.sp_lo ~hi:s.sp_hi v in
      if k >= 0 then s.sp_msgs.(k) else None

let iteri f t =
  match t.p_repr with
  | Flat fl -> Array.iteri f fl.f_data
  | Overlay o ->
      let k = ref 0 in
      for v = 0 to length o.o_base - 1 do
        if !k < o.o_len && o.o_srcs.(!k) = v then begin
          f v o.o_msgs.(!k);
          incr k
        end
        else f v (get o.o_base v)
      done
  | Sparse s ->
      for k = s.sp_lo to s.sp_hi - 1 do
        f s.sp_srcs.(k) s.sp_msgs.(k)
      done

let to_array t =
  match t.p_repr with
  | Flat f -> Array.copy f.f_data
  | Overlay _ ->
      let out = Array.make (length t) None in
      iteri (fun v m -> out.(v) <- m) t;
      out
  | Sparse s ->
      let out = Array.make s.sp_n None in
      for k = s.sp_lo to s.sp_hi - 1 do
        out.(s.sp_srcs.(k)) <- s.sp_msgs.(k)
      done;
      out

let no_codec () = invalid_arg "Plane: tally kernel on a plane without a codec"

(* Slot [i]'s code on a flat plane. *)
let flat_code t i =
  match t.p_repr with
  | Flat { f_codes = Some codes; _ } -> codes.(i)
  | Flat { f_data; f_encode; _ } -> (
      match f_data.(i) with
      | None -> absent
      | Some m -> ( match f_encode with Some enc -> enc m | None -> no_codec ()))
  | Overlay _ | Sparse _ -> assert false

let sparse_codes = function Some codes -> codes | None -> no_codec ()

(* An overlay's patch codes exist only if its base has a codec. *)
let overlay_base base =
  match base.p_repr with
  | Flat { f_encode = None; _ } -> no_codec ()
  | Flat { f_encode = Some _; _ } | Overlay _ | Sparse _ -> base

(* The per-slot contributions the kernels fold: the countable vote (0 or 1)
   a code carries for [(phase, sub)] ([-1] if none), and its flip ([±1], or
   0 if none). *)
let counted_vote c ~phase ~sub ~decided_only =
  if c >= 0 && c lsr 7 = phase && (c lsr 3) land 3 = sub then begin
    let v = c land 3 in
    if v < 2 && ((not decided_only) || (c lsr 2) land 1 = 1) then v else -1
  end
  else -1

let flip_value c ~phase ~sub =
  if c >= 0 && c lsr 7 = phase && (c lsr 3) land 3 = sub then
    match (c lsr 5) land 3 with 1 -> 1 | 2 -> -1 | _ -> 0
  else 0

(* Memo lookups and scans are plain loops: a kernel runs once per recv,
   and a closure or a captured ref there is an allocation per call. *)
let rec find_cache entries ~kind ~phase ~sub ~flag =
  match entries with
  | [] -> None
  | e :: rest ->
      if e.ck_kind = kind && e.ck_phase = phase && e.ck_sub = sub && e.ck_flag = flag then Some e
      else find_cache rest ~kind ~phase ~sub ~flag

let remember t ~kind ~phase ~sub ~flag a b =
  t.p_cache <-
    { ck_kind = kind; ck_phase = phase; ck_sub = sub; ck_flag = flag; cr_a = a; cr_b = b }
    :: t.p_cache

(* A solo plane's codes, derived on the fly (oracle and verifier only). *)
let solo_codes t f_data = Array.init (Array.length f_data) (flat_code t)

let vote_scan codes ~lo ~hi ~phase ~sub ~decided_only =
  let c0 = ref 0 and c1 = ref 0 in
  for k = lo to hi - 1 do
    match counted_vote codes.(k) ~phase ~sub ~decided_only with
    | 0 -> incr c0
    | 1 -> incr c1
    | _ -> ()
  done;
  (!c0, !c1)

(* [srcs.(k)] is slot [k]'s sender on a slice; on a flat plane it is [k]. *)
let flip_scan ?srcs codes ~lo ~hi ~phase ~sub ~members =
  let sum = ref 0 in
  for k = lo to hi - 1 do
    let v = match srcs with Some srcs -> srcs.(k) | None -> k in
    if members v then sum := !sum + flip_value codes.(k) ~phase ~sub
  done;
  !sum

let rec vote_counts t ~phase ~sub ~decided_only =
  match t.p_repr with
  | Flat { f_codes = Some codes; f_data; _ } -> (
      let flag = if decided_only then 1 else 0 in
      match find_cache t.p_cache ~kind:0 ~phase ~sub ~flag with
      | Some e -> (e.cr_a, e.cr_b)
      | None ->
          let ((a, b) as r) =
            vote_scan codes ~lo:0 ~hi:(Array.length f_data) ~phase ~sub ~decided_only
          in
          remember t ~kind:0 ~phase ~sub ~flag a b;
          r)
  | Flat { f_codes = None; f_data; _ } ->
      vote_scan (solo_codes t f_data) ~lo:0 ~hi:(Array.length f_data) ~phase ~sub ~decided_only
  | Overlay o ->
      let base = overlay_base o.o_base in
      let b0, b1 = vote_counts base ~phase ~sub ~decided_only in
      let c0 = ref b0 and c1 = ref b1 in
      for k = 0 to o.o_len - 1 do
        (match counted_vote (flat_code base o.o_srcs.(k)) ~phase ~sub ~decided_only with
        | 0 -> decr c0
        | 1 -> decr c1
        | _ -> ());
        match counted_vote o.o_codes.(k) ~phase ~sub ~decided_only with
        | 0 -> incr c0
        | 1 -> incr c1
        | _ -> ()
      done;
      (!c0, !c1)
  | Sparse s ->
      vote_scan (sparse_codes s.sp_codes) ~lo:s.sp_lo ~hi:s.sp_hi ~phase ~sub ~decided_only

let rec signed_sum t ~phase ~sub ~members =
  match t.p_repr with
  | Flat { f_codes = Some codes; f_data; _ } -> (
      match find_cache t.p_cache ~kind:1 ~phase ~sub ~flag:0 with
      | Some e -> e.cr_a
      | None ->
          let sum = flip_scan codes ~lo:0 ~hi:(Array.length f_data) ~phase ~sub ~members in
          remember t ~kind:1 ~phase ~sub ~flag:0 sum 0;
          sum)
  | Flat { f_codes = None; f_data; _ } ->
      flip_scan (solo_codes t f_data) ~lo:0 ~hi:(Array.length f_data) ~phase ~sub ~members
  | Overlay o ->
      let base = overlay_base o.o_base in
      let sum = ref (signed_sum base ~phase ~sub ~members) in
      for k = 0 to o.o_len - 1 do
        let v = o.o_srcs.(k) in
        if members v then
          sum :=
            !sum - flip_value (flat_code base v) ~phase ~sub + flip_value o.o_codes.(k) ~phase ~sub
      done;
      !sum
  | Sparse s ->
      flip_scan ~srcs:s.sp_srcs (sparse_codes s.sp_codes) ~lo:s.sp_lo ~hi:s.sp_hi ~phase ~sub
        ~members
