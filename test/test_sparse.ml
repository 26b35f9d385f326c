(* Sparse message plane (DESIGN.md §13): packed-code boundary pinning for
   the tally kernels (satellite of the topology refactor — the sentinel and
   bit-layout contracts the engine and sparse slices both rely on), sparse
   slices vs dense references, topology determinism, and the sampled
   protocol family (ks-sample / word-budget) end to end. *)

module Plane = Ba_sim.Plane
module Topology = Ba_sim.Topology
module Ks = Ba_sparse.Ks_agreement
module Wb = Ba_sparse.Word_budget

(* ---------------- packed-code boundaries ---------------- *)

let test_code_sentinels () =
  Alcotest.(check int) "absent is -1" (-1) Plane.absent;
  Alcotest.(check int) "opaque is -2" (-2) Plane.opaque;
  Alcotest.(check bool) "sentinels distinct" true (Plane.absent <> Plane.opaque);
  let c = Plane.code ~phase:0 ~sub:0 ~decided:false ~vote:0 ~flip:None in
  Alcotest.(check int) "all-zero header packs to 0" 0 c;
  Alcotest.(check bool) "real codes are non-negative" true
    (Plane.code ~phase:3 ~sub:2 ~decided:true ~vote:1 ~flip:(Some (-1)) >= 0)

let test_code_phase_boundary () =
  (* The phase field is 44 bits; 2^44 is the last accepted value and
     anything beyond (or negative) must pack as opaque, never wrap into a
     matchable code. *)
  let max_phase = 1 lsl 44 in
  Alcotest.(check bool) "phase 2^44 still encodes" true
    (Plane.code ~phase:max_phase ~sub:0 ~decided:false ~vote:0 ~flip:None >= 0);
  Alcotest.(check int) "phase 2^44 + 1 is opaque" Plane.opaque
    (Plane.code ~phase:(max_phase + 1) ~sub:0 ~decided:false ~vote:0 ~flip:None);
  Alcotest.(check int) "negative phase is opaque" Plane.opaque
    (Plane.code ~phase:(-1) ~sub:0 ~decided:false ~vote:0 ~flip:None);
  Alcotest.(check int) "max_int phase is opaque" Plane.opaque
    (Plane.code ~phase:max_int ~sub:0 ~decided:false ~vote:0 ~flip:None)

let test_code_sub_raises () =
  List.iter
    (fun sub ->
      Alcotest.check_raises
        (Printf.sprintf "sub %d rejected" sub)
        (Invalid_argument "Plane.code: sub out of range")
        (fun () ->
          ignore (Plane.code ~phase:0 ~sub ~decided:false ~vote:0 ~flip:None)))
    [ -1; 4; 100 ]

let test_code_normalization () =
  (* Non-binary votes and invalid flips normalize to "not countable" /
     "no flip" rather than corrupting neighbouring fields. *)
  let base ~vote ~flip = Plane.code ~phase:5 ~sub:1 ~decided:true ~vote ~flip in
  List.iter
    (fun vote ->
      Alcotest.(check int)
        (Printf.sprintf "vote %d packs as not-countable (2)" vote)
        2
        (base ~vote ~flip:None land 3))
    [ -1; 2; 7; max_int ];
  List.iter
    (fun flip ->
      Alcotest.(check int)
        "invalid flip packs as none" 0
        ((base ~vote:0 ~flip lsr 5) land 3))
    [ Some 0; Some 2; Some (-2); Some max_int ];
  Alcotest.(check int) "flip +1" 1 ((base ~vote:0 ~flip:(Some 1) lsr 5) land 3);
  Alcotest.(check int) "flip -1" 2 ((base ~vote:0 ~flip:(Some (-1)) lsr 5) land 3)

(* A tiny raw-header message type so planes can carry adversarial codes
   (including values that pack to opaque) without skeleton baggage. *)
type hdr = { h_phase : int; h_vote : int; h_decided : bool; h_flip : int option }

let hdr_code h =
  Plane.code ~phase:h.h_phase ~sub:0 ~decided:h.h_decided ~vote:h.h_vote ~flip:h.h_flip

let test_kernels_skip_sentinels () =
  (* An inbox mixing countable votes, garbage votes, and an out-of-range
     (opaque) phase: the kernels must count exactly the well-formed slots —
     on the flat plane and on a sparse slice built from the same codes. *)
  let msgs =
    [| Some { h_phase = 1; h_vote = 0; h_decided = false; h_flip = Some 1 };
       Some { h_phase = 1; h_vote = 1; h_decided = true; h_flip = Some (-1) };
       Some { h_phase = (1 lsl 44) + 7; h_vote = 1; h_decided = true; h_flip = Some 1 };
       None;
       Some { h_phase = 1; h_vote = 7; h_decided = true; h_flip = Some 5 };
       Some { h_phase = 2; h_vote = 1; h_decided = false; h_flip = Some 1 };
       Some { h_phase = 1; h_vote = 0; h_decided = true; h_flip = None } |]
  in
  let check label plane =
    Alcotest.(check (pair int int))
      (label ^ ": phase-1 votes") (2, 1)
      (Plane.vote_counts plane ~phase:1 ~sub:0 ~decided_only:false);
    Alcotest.(check (pair int int))
      (label ^ ": phase-1 decided votes") (1, 1)
      (Plane.vote_counts plane ~phase:1 ~sub:0 ~decided_only:true);
    Alcotest.(check (pair int int))
      (label ^ ": phase-2 votes") (0, 1)
      (Plane.vote_counts plane ~phase:2 ~sub:0 ~decided_only:false);
    (* opaque phase can never match any queried phase *)
    Alcotest.(check (pair int int))
      (label ^ ": opaque never matches") (0, 0)
      (Plane.vote_counts plane ~phase:(1 lsl 44) ~sub:0 ~decided_only:false);
    Alcotest.(check int)
      (label ^ ": signed sum skips invalid flips") 0
      (Plane.signed_sum plane ~phase:1 ~sub:0 ~members:(fun _ -> true))
  in
  check "flat" (Plane.of_array ~encode:hdr_code msgs);
  let slab = Array.make (Array.length msgs) Plane.absent in
  let shared = Plane.shared ~encode:hdr_code ~slab msgs in
  check "shared" shared;
  check "shard view" (Plane.shard_view shared);
  (* the same deliveries as a sparse slice (delivered slots only) *)
  let delivered =
    Array.of_list
      (List.filteri (fun i _ -> msgs.(i) <> None) (Array.to_list (Array.init 7 Fun.id)))
  in
  let srcs = delivered in
  let sliced = Array.map (fun v -> msgs.(v)) srcs in
  let codes =
    Array.map (fun m -> match m with Some h -> hdr_code h | None -> Plane.absent) sliced
  in
  check "sparse slice"
    (Plane.sparse_slice ~codes ~n:7 ~srcs ~msgs:sliced ~lo:0 ~hi:(Array.length srcs) ())

(* ---------------- sparse slices vs dense reference ---------------- *)

let random_hdr rng =
  { h_phase =
      (match Ba_prng.Rng.int rng 8 with
      | 0 -> (1 lsl 44) + Ba_prng.Rng.int rng 3
      | _ -> Ba_prng.Rng.int rng 4);
    h_vote = (match Ba_prng.Rng.int rng 4 with 0 -> -1 | 1 -> 0 | 2 -> 1 | _ -> 7);
    h_decided = Ba_prng.Rng.bool rng;
    h_flip =
      (match Ba_prng.Rng.int rng 4 with
      | 0 -> None
      | 1 -> Some 1
      | 2 -> Some (-1)
      | _ -> Some 3) }

let test_slice_matches_dense_reference () =
  let rng = Ba_prng.Rng.create 0x5Fa55EL in
  for _trial = 1 to 40 do
    let n = 2 + Ba_prng.Rng.int rng 40 in
    (* random delivered subset, ascending *)
    let delivered = Array.init n (fun _ -> Ba_prng.Rng.int rng 3 > 0) in
    let srcs =
      Array.of_list
        (List.filter (fun v -> delivered.(v)) (List.init n Fun.id))
    in
    let msgs = Array.map (fun _ -> Some (random_hdr rng)) srcs in
    let codes =
      Array.map (function Some h -> hdr_code h | None -> Plane.absent) msgs
    in
    let slice =
      Plane.sparse_slice ~codes ~n ~srcs ~msgs ~lo:0 ~hi:(Array.length srcs) ()
    in
    (* dense reference: same deliveries in an n-slot array *)
    let full = Array.make n None in
    Array.iteri (fun k v -> full.(v) <- msgs.(k)) srcs;
    let dense = Plane.of_array ~encode:hdr_code full in
    Alcotest.(check int) "length is n" n (Plane.length slice);
    for v = 0 to n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "get %d agrees" v)
        true
        (Plane.get slice v = Plane.get dense v)
    done;
    for phase = 0 to 3 do
      List.iter
        (fun decided_only ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "vote_counts phase=%d decided=%b" phase decided_only)
            (Plane.vote_counts dense ~phase ~sub:0 ~decided_only)
            (Plane.vote_counts slice ~phase ~sub:0 ~decided_only))
        [ false; true ];
      let members v = v mod 3 <> 1 in
      Alcotest.(check int)
        (Printf.sprintf "signed_sum phase=%d" phase)
        (Plane.signed_sum dense ~phase ~sub:0 ~members)
        (Plane.signed_sum slice ~phase ~sub:0 ~members)
    done;
    (* iteri on a slice visits exactly the delivered slots, ascending *)
    let visited = ref [] in
    Plane.iteri (fun v m -> visited := (v, m <> None) :: !visited) slice;
    let visited = List.rev !visited in
    Alcotest.(check (list (pair int bool)))
      "iteri visits delivered slots ascending"
      (Array.to_list (Array.map (fun v -> (v, true)) srcs))
      visited;
    Alcotest.(check bool)
      "to_array equals dense layout" true
      (Plane.to_array slice = full)
  done

let test_slice_validation () =
  let srcs = [| 1; 3 |] in
  let msgs = [| Some 0; Some 1 |] in
  let ok ~lo ~hi = Plane.sparse_slice ~n:5 ~srcs ~msgs ~lo ~hi () in
  ignore (ok ~lo:0 ~hi:2);
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool)
        (Printf.sprintf "bounds lo=%d hi=%d rejected" lo hi)
        true
        (try
           ignore (ok ~lo ~hi);
           false
         with Invalid_argument _ -> true))
    [ (-1, 2); (0, 3); (2, 1) ];
  Alcotest.(check bool) "mismatched arrays rejected" true
    (try
       ignore (Plane.sparse_slice ~n:5 ~srcs ~msgs:[| Some 0 |] ~lo:0 ~hi:2 ());
       false
     with Invalid_argument _ -> true)

(* ---------------- topology ---------------- *)

let test_topology_recipients () =
  let n = 40 in
  let dense = Topology.instantiate Topology.Dense ~n ~seed:9L in
  let all_but v = List.filter (fun u -> u <> v) (List.init n Fun.id) in
  Alcotest.(check (list int))
    "dense reaches all others" (all_but 7)
    (Array.to_list (Topology.recipients dense ~round:1 ~src:7));
  let degree = 6 in
  let sampled = Topology.instantiate (Topology.Sampled { degree }) ~n ~seed:9L in
  for round = 1 to 5 do
    for src = 0 to n - 1 do
      let r = Topology.recipients sampled ~round ~src in
      Alcotest.(check int) "sampled degree" degree (Array.length r);
      let l = Array.to_list r in
      Alcotest.(check (list int)) "sorted distinct" (List.sort_uniq compare l) l;
      Alcotest.(check bool) "never self" false (List.mem src l);
      List.iter (fun u -> Alcotest.(check bool) "in range" true (u >= 0 && u < n)) l
    done
  done;
  (* pure function of (seed, round, src) *)
  let again = Topology.instantiate (Topology.Sampled { degree }) ~n ~seed:9L in
  Alcotest.(check (list int)) "deterministic in (seed, round, src)"
    (Array.to_list (Topology.recipients sampled ~round:3 ~src:11))
    (Array.to_list (Topology.recipients again ~round:3 ~src:11));
  let other_seed = Topology.instantiate (Topology.Sampled { degree }) ~n ~seed:10L in
  Alcotest.(check bool) "seed changes samples" true
    (List.exists
       (fun round ->
         Topology.recipients sampled ~round ~src:11
         <> Topology.recipients other_seed ~round ~src:11)
       [ 1; 2; 3; 4; 5 ])

(* Pinned on the list-and-hashtable sampler this one replaced. *)
let test_topology_known_answer () =
  let ti = Topology.instantiate (Topology.Sampled { degree = 64 }) ~n:4096 ~seed:1L in
  let r = Topology.recipients ti ~round:3 ~src:11 in
  Alcotest.(check (list int)) "first five" [ 136; 137; 166; 192; 247 ]
    (Array.to_list (Array.sub r 0 5));
  Alcotest.(check int) "recipient sum" 138027 (Array.fold_left ( + ) 0 r)

(* The sampler as it stood before the buffer-filling rewrite, kept as the
   reference: a fresh array per call, linear-scan membership for
   k <= 16, a Hashtbl above, a partial Fisher-Yates when near-dense, and
   polymorphic sorts. The salt derivation mirrors [Topology.instantiate]. *)
module Old_sampler = struct
  let mix = Ba_prng.Splitmix64.mix

  let sample_distinct rng ~k ~bound ~skip =
    if k = 0 then [||]
    else if 2 * k >= bound - 1 then begin
      let all = Array.make (bound - 1) 0 in
      let idx = ref 0 in
      for v = 0 to bound - 1 do
        if v <> skip then begin
          all.(!idx) <- v;
          incr idx
        end
      done;
      for i = 0 to k - 1 do
        let j = i + Ba_prng.Rng.int rng (bound - 1 - i) in
        let tmp = all.(i) in
        all.(i) <- all.(j);
        all.(j) <- tmp
      done;
      let out = Array.sub all 0 k in
      Array.sort compare out;
      out
    end
    else begin
      let out = Array.make k 0 in
      let filled = ref 0 in
      let seen = if k > 16 then Some (Hashtbl.create (4 * k)) else None in
      while !filled < k do
        let raw = Ba_prng.Rng.int rng (bound - 1) in
        let x = if raw >= skip then raw + 1 else raw in
        let dup =
          match seen with
          | Some h -> Hashtbl.mem h x
          | None -> Array.exists (fun y -> y = x) (Array.sub out 0 !filled)
        in
        if not dup then begin
          (match seen with Some h -> Hashtbl.add h x () | None -> ());
          out.(!filled) <- x;
          incr filled
        end
      done;
      Array.sort compare out;
      out
    end

  let recipients plan ~n ~seed ~round ~src =
    match plan with
    | Topology.Dense -> Array.init (n - 1) (fun i -> if i >= src then i + 1 else i)
    | Topology.Sampled { degree } ->
        let salt = mix (Int64.add (mix seed) 0x70B0_106FL) in
        let h = mix (Int64.add salt (Int64.of_int round)) in
        let rng = Ba_prng.Rng.create (mix (Int64.add h (Int64.of_int src))) in
        sample_distinct rng ~k:(min degree (n - 1)) ~bound:n ~skip:src
    | Topology.Committees { count } ->
        let mine = src mod count and tgt = (round - 1) mod count in
        Array.of_list
          (List.filter
             (fun u -> u <> src && (u mod count = mine || u mod count = tgt))
             (List.init n Fun.id))
end

(* Every sampler branch against the old sampler: k <= 16 (old linear scan),
   k > 16 (old Hashtbl), near-dense Fisher-Yates, Dense and Committees.
   [recipients_into] is also checked at an offset inside a larger buffer,
   leaving the slots around its window untouched. *)
let test_sampler_matches_old () =
  let cases =
    [ ("k<=16", Topology.Sampled { degree = 6 }, 40);
      ("k=16", Topology.Sampled { degree = 16 }, 100);
      ("k>16", Topology.Sampled { degree = 20 }, 200);
      ("k>16 large n", Topology.Sampled { degree = 64 }, 4096);
      ("near-dense", Topology.Sampled { degree = 30 }, 40);
      ("half", Topology.Sampled { degree = 20 }, 41);
      ("full degree", Topology.Sampled { degree = 39 }, 40);
      ("dense", Topology.Dense, 40);
      ("committees-1", Topology.Committees { count = 1 }, 33);
      ("committees-4", Topology.Committees { count = 4 }, 37);
      ("committees-n", Topology.Committees { count = 37 }, 37) ]
  in
  List.iter
    (fun (label, plan, n) ->
      List.iter
        (fun seed ->
          let ti = Topology.instantiate plan ~n ~seed in
          let bound = Topology.degree_bound ti in
          let buf = Array.make (bound + 7) (-5) in
          for round = 1 to 4 do
            for src = 0 to min (n - 1) 63 do
              let expected = Old_sampler.recipients plan ~n ~seed ~round ~src in
              let what = Printf.sprintf "%s seed %Ld round %d src %d" label seed round src in
              Alcotest.(check (array int)) what expected (Topology.recipients ti ~round ~src);
              Array.fill buf 0 (Array.length buf) (-5);
              let k = Topology.recipients_into ti ~round ~src buf ~pos:3 in
              Alcotest.(check (array int)) (what ^ " (into)") expected (Array.sub buf 3 k);
              Alcotest.(check bool) (what ^ " window") true
                (Array.for_all (( = ) (-5)) (Array.sub buf 0 3)
                && Array.for_all (( = ) (-5)) (Array.sub buf (3 + k) (Array.length buf - 3 - k)))
            done
          done)
        [ 1L; 9L; 2026L ])
    cases;
  let ti = Topology.instantiate (Topology.Sampled { degree = 6 }) ~n:40 ~seed:1L in
  Alcotest.(check bool) "short buffer rejected" true
    (try
       ignore (Topology.recipients_into ti ~round:1 ~src:0 (Array.make 8 0) ~pos:3 : int);
       false
     with Invalid_argument _ -> true)

(* The engine sizes its per-round CSR buffers by [degree_bound], so no
   recipient set may ever exceed it. *)
let prop_degree_bound =
  QCheck.Test.make ~name:"recipient sets never exceed degree_bound" ~count:300
    QCheck.(quad (int_range 2 90) (int_range 0 1000) (int_range 1 50) int64)
    (fun (n, knob, round, seed) ->
      let plan =
        match knob mod 3 with
        | 0 -> Topology.Dense
        | 1 -> Topology.Sampled { degree = 1 + (knob mod (n - 1)) }
        | _ -> Topology.Committees { count = 1 + (knob mod n) }
      in
      let ti = Topology.instantiate plan ~n ~seed in
      List.for_all
        (fun src -> Array.length (Topology.recipients ti ~round ~src) <= Topology.degree_bound ti)
        (List.init n Fun.id))

let test_topology_validate () =
  List.iter
    (fun (plan, n) ->
      Alcotest.(check bool) "invalid plan rejected" true
        (try
           Topology.validate plan ~n;
           false
         with Invalid_argument _ -> true))
    [ (Topology.Sampled { degree = 0 }, 8);
      (Topology.Sampled { degree = 8 }, 8);
      (Topology.Committees { count = 0 }, 8);
      (Topology.Committees { count = 9 }, 8) ]

(* ---------------- sampled engine determinism ---------------- *)

let exec_setup run ~domains ~inputs ~seed =
  run.Ba_experiments.Setups.exec ~domains ~record:true ~inputs ~seed ()

let sparse_case ~protocol ~adversary ~faults ~n ~t ~seed label =
  let open Ba_experiments.Setups in
  let run =
    match faults with
    | None -> make ~protocol ~adversary ~n ~t
    | Some faults -> make_faulty ~faults ~protocol ~adversary ~n ~t
  in
  let inputs = inputs Split ~n ~t in
  let base = exec_setup run ~domains:1 ~inputs ~seed in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical outcome at domains=%d" label domains)
        true
        (base = exec_setup run ~domains ~inputs ~seed))
    [ 2; 4 ]

let test_sampled_engine_across_domains () =
  let open Ba_experiments.Setups in
  (* n deliberately not a multiple of the domain counts *)
  sparse_case ~protocol:(Ks_sample { degree = 5 }) ~adversary:Silent ~faults:None
    ~n:37 ~t:0 ~seed:51L "ks-sample/silent";
  sparse_case ~protocol:(Ks_sample { degree = 5 }) ~adversary:Static_crash
    ~faults:None ~n:37 ~t:4 ~seed:52L "ks-sample/static-crash";
  sparse_case ~protocol:(Word_budget { degree = 5 }) ~adversary:Silent ~faults:None
    ~n:37 ~t:0 ~seed:53L "word-budget/silent";
  let faults = { no_faults with fs_drop = 0.08; fs_duplicate = 0.05 } in
  sparse_case ~protocol:(Ks_sample { degree = 5 }) ~adversary:Silent
    ~faults:(Some faults) ~n:37 ~t:0 ~seed:54L "ks-sample/faulty-links"

(* ---------------- protocol family ---------------- *)

let run_once ~protocol ~n ~t ~pattern ~seed =
  let open Ba_experiments.Setups in
  let run = make ~protocol ~adversary:Silent ~n ~t in
  let inputs = inputs pattern ~n ~t in
  run.exec ~record:false ~inputs ~seed ()

let test_ks_validity_unanimous () =
  List.iter
    (fun b ->
      let o =
        run_once ~protocol:(Ba_experiments.Setups.Ks_sample { degree = 0 }) ~n:64 ~t:0
          ~pattern:(Ba_experiments.Setups.Unanimous b) ~seed:77L
      in
      Alcotest.(check bool) "completed" true o.Ba_sim.Run.completed;
      Array.iter
        (fun out -> Alcotest.(check (option int)) "unanimous output" (Some b) out)
        o.outputs)
    [ 0; 1 ]

let test_ks_agreement_over_seeds () =
  for seed = 1 to 15 do
    List.iter
      (fun protocol ->
        let o =
          run_once ~protocol ~n:64 ~t:0 ~pattern:Ba_experiments.Setups.Split
            ~seed:(Int64.of_int seed)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d completed" o.Ba_sim.Run.protocol_name seed)
          true o.completed;
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d agreement" o.protocol_name seed)
          true
          (Ba_sim.Run.agreement_holds o))
      [ Ba_experiments.Setups.Ks_sample { degree = 0 };
        Ba_experiments.Setups.Word_budget { degree = 0 } ]
  done

let test_word_budget_saves_words () =
  (* The whole point of the variant: same dynamics, fewer metered words on
     the same sampled plane. Compare totals across a few seeds so one lucky
     early decision can't flip the check. *)
  let total protocol =
    List.fold_left
      (fun acc seed ->
        let o =
          run_once ~protocol ~n:128 ~t:0 ~pattern:Ba_experiments.Setups.Split
            ~seed:(Int64.of_int seed)
        in
        acc + Ba_sim.Metrics.words o.Ba_sim.Run.metrics)
      0 [ 1; 2; 3; 4; 5 ]
  in
  let ks = total (Ba_experiments.Setups.Ks_sample { degree = 11 }) in
  let wb = total (Ba_experiments.Setups.Word_budget { degree = 11 }) in
  Alcotest.(check bool)
    (Printf.sprintf "word-budget words (%d) < ks-sample words (%d)" wb ks)
    true (wb < ks)

let test_word_budget_speaks () =
  let quiet =
    { Wb.w_ks = Ks.init_state 0; w_changed = false }
  in
  let changed = { quiet with Wb.w_changed = true } in
  let deciding =
    { quiet with
      Wb.w_ks = { quiet.Wb.w_ks with Ks.s_countdown = Some 2 } }
  in
  Alcotest.(check bool) "round 1 always speaks" true
    (Wb.speaks ~heartbeat:4 quiet ~round:1);
  Alcotest.(check bool) "round 2 always speaks" true
    (Wb.speaks ~heartbeat:4 quiet ~round:2);
  Alcotest.(check bool) "mid-window unchanged is silent" false
    (Wb.speaks ~heartbeat:4 quiet ~round:4);
  Alcotest.(check bool) "heartbeat round speaks" true
    (Wb.speaks ~heartbeat:4 quiet ~round:5);
  Alcotest.(check bool) "changed speaks anywhere" true
    (Wb.speaks ~heartbeat:4 changed ~round:4);
  Alcotest.(check bool) "countdown speaks anywhere" true
    (Wb.speaks ~heartbeat:4 deciding ~round:4)

let test_make_validation () =
  let raises label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "ks: n < 2" (fun () -> Ks.make ~n:1 ~t:0 ());
  raises "ks: degree 0" (fun () -> Ks.make ~degree:0 ~n:8 ~t:0 ());
  raises "ks: degree n" (fun () -> Ks.make ~degree:8 ~n:8 ~t:0 ());
  raises "ks: decide_streak 0" (fun () -> Ks.make ~decide_streak:0 ~n:8 ~t:0 ());
  raises "wb: heartbeat 0" (fun () -> Wb.make ~heartbeat:0 ~n:8 ~t:0 ());
  raises "wb: degree n" (fun () -> Wb.make ~degree:8 ~n:8 ~t:0 ());
  Alcotest.(check int) "default degree is isqrt" 8 (Ks.default_degree ~n:64);
  Alcotest.(check int) "default degree rounds down" 2 (Ks.default_degree ~n:4);
  Alcotest.(check int) "default degree clamps at n-1" 1 (Ks.default_degree ~n:2)

let () =
  Alcotest.run "ba_sparse"
    [ ( "packed codes",
        [ Alcotest.test_case "sentinels" `Quick test_code_sentinels;
          Alcotest.test_case "phase boundary" `Quick test_code_phase_boundary;
          Alcotest.test_case "sub range raises" `Quick test_code_sub_raises;
          Alcotest.test_case "vote/flip normalization" `Quick test_code_normalization;
          Alcotest.test_case "kernels skip sentinels on every repr" `Quick
            test_kernels_skip_sentinels ] );
      ( "sparse slices",
        [ Alcotest.test_case "slice kernels match dense reference" `Quick
            test_slice_matches_dense_reference;
          Alcotest.test_case "slice validation" `Quick test_slice_validation ] );
      ( "topology",
        [ Alcotest.test_case "recipient sets" `Quick test_topology_recipients;
          Alcotest.test_case "known answer" `Quick test_topology_known_answer;
          Alcotest.test_case "sampler matches the old sampler" `Quick test_sampler_matches_old;
          QCheck_alcotest.to_alcotest prop_degree_bound;
          Alcotest.test_case "plan validation" `Quick test_topology_validate ] );
      ( "sampled engine",
        [ Alcotest.test_case "outcomes identical at domains 1/2/4" `Quick
            test_sampled_engine_across_domains ] );
      ( "protocols",
        [ Alcotest.test_case "ks validity under unanimity" `Quick
            test_ks_validity_unanimous;
          Alcotest.test_case "agreement across seeds" `Slow test_ks_agreement_over_seeds;
          Alcotest.test_case "word budget saves words" `Quick
            test_word_budget_saves_words;
          Alcotest.test_case "speaks gating" `Quick test_word_budget_speaks;
          Alcotest.test_case "make validation" `Quick test_make_validation ] ) ]
