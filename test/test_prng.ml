(* PRNG substrate: determinism, stream independence, sampling correctness. *)

let check = Alcotest.check

let test_splitmix_deterministic () =
  let a = Ba_prng.Splitmix64.create 1L and b = Ba_prng.Splitmix64.create 1L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Ba_prng.Splitmix64.next a) (Ba_prng.Splitmix64.next b)
  done

let test_splitmix_mix_bijective_samples () =
  (* mix is a bijection; distinct inputs must give distinct outputs. *)
  let seen = Hashtbl.create 64 in
  for i = 0 to 1000 do
    let v = Ba_prng.Splitmix64.mix (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let test_splitmix_split_independent () =
  let g = Ba_prng.Splitmix64.create 7L in
  let child = Ba_prng.Splitmix64.split g in
  let a = Ba_prng.Splitmix64.next g and b = Ba_prng.Splitmix64.next child in
  Alcotest.(check bool) "parent and child differ" true (a <> b)

let test_xoshiro_deterministic () =
  let a = Ba_prng.Xoshiro256.create 99L and b = Ba_prng.Xoshiro256.create 99L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Ba_prng.Xoshiro256.next a) (Ba_prng.Xoshiro256.next b)
  done

(* Known-answer streams, recorded from the record-of-int64 generator before
   the state moved into an unboxed byte buffer: any change of representation
   must reproduce them exactly (comparing two generators with each other, as
   above, cannot catch a changed stream). *)
let test_xoshiro_known_answers () =
  let g = Ba_prng.Xoshiro256.create 99L in
  List.iter
    (fun expected ->
      check Alcotest.int64 "xoshiro256 seed 99" expected (Ba_prng.Xoshiro256.next g))
    [ 3203889483597872772L; -3691788902201691642L; 9015637045045855940L ];
  let j = Ba_prng.Xoshiro256.create 3L in
  Ba_prng.Xoshiro256.jump j;
  List.iter
    (fun expected ->
      check Alcotest.int64 "xoshiro256 seed 3 after jump" expected (Ba_prng.Xoshiro256.next j))
    [ 8444771174008061768L; -2503296496777233976L ]

let test_rng_known_answers () =
  let g = Ba_prng.Rng.create 2026L in
  check Alcotest.int64 "bits64 #1" 7876778575317408663L (Ba_prng.Rng.bits64 g);
  check Alcotest.int64 "bits64 #2" (-7118796514580383833L) (Ba_prng.Rng.bits64 g);
  Alcotest.(check int) "int 1000" 926 (Ba_prng.Rng.int g 1000)

let test_xoshiro_jump_disjoint () =
  let a = Ba_prng.Xoshiro256.create 3L in
  let b = Ba_prng.Xoshiro256.copy a in
  Ba_prng.Xoshiro256.jump b;
  let seen = Hashtbl.create 512 in
  for _ = 1 to 256 do
    Hashtbl.add seen (Ba_prng.Xoshiro256.next a) ()
  done;
  let collisions = ref 0 in
  for _ = 1 to 256 do
    if Hashtbl.mem seen (Ba_prng.Xoshiro256.next b) then incr collisions
  done;
  Alcotest.(check int) "jumped stream does not overlap" 0 !collisions

let test_rng_copy_same_stream () =
  let a = Ba_prng.Rng.create 5L in
  ignore (Ba_prng.Rng.bits64 a);
  let b = Ba_prng.Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copies agree" (Ba_prng.Rng.bits64 a) (Ba_prng.Rng.bits64 b)
  done

let test_int_bounds () =
  let g = Ba_prng.Rng.create 11L in
  for _ = 1 to 10000 do
    let v = Ba_prng.Rng.int g 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Ba_prng.Rng.int g 0))

let test_int_uniform_chi2 () =
  (* Chi-squared sanity on 8 buckets: statistic should be far below the
     p=1e-6 tail (~44 for 7 dof). *)
  let g = Ba_prng.Rng.create 13L in
  let buckets = Array.make 8 0 in
  let n = 80000 in
  for _ = 1 to n do
    let v = Ba_prng.Rng.int g 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int n /. 8. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f < 44" chi2) true (chi2 < 44.)

let test_float_range () =
  let g = Ba_prng.Rng.create 17L in
  for _ = 1 to 10000 do
    let v = Ba_prng.Rng.float g in
    Alcotest.(check bool) "0 <= v < 1" true (v >= 0. && v < 1.)
  done

let test_sign_balance () =
  let g = Ba_prng.Rng.create 19L in
  let pos = ref 0 in
  let n = 100000 in
  for _ = 1 to n do
    if Ba_prng.Rng.sign g = 1 then incr pos
  done;
  let p = float_of_int !pos /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "p=%f near 1/2" p) true (p > 0.49 && p < 0.51)

let test_int_in_range () =
  let g = Ba_prng.Rng.create 23L in
  for _ = 1 to 1000 do
    let v = Ba_prng.Rng.int_in_range g ~lo:(-3) ~hi:3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_shuffle_is_permutation () =
  let g = Ba_prng.Rng.create 29L in
  let a = Array.init 100 Fun.id in
  Ba_prng.Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_sample_without_replacement () =
  let g = Ba_prng.Rng.create 31L in
  for _ = 1 to 200 do
    let k = Ba_prng.Rng.int g 20 in
    let s = Ba_prng.Rng.sample_without_replacement g ~k ~n:20 in
    Alcotest.(check int) "size k" k (Array.length s);
    let distinct = List.sort_uniq compare (Array.to_list s) in
    Alcotest.(check int) "distinct" k (List.length distinct);
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20)) s
  done

let test_sample_covers_all () =
  let g = Ba_prng.Rng.create 37L in
  let s = Ba_prng.Rng.sample_without_replacement g ~k:10 ~n:10 in
  Alcotest.(check (array int)) "k = n returns everything" (Array.init 10 Fun.id) s

let test_binomial_geometric () =
  let g = Ba_prng.Rng.create 41L in
  let s = Ba_stats.Summary.create () in
  for _ = 1 to 20000 do
    Ba_stats.Summary.add_int s (Ba_prng.Rng.binomial g ~n:10 ~p:0.3)
  done;
  let m = Ba_stats.Summary.mean s in
  Alcotest.(check bool) (Printf.sprintf "binomial mean %f ~ 3" m) true (m > 2.85 && m < 3.15);
  let sg = Ba_stats.Summary.create () in
  for _ = 1 to 20000 do
    Ba_stats.Summary.add_int sg (Ba_prng.Rng.geometric g 0.25)
  done;
  let mg = Ba_stats.Summary.mean sg in
  (* failures before success: mean (1-p)/p = 3 *)
  Alcotest.(check bool) (Printf.sprintf "geometric mean %f ~ 3" mg) true (mg > 2.8 && mg < 3.2)

let prop_split_streams_differ =
  QCheck.Test.make ~name:"split streams decorrelated" ~count:200 QCheck.int64 (fun seed ->
      let g = Ba_prng.Rng.create seed in
      let c1 = Ba_prng.Rng.split g in
      let c2 = Ba_prng.Rng.split g in
      Ba_prng.Rng.bits64 c1 <> Ba_prng.Rng.bits64 c2)

let prop_int_in_bound =
  QCheck.Test.make ~name:"int always within bound" ~count:1000
    QCheck.(pair int64 (int_range 1 1000000))
    (fun (seed, bound) ->
      let g = Ba_prng.Rng.create seed in
      let v = Ba_prng.Rng.int g bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "ba_prng"
    [ ("splitmix64",
       [ Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
         Alcotest.test_case "mix has no collisions" `Quick test_splitmix_mix_bijective_samples;
         Alcotest.test_case "split independent" `Quick test_splitmix_split_independent ]);
      ("xoshiro256",
       [ Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
         Alcotest.test_case "known answers" `Quick test_xoshiro_known_answers;
         Alcotest.test_case "jump is disjoint" `Quick test_xoshiro_jump_disjoint ]);
      ("rng",
       [ Alcotest.test_case "known answers" `Quick test_rng_known_answers;
         Alcotest.test_case "copy preserves stream" `Quick test_rng_copy_same_stream;
         Alcotest.test_case "int bounds" `Quick test_int_bounds;
         Alcotest.test_case "int uniform (chi2)" `Quick test_int_uniform_chi2;
         Alcotest.test_case "float range" `Quick test_float_range;
         Alcotest.test_case "sign balance" `Quick test_sign_balance;
         Alcotest.test_case "int_in_range" `Quick test_int_in_range;
         Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
         Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
         Alcotest.test_case "sample covers all" `Quick test_sample_covers_all;
         Alcotest.test_case "binomial/geometric means" `Quick test_binomial_geometric ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_split_streams_differ;
         QCheck_alcotest.to_alcotest prop_int_in_bound ]) ]
