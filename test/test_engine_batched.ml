(* Batched message-plane (DESIGN.md §10): the tally kernels must agree with
   a naive fold over the decoded messages on adversarial inputs (garbage
   phases, non-binary votes, invalid flips, absent slots), and the engine
   must produce byte-identical outcomes and suite documents at any
   delivery-sharder domain count. *)

open Ba_core

(* ---------------- randomized message material ---------------- *)

let subs = [| Skeleton.R1; Skeleton.R2; Skeleton.RC |]

let random_msg rng =
  let m_phase =
    (* mostly in the queried range, sometimes far outside the 44-bit packing
       range (must behave as opaque, i.e. never match a queried phase) *)
    match Ba_prng.Rng.int rng 8 with
    | 0 -> (1 lsl 50) + Ba_prng.Rng.int rng 3
    | _ -> Ba_prng.Rng.int rng 4
  in
  let m_val =
    match Ba_prng.Rng.int rng 4 with 0 -> -1 | 1 -> 0 | 2 -> 1 | _ -> 7
  in
  let m_flip =
    match Ba_prng.Rng.int rng 4 with
    | 0 -> None
    | 1 -> Some 1
    | 2 -> Some (-1)
    | _ -> Some 3 (* invalid: packs as "no flip" *)
  in
  { Skeleton.m_phase;
    m_sub = subs.(Ba_prng.Rng.int rng 3);
    m_val;
    m_decided = Ba_prng.Rng.bool rng;
    m_flip }

let random_inbox rng n =
  Array.init n (fun _ ->
      if Ba_prng.Rng.int rng 5 = 0 then None else Some (random_msg rng))

(* Naive references: fold over the decoded messages, mirroring the packing
   normalization (only binary votes countable, only +-1 flips summable,
   out-of-range phases can never match an in-range query). *)

let naive_counts data ~phase ~sub ~decided_only =
  Array.fold_left
    (fun (c0, c1) m ->
      match m with
      | Some m
        when m.Skeleton.m_phase = phase && m.m_sub = sub
             && ((not decided_only) || m.m_decided) -> (
          match m.m_val with 0 -> (c0 + 1, c1) | 1 -> (c0, c1 + 1) | _ -> (c0, c1))
      | _ -> (c0, c1))
    (0, 0) data

let naive_signed_sum data ~phase ~sub ~members =
  let acc = ref 0 in
  Array.iteri
    (fun v m ->
      match m with
      | Some m when m.Skeleton.m_phase = phase && m.m_sub = sub && members v -> (
          match m.m_flip with Some ((1 | -1) as f) -> acc := !acc + f | _ -> ())
      | _ -> ())
    data;
  !acc

let sub_index = function Skeleton.R1 -> 0 | Skeleton.R2 -> 1 | Skeleton.RC -> 2

let check_one_inbox data plane =
  for phase = 0 to 3 do
    Array.iter
      (fun sub ->
        let si = sub_index sub in
        List.iter
          (fun decided_only ->
            let c0, c1 =
              Ba_sim.Plane.vote_counts plane ~phase ~sub:si ~decided_only
            in
            let e0, e1 = naive_counts data ~phase ~sub ~decided_only in
            Alcotest.(check (pair int int))
              (Printf.sprintf "vote_counts phase=%d sub=%d decided=%b" phase si
                 decided_only)
              (e0, e1) (c0, c1))
          [ false; true ];
        let members v = v mod 3 = 0 in
        Alcotest.(check int)
          (Printf.sprintf "signed_sum phase=%d sub=%d" phase si)
          (naive_signed_sum data ~phase ~sub ~members)
          (Ba_sim.Plane.signed_sum plane ~phase ~sub:si ~members))
      subs
  done

let test_kernels_vs_naive () =
  let rng = Ba_prng.Rng.create 0xBA7C4EDL in
  let slab = Array.make 64 Ba_sim.Plane.absent in
  for _trial = 1 to 60 do
    let n = 1 + Ba_prng.Rng.int rng 64 in
    let data = random_inbox rng n in
    (* solo plane: codes computed on the fly from the codec *)
    check_one_inbox data
      (Ba_sim.Plane.of_array ~encode:Skeleton.msg_code data);
    (* shared plane: codes packed once into the reused slab *)
    check_one_inbox data
      (Ba_sim.Plane.shared ~encode:Skeleton.msg_code ~slab data)
  done

let test_kernels_memoized_repeat () =
  (* Repeated identical queries hit the memo on shared planes; the answer
     must not change. *)
  let rng = Ba_prng.Rng.create 99L in
  let data = random_inbox rng 48 in
  let slab = Array.make 48 Ba_sim.Plane.absent in
  let plane = Ba_sim.Plane.shared ~encode:Skeleton.msg_code ~slab data in
  let q () = Ba_sim.Plane.vote_counts plane ~phase:1 ~sub:0 ~decided_only:false in
  let first = q () in
  for _ = 1 to 5 do
    Alcotest.(check (pair int int)) "memoized query is stable" first (q ())
  done

(* ---------------- engine determinism across shard counts ---------------- *)

let exec_setup run ~domains ~n ~t ~seed =
  let inputs = Ba_experiments.Setups.inputs Ba_experiments.Setups.Split ~n ~t in
  run.Ba_experiments.Setups.exec ~domains ~record:true ~inputs ~seed ()

let check_outcomes_equal label (a : Ba_sim.Run.outcome) b =
  Alcotest.(check bool) (label ^ ": identical outcome") true (a = b)

let engine_case ~protocol ~adversary ~faults ~n ~t ~seed label =
  let run =
    match faults with
    | None -> Ba_experiments.Setups.make ~protocol ~adversary ~n ~t
    | Some faults ->
        Ba_experiments.Setups.make_faulty ~faults ~protocol ~adversary ~n ~t
  in
  let base = exec_setup run ~domains:1 ~n ~t ~seed in
  List.iter
    (fun domains ->
      check_outcomes_equal
        (Printf.sprintf "%s, domains=%d" label domains)
        base
        (exec_setup run ~domains ~n ~t ~seed))
    [ 2; 4 ]

let test_engine_across_domains () =
  let open Ba_experiments.Setups in
  let alg3 = Alg3 { alpha = 2.0; coin_round = `Piggyback } in
  engine_case ~protocol:alg3 ~adversary:Silent ~faults:None ~n:33 ~t:5
    ~seed:41L "alg3/silent";
  engine_case ~protocol:alg3 ~adversary:Committee_killer ~faults:None ~n:33
    ~t:5 ~seed:42L "alg3/committee-killer";
  engine_case ~protocol:Rabin ~adversary:Silent ~faults:None ~n:25 ~t:2
    ~seed:43L "rabin/silent";
  let faults =
    { no_faults with fs_drop = 0.05; fs_duplicate = 0.05 }
  in
  engine_case ~protocol:alg3 ~adversary:Silent ~faults:(Some faults) ~n:33
    ~t:5 ~seed:44L "alg3/faulty-links"

(* ---------------- suite document byte-equality ---------------- *)

let test_suite_json_across_domains () =
  let registry = Ba_experiments.Experiments.registry in
  let doc ~domains =
    let entries =
      List.map
        (fun id ->
          match Ba_harness.Registry.find registry id with
          | None -> Alcotest.fail (id ^ " not registered")
          | Some d ->
              let r =
                d.Ba_harness.Registry.run ~policy:Ba_harness.Supervisor.default
                  ~domains ~quick:true ~seed:2026L
              in
              (d, r, None))
        [ "E1"; "E18" ]
    in
    Ba_harness.Json.to_string ~pretty:true
      (Ba_harness.Registry.suite_json ~seed:2026L ~profile:"quick" ~entries ())
  in
  let base = doc ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "suite JSON, domains=%d" domains)
        base (doc ~domains))
    [ 2; 4 ]

let () =
  Alcotest.run "engine_batched"
    [ ( "tally kernels",
        [ Alcotest.test_case "kernels vs naive on adversarial inboxes" `Quick
            test_kernels_vs_naive;
          Alcotest.test_case "memoized queries are stable" `Quick
            test_kernels_memoized_repeat ] );
      ( "shard determinism",
        [ Alcotest.test_case "outcomes identical at domains 1/2/4" `Quick
            test_engine_across_domains;
          Alcotest.test_case "suite JSON byte-identical at domains 1/2/4"
            `Slow test_suite_json_across_domains ] ) ]
