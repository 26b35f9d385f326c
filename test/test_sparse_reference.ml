(* Differential test of the engine's delivery arms against a deliberately
   naive per-link reference.

   The engine builds each sampled round as a two-pass CSR inbox over buffers
   reused across rounds (DESIGN.md §13), and each dense round as one shared,
   memoized plane that patched rounds overlay per recipient (DESIGN.md §10);
   it encodes each honest payload once per round and meters honest
   broadcasts in bulk. The reference below keeps none of that. Inside a
   plain round loop it delivers link by link, meters every link on its own,
   and hands each recipient a fresh [Plane.of_array] inbox whose codes are
   derived on the fly: no packed code arrays, no shared plane, no memo, no
   sharding. Its link order is the engine's draw order for [byz_msg] and
   [Faults.deliver]: senders ascending, then recipients ascending, on a
   restricted topology; recipients ascending, then senders ascending, on
   the dense plane. Both must agree on the run outcome, the metrics and
   every recipient's inbox in every round. *)

open Ba_sim
module Ks = Ba_sparse.Ks_agreement
module Wb = Ba_sparse.Word_budget
module Sm = Ba_baselines.Sampling_majority
module Sk = Ba_core.Skeleton
module Pk = Ba_baselines.Phase_king

let reference_run ?faults ~topology ~(protocol : ('s, 'm) Protocol.t)
    ~(adversary : ('s, 'm) Adversary.t) ~n ~t ~inputs ~seed ~max_rounds () =
  let faults =
    match faults with
    | Some plan when not (Faults.is_none plan) -> Some (Faults.instantiate plan ~n ~seed)
    | Some _ | None -> None
  in
  let ti =
    if Topology.is_dense topology then None else Some (Topology.instantiate topology ~n ~seed)
  in
  let node_rngs = Ba_prng.Rng.split_n (Ba_prng.Rng.create seed) n in
  let ctx_of v = { Protocol.n; t; me = v; rng = node_rngs.(v) } in
  let states = Array.init n (fun v -> protocol.init (ctx_of v) ~input:inputs.(v)) in
  let corrupted = Array.make n false and halted = Array.make n false in
  let used = ref 0 in
  let metrics = Metrics.create () in
  let meter p ~byzantine =
    Metrics.record_message metrics ~bits:(protocol.msg_bits p) ~words:(protocol.msg_words p)
      ~byzantine
  in
  let live v = (not corrupted.(v)) && not halted.(v) in
  let finished () = not (List.exists live (List.init n Fun.id)) in
  let round = ref 0 in
  while (not (finished ())) && !round < max_rounds do
    incr round;
    let r = !round in
    Metrics.record_round metrics;
    let honest =
      Array.init n (fun v -> if live v then protocol.send (ctx_of v) states.(v) ~round:r else None)
    in
    Option.iter
      (fun inst ->
        for v = 0 to n - 1 do
          if live v && Option.is_some honest.(v) && Faults.silenced inst ~node:v ~round:r then begin
            honest.(v) <- None;
            Metrics.record_crash_silence metrics
          end
        done)
      faults;
    let action =
      adversary.act
        { Adversary.round = r; n; t; corrupted = Array.copy corrupted; budget_left = t - !used;
          halted = Array.copy halted; honest_msgs = Array.copy honest;
          states = Array.init n (fun v -> if live v then Some states.(v) else None);
          views = Array.init n (fun v -> if live v then protocol.inspect states.(v) else None) }
    in
    List.iter
      (fun v ->
        if v >= 0 && v < n && (not corrupted.(v)) && !used < t then begin
          corrupted.(v) <- true;
          incr used;
          honest.(v) <- None
        end)
      action.corrupt;
    let inboxes = Array.make n [] in
    let link ~src ~dst ~byzantine raw =
      let m =
        match faults with
        | None -> raw
        | Some inst -> Faults.deliver inst ~metrics ~round:r ~src ~dst raw
      in
      Option.iter
        (fun p ->
          meter p ~byzantine;
          inboxes.(dst) <- (src, p) :: inboxes.(dst))
        m
    in
    (match ti with
    | None ->
        (* dense: recipients ascending, then senders ascending; every link
           goes through the fault model, a silent sender's too (a stale
           duplicate may still arrive) *)
        for u = 0 to n - 1 do
          if live u then
            for v = 0 to n - 1 do
              if v = u then Option.iter (fun p -> inboxes.(u) <- (u, p) :: inboxes.(u)) honest.(u)
              else if corrupted.(v) then
                link ~src:v ~dst:u ~byzantine:true (action.byz_msg ~src:v ~dst:u)
              else link ~src:v ~dst:u ~byzantine:false honest.(v)
            done
        done
    | Some ti ->
        (* restricted: senders ascending, then their sampled recipients *)
        for v = 0 to n - 1 do
          let rs = Topology.recipients ti ~round:r ~src:v in
          if corrupted.(v) then
            Array.iter
              (fun u ->
                if live u then link ~src:v ~dst:u ~byzantine:true (action.byz_msg ~src:v ~dst:u))
              rs
          else if live v then
            Option.iter
              (fun p ->
                inboxes.(v) <- (v, p) :: inboxes.(v);
                Array.iter
                  (fun u -> if live u then link ~src:v ~dst:u ~byzantine:false (Some p))
                  rs)
              honest.(v)
        done);
    let next = Array.copy states in
    for u = 0 to n - 1 do
      if live u then begin
        let data = Array.make n None in
        List.iter (fun (s, p) -> data.(s) <- Some p) inboxes.(u);
        next.(u) <-
          protocol.recv (ctx_of u) states.(u) ~round:r
            ~inbox:(Plane.of_array ?encode:protocol.codec data)
      end
    done;
    Array.blit next 0 states 0 n;
    for v = 0 to n - 1 do
      if live v && protocol.halted states.(v) then halted.(v) <- true
    done
  done;
  { Run.protocol_name = protocol.name; adversary_name = adversary.adv_name; n; t;
    inputs = Array.copy inputs; span = Run.Rounds !round; completed = finished ();
    outputs = Array.init n (fun v -> if corrupted.(v) then None else protocol.output states.(v));
    corrupted = Array.copy corrupted; corruptions_used = !used; metrics;
    records = [] }

(* ---------------- inbox logging ---------------- *)

(* What one recipient saw in one round: its delivered (src, payload) pairs
   ascending, as [iteri] and as [get] report them, plus — under a codec —
   the tally kernels' view of the packed codes. *)
type 'm seen = {
  round : int;
  deliveries : (int * 'm) list;
  by_get : (int * 'm) list;
  tallies : ((int * int) * (int * int)) option;
}

(* Wraps [recv] to log every inbox into a per-node list. Each node's slot is
   written only by the domain that runs its recv, once per round. *)
let logged (p : ('s, 'm) Protocol.t) ~n =
  let log = Array.make n [] in
  let recv ctx st ~round ~inbox =
    let deliveries = ref [] in
    Plane.iteri (fun src m -> Option.iter (fun m -> deliveries := (src, m) :: !deliveries) m) inbox;
    let tallies =
      Option.map
        (fun _ ->
          ( Plane.vote_counts inbox ~phase:round ~sub:0 ~decided_only:false,
            Plane.vote_counts inbox ~phase:round ~sub:0 ~decided_only:true ))
        p.codec
    in
    let by_get =
      List.filter_map
        (fun v -> Option.map (fun m -> (v, m)) (Plane.get inbox v))
        (List.init (Plane.length inbox) Fun.id)
    in
    let me = ctx.Protocol.me in
    log.(me) <- { round; deliveries = List.rev !deliveries; by_get; tallies } :: log.(me);
    p.recv ctx st ~round ~inbox
  in
  ({ p with recv }, log)

(* ---------------- the matrix ---------------- *)

let n = 29 (* not a multiple of any shard count *)

let t = 4

let max_rounds = 40

let inputs = Array.init n (fun v -> v mod 2)

(* Corrupts two nodes in round 1 and asks for three more in round 3 (the
   budget clamps that to two), then equivocates per destination with the
   payloads [byz] builds and stays silent on some links. Which links go
   silent depends on how many [byz_msg] calls came before, so the run
   depends on the engine's call order, as a randomized adversary's does. *)
let equivocating byz () : (_, _) Adversary.t =
  let calls = ref 0 in
  { adv_name = "per-destination";
    act =
      (fun view ->
        { Adversary.corrupt =
            (match view.round with 1 -> [ 1; 4 ] | 3 -> [ 7; 2; 9 ] | _ -> []);
          byz_msg =
            (fun ~src ~dst ->
              incr calls;
              if (src + dst + view.round + !calls) mod 5 = 0 then None
              else Some (byz ~round:view.round ~src ~dst)) }) }

let per_destination () =
  equivocating
    (fun ~round ~src ~dst ->
      { Ks.g_round = round; g_val = dst mod 2; g_decided = (src * dst) mod 3 = 0 })
    ()

let flip_ks _rng (m : Ks.msg) = { m with Ks.g_val = 1 - m.Ks.g_val }

let flip_sm _rng = function Sm.Value b -> Sm.Value (1 - b)

let faulty mutate =
  Faults.make ~drop:0.1 ~duplicate:0.08 ~corrupt:0.05 ~mutate
    ~silences:[ { Faults.s_node = 3; s_from = 2; s_until = 4 } ]
    ()

(* Runs every shard count in one order or another: 1 is the engine's own
   sequential sharder, 2 runs its shards in reverse order on the calling
   domain, 4 runs them on real domains. *)
let sharders =
  [ ("1", Engine.sequential);
    ( "2 (reversed)",
      { Engine.s_shards = 2;
        s_run = (fun thunks -> for i = Array.length thunks - 1 downto 0 do thunks.(i) () done) } );
    ("4 (domains)", Ba_harness.Parallel.delivery_sharder ~domains:4) ]

let topologies = [ Topology.Sampled { degree = 5 }; Topology.Committees { count = 4 } ]

let check_case ~label ~protocol ~adversary ~faults ~topology ~seed =
  let ref_p, ref_log = logged protocol ~n in
  let expected =
    reference_run ?faults ~topology ~protocol:ref_p ~adversary:(adversary ()) ~n ~t ~inputs ~seed
      ~max_rounds ()
  in
  List.iter
    (fun (shards, sharder) ->
      let eng_p, eng_log = logged protocol ~n in
      let got =
        Engine.run ~max_rounds ?faults ~sharder ~topology ~protocol:eng_p
          ~adversary:(adversary ()) ~n ~t ~inputs ~seed ()
      in
      let what =
        Printf.sprintf "%s, %s, seed %Ld, shards %s" label (Topology.plan_name topology) seed shards
      in
      Alcotest.(check bool) (what ^ ": metrics") true (expected.metrics = got.metrics);
      Alcotest.(check bool) (what ^ ": outcome") true (expected = got);
      for v = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: node %d inboxes" what v)
          true
          (ref_log.(v) = eng_log.(v))
      done)
    sharders

let seeds = [ 3L; 2026L ]

let test_ks () =
  List.iter
    (fun topology ->
      List.iter
        (fun seed ->
          let protocol = (Ks.make ~degree:5 ~n ~t ()).protocol in
          List.iter
            (fun (label, adversary, faults) ->
              check_case ~label:("ks-sample " ^ label) ~protocol ~adversary ~faults ~topology ~seed)
            [ ("silent", (fun () -> Adversary.silent), None);
              ("per-destination", per_destination, None);
              ("silent faulty", (fun () -> Adversary.silent), Some (faulty flip_ks));
              ("per-destination faulty", per_destination, Some (faulty flip_ks)) ])
        seeds)
    topologies

let test_word_budget () =
  List.iter
    (fun topology ->
      List.iter
        (fun seed ->
          let protocol = (Wb.make ~degree:5 ~n ~t ()).protocol in
          List.iter
            (fun (label, adversary, faults) ->
              check_case ~label:("word-budget " ^ label) ~protocol ~adversary ~faults ~topology
                ~seed)
            [ ("per-destination", per_destination, None);
              ("per-destination faulty", per_destination, Some (faulty flip_ks)) ])
        seeds)
    topologies

(* A protocol without a codec: the engine then builds no code array. *)
let test_codecless () =
  List.iter
    (fun topology ->
      List.iter
        (fun seed ->
          let protocol = Sm.make () in
          List.iter
            (fun (label, faults) ->
              check_case ~label:("sampling-majority " ^ label) ~protocol
                ~adversary:(fun () -> Adversary.silent)
                ~faults ~topology ~seed)
            [ ("silent", None); ("silent faulty", Some (faulty flip_sm)) ])
        seeds)
    topologies

(* ---------------- the dense plane ---------------- *)

let alg3 = Ba_core.Agreement.make ~n ~t ()

(* Headers of the current sub-round, so they land in the tallies: split
   votes, some non-binary, and a flip on every coin-round link. *)
let skeleton_equivocating =
  equivocating (fun ~round ~src ~dst ->
      let m_phase, m_sub = Sk.phase_of_round alg3.config ~round in
      { Sk.m_phase; m_sub;
        m_val = (if dst mod 7 = 0 then 7 else dst mod 2);
        m_decided = (src * dst) mod 3 = 0;
        m_flip = Some (if (src + dst) mod 2 = 0 then 1 else -1) })

let flip_sk _rng (m : Sk.msg) = { m with Sk.m_val = 1 - m.Sk.m_val }

(* Phase King reads its king's slot with [Plane.get]; nodes 1, 2 and 4 are
   kings of phases 2, 3 and 5, so a corrupted king equivocates. *)
let king_equivocating =
  equivocating (fun ~round ~src:_ ~dst ->
      { Pk.pk_phase = ((round - 1) / 2) + 1; pk_king = round mod 2 = 0; pk_val = dst mod 2 })

let flip_pk _rng (m : Pk.msg) = { m with Pk.pk_val = 1 - m.Pk.pk_val }

let test_dense_alg3 () =
  List.iter
    (fun seed ->
      List.iter
        (fun (label, adversary, faults) ->
          check_case ~label:("alg3 " ^ label) ~protocol:alg3.protocol ~adversary ~faults
            ~topology:Topology.Dense ~seed)
        [ ("silent", (fun () -> Adversary.silent), None);
          ("per-destination", skeleton_equivocating, None);
          ("silent faulty", (fun () -> Adversary.silent), Some (faulty flip_sk));
          ("per-destination faulty", skeleton_equivocating, Some (faulty flip_sk)) ])
    seeds

let test_dense_phase_king () =
  List.iter
    (fun seed ->
      List.iter
        (fun (label, faults) ->
          check_case ~label:("phase-king " ^ label) ~protocol:(Pk.make ~n ~t)
            ~adversary:king_equivocating ~faults ~topology:Topology.Dense ~seed)
        [ ("per-destination", None); ("per-destination faulty", Some (faulty flip_pk)) ])
    seeds

let () =
  Alcotest.run "ba_sparse_reference"
    [ ( "csr arm vs per-link reference",
        [ Alcotest.test_case "ks-sample" `Quick test_ks;
          Alcotest.test_case "word-budget" `Quick test_word_budget;
          Alcotest.test_case "codec-less protocol" `Quick test_codecless ] );
      ( "dense vs per-link reference",
        [ Alcotest.test_case "alg3" `Quick test_dense_alg3;
          Alcotest.test_case "phase-king" `Quick test_dense_phase_king ] ) ]
