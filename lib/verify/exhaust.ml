type stats = { st_states : int; st_transitions : int; st_runs : int }

type 'cex verdict = Verified of stats | Violation of 'cex * stats | Out_of_budget of stats

type sync_protocol = Rabin | Rabin_broken

let sync_protocol_name = function Rabin -> "rabin" | Rabin_broken -> "rabin-broken"

let sync_protocol_of_name = function
  | "rabin" -> Some Rabin
  | "rabin-broken" -> Some Rabin_broken
  | _ -> None

type byz_choice = { bc_src : int; bc_dst : int; bc_opt : int }

type decision = {
  d_round : int;
  d_corrupt : int list;
  d_coin : int option;
  d_byz : byz_choice list;
}

type sync_cex = {
  sc_protocol : string;
  sc_n : int;
  sc_t : int;
  sc_phases : int;
  sc_inputs : int array;
  sc_round : int;
  sc_reason : string;
  sc_decisions : decision list;
}

type delivery = { dv_src : int; dv_dst : int; dv_msg : Ba_async.Bracha_rbc.msg }

type async_cex = {
  ac_n : int;
  ac_t : int;
  ac_broadcaster : int;
  ac_input : int;
  ac_byz : int list;
  ac_reason : string;
  ac_deliveries : delivery list;
}

(* Exploration bookkeeping shared across one sweep's input vectors. *)
type counters = {
  mutable c_states : int;
  mutable c_transitions : int;
  mutable c_runs : int;
  c_max_states : int;
}

exception Budget

exception Found_sync of sync_cex

exception Found_async of async_cex

let stats_of c = { st_states = c.c_states; st_transitions = c.c_transitions; st_runs = c.c_runs }

(* ------------------------------------------------------------------ *)
(* Synchronous plane                                                   *)

(* The observational quotient of the Byzantine message space (soundness
   argument in DESIGN.md sec 12): the skeleton reads its inbox only through
   the plane's tally kernels, which count well-formed votes of the current
   (phase, sub) — R1 counts all votes, R2 only decided ones, flips are dead
   for dealer configs, and any mislabeled header is uncounted, i.e.
   indistinguishable from silence. Index 0 is always "silent". *)
let alphabet ~phase ~(sub : Ba_core.Skeleton.sub) =
  let m v decided =
    Some
      { Ba_core.Skeleton.m_phase = phase; m_sub = sub; m_val = v; m_decided = decided;
        m_flip = None }
  in
  match sub with
  | Ba_core.Skeleton.R1 -> [| None; m 0 false; m 1 false |]
  | R2 | RC -> [| None; m 0 true; m 1 true |]

let phase_of_round_pb ~round =
  ( ((round - 1) / 2) + 1,
    if (round - 1) mod 2 = 0 then Ba_core.Skeleton.R1 else Ba_core.Skeleton.R2 )

(* A verifiable instance: the protocol plus the explorer hooks and the
   controllable dealer-coin table its [Dealer] closure reads. *)
type 'state inst = {
  i_protocol : ('state, Ba_core.Skeleton.msg) Ba_sim.Protocol.t;
  i_encode : 'state -> string;
  i_certified : 'state -> int option;
  i_coins : int array;
}

type packed_inst = Inst : 'state inst -> packed_inst

let make_inst protocol ~phases =
  let coins = Array.make (phases + 3) 0 in
  let dealer p = if p >= 0 && p < Array.length coins then coins.(p) else 0 in
  match protocol with
  | Rabin ->
      let cfg =
        { Ba_core.Skeleton.cfg_name = "rabin";
          cfg_phases = phases;
          cfg_coin = Ba_core.Skeleton.Dealer dealer;
          cfg_cycle = false;
          cfg_coin_round = `Piggyback;
          cfg_termination = `Extra_phase }
      in
      Inst
        { i_protocol = Ba_core.Skeleton.make cfg;
          i_encode = Ba_core.Skeleton.state_encode;
          i_certified = Ba_core.Skeleton.state_certified;
          i_coins = coins }
  | Rabin_broken ->
      Inst
        { i_protocol = Mutant.make ~phases ~dealer;
          i_encode = Mutant.state_encode;
          i_certified = Mutant.state_certified;
          i_coins = coins }

type 'state gstate = { g_states : 'state array; g_corrupted : bool array; g_used : int }

let encode_g inst ~round g =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (string_of_int round);
  Buffer.add_char buf '#';
  Buffer.add_string buf (string_of_int g.g_used);
  Array.iteri
    (fun v st ->
      Buffer.add_char buf '|';
      if g.g_corrupted.(v) then Buffer.add_char buf 'C'
      else Buffer.add_string buf (inst.i_encode st))
    g.g_states;
  Buffer.contents buf

(* The safety properties, checked on every reached global state:
   - certified agreement: all Case-1 finishers agree, and a certified value
     pins every honest output (cap-forced ones included);
   - validity: unanimous honest inputs pin every honest output. *)
let sync_violation inst ~inputs g =
  let n = Array.length g.g_states in
  let output st = inst.i_protocol.Ba_sim.Protocol.output st in
  let honest v = not g.g_corrupted.(v) in
  let bad = ref None in
  let cert = ref None in
  for v = 0 to n - 1 do
    if !bad = None && honest v then
      match inst.i_certified g.g_states.(v) with
      | Some b -> (
          match !cert with
          | Some (u, b') when b' <> b ->
              bad :=
                Some
                  (Printf.sprintf
                     "agreement: node %d finished with %d but node %d finished with %d" u b' v b)
          | Some _ -> ()
          | None -> cert := Some (v, b))
      | None -> ()
  done;
  (match (!bad, !cert) with
  | None, Some (u, b) ->
      for v = 0 to n - 1 do
        if !bad = None && honest v then
          match output g.g_states.(v) with
          | Some o when o <> b ->
              bad :=
                Some
                  (Printf.sprintf "agreement: node %d finished with %d but node %d output %d" u b
                     v o)
          | Some _ | None -> ()
      done
  | _ -> ());
  if !bad = None then begin
    let unanimous = ref true and first = ref None in
    for v = 0 to n - 1 do
      if honest v then
        match !first with
        | None -> first := Some inputs.(v)
        | Some b -> if b <> inputs.(v) then unanimous := false
    done;
    match (!unanimous, !first) with
    | true, Some b ->
        for v = 0 to n - 1 do
          if !bad = None && honest v then
            match output g.g_states.(v) with
            | Some o when o <> b ->
                bad :=
                  Some
                    (Printf.sprintf
                       "validity: honest inputs are all %d but node %d output %d" b v o)
            | Some _ | None -> ()
        done
    | _ -> ()
  end;
  !bad

(* All subsets of [xs] with at most [k] elements, elements kept in order. *)
let subsets_upto k xs =
  List.fold_left
    (fun acc x ->
      acc @ List.filter_map (fun s -> if List.length s < k then Some (s @ [ x ]) else None) acc)
    [ [] ] xs

(* Odometer over [width] digits in [0, base): calls [f] on every assignment. *)
let iter_assignments ~width ~base f =
  let idx = Array.make (max width 1) 0 in
  let rec bump i =
    if i < 0 then false
    else if idx.(i) + 1 < base then begin
      idx.(i) <- idx.(i) + 1;
      true
    end
    else begin
      idx.(i) <- 0;
      bump (i - 1)
    end
  in
  let continue_ = ref true in
  while !continue_ do
    f idx;
    continue_ := width > 0 && bump (width - 1)
  done

let explore_one (type s) (inst : s inst) ~proto_name ~n ~t ~inputs ~phases ~counters =
  let { Ba_sim.Protocol.init; send; recv; halted; codec; _ } = inst.i_protocol in
  (* The dealer protocols draw no per-node randomness (no flippers, no
     private coins), so one dummy stream serves every ctx. *)
  let rng = Ba_prng.Rng.create 0L in
  let ctx = Array.init n (fun me -> { Ba_sim.Protocol.n; t; me; rng }) in
  let max_rounds = 2 * (phases + 2) in
  counters.c_runs <- counters.c_runs + 1;
  let found ~round ~reason path =
    raise
      (Found_sync
         { sc_protocol = proto_name;
           sc_n = n;
           sc_t = t;
           sc_phases = phases;
           sc_inputs = Array.copy inputs;
           sc_round = round;
           sc_reason = reason;
           sc_decisions = List.rev path })
  in
  let seen = Hashtbl.create 4096 in
  let visit ~round g =
    let key = encode_g inst ~round g in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      counters.c_states <- counters.c_states + 1;
      if counters.c_states > counters.c_max_states then raise Budget;
      true
    end
  in
  let g0 =
    { g_states = Array.init n (fun v -> init ctx.(v) ~input:inputs.(v));
      g_corrupted = Array.make n false;
      g_used = 0 }
  in
  ignore (visit ~round:0 g0 : bool);
  (match sync_violation inst ~inputs g0 with
  | Some reason -> found ~round:0 ~reason []
  | None -> ());
  let frontier = ref [ (g0, []) ] in
  let round = ref 1 in
  let expand g path r =
    let phase, sub = phase_of_round_pb ~round:r in
    let alpha = alphabet ~phase ~sub in
    let live v = (not g.g_corrupted.(v)) && not (halted g.g_states.(v)) in
    let honest_msgs =
      Array.init n (fun v -> if live v then send ctx.(v) g.g_states.(v) ~round:r else None)
    in
    let candidates = List.filter (fun v -> not g.g_corrupted.(v)) (List.init n Fun.id) in
    List.iter
      (fun corrupt_set ->
        let corrupted' = Array.copy g.g_corrupted in
        List.iter (fun v -> corrupted'.(v) <- true) corrupt_set;
        let used' = g.g_used + List.length corrupt_set in
        let msgs = Array.copy honest_msgs in
        List.iter (fun v -> msgs.(v) <- None) corrupt_set;
        let byz_srcs = List.filter (fun v -> corrupted'.(v)) (List.init n Fun.id) in
        let recipients =
          List.filter
            (fun v -> (not corrupted'.(v)) && not (halted g.g_states.(v)))
            (List.init n Fun.id)
        in
        let pairs =
          Array.of_list
            (List.concat_map (fun s -> List.map (fun d -> (s, d)) recipients) byz_srcs)
        in
        let width = Array.length pairs in
        let coins =
          match sub with Ba_core.Skeleton.R2 -> [ Some 0; Some 1 ] | R1 | RC -> [ None ]
        in
        List.iter
          (fun coin ->
            (match coin with Some c -> inst.i_coins.(phase) <- c | None -> ());
            iter_assignments ~width ~base:(Array.length alpha) (fun idx ->
                counters.c_transitions <- counters.c_transitions + 1;
                let states' = Array.copy g.g_states in
                List.iter
                  (fun u ->
                    let data = Array.copy msgs in
                    Array.iteri
                      (fun i (s, d) -> if d = u then data.(s) <- alpha.(idx.(i)))
                      pairs;
                    states'.(u) <-
                      recv ctx.(u) g.g_states.(u) ~round:r
                        ~inbox:(Ba_sim.Plane.of_array ?encode:codec data))
                  recipients;
                let g' = { g_states = states'; g_corrupted = corrupted'; g_used = used' } in
                let dec =
                  { d_round = r;
                    d_corrupt = corrupt_set;
                    d_coin = coin;
                    d_byz =
                      Array.to_list pairs
                      |> List.mapi (fun i (s, d) -> { bc_src = s; bc_dst = d; bc_opt = idx.(i) })
                      |> List.filter (fun b -> b.bc_opt > 0) }
                in
                (match sync_violation inst ~inputs g' with
                | Some reason -> found ~round:r ~reason (dec :: path)
                | None -> ());
                if visit ~round:r g' then frontier := (g', dec :: path) :: !frontier))
          coins)
      (subsets_upto (t - g.g_used) candidates)
  in
  while !frontier <> [] && !round <= max_rounds do
    let current = !frontier in
    frontier := [];
    List.iter
      (fun (g, path) ->
        let any_live = ref false in
        for v = 0 to n - 1 do
          if (not g.g_corrupted.(v)) && not (halted g.g_states.(v)) then any_live := true
        done;
        if !any_live then expand g path !round)
      current;
    incr round
  done

let input_vectors ~n = function
  | `Weights -> List.init (n + 1) (fun k -> Array.init n (fun i -> if i >= n - k then 1 else 0))
  | `All -> List.init (1 lsl n) (fun m -> Array.init n (fun i -> (m lsr i) land 1))

let verify_sync ~protocol ~n ~t ~phases ~inputs ~max_states () =
  if n < 1 || t < 0 || t >= n then invalid_arg "Exhaust.verify_sync: need 0 <= t < n";
  if phases < 1 then invalid_arg "Exhaust.verify_sync: need phases >= 1";
  let counters = { c_states = 0; c_transitions = 0; c_runs = 0; c_max_states = max_states } in
  let proto_name = sync_protocol_name protocol in
  match make_inst protocol ~phases with
  | Inst inst -> (
      try
        List.iter
          (fun iv -> explore_one inst ~proto_name ~n ~t ~inputs:iv ~phases ~counters)
          (input_vectors ~n inputs);
        Verified (stats_of counters)
      with
      | Found_sync cex -> Violation (cex, stats_of counters)
      | Budget -> Out_of_budget (stats_of counters))

let replay_sync cex =
  let protocol =
    match sync_protocol_of_name cex.sc_protocol with
    | Some p -> p
    | None -> invalid_arg ("Exhaust.replay_sync: unknown protocol " ^ cex.sc_protocol)
  in
  match make_inst protocol ~phases:cex.sc_phases with
  | Inst inst ->
      List.iter
        (fun d ->
          match d.d_coin with
          | Some c ->
              let phase, _ = phase_of_round_pb ~round:d.d_round in
              if phase < Array.length inst.i_coins then inst.i_coins.(phase) <- c
          | None -> ())
        cex.sc_decisions;
      let act view =
        let r = view.Ba_sim.Adversary.round in
        match List.find_opt (fun d -> d.d_round = r) cex.sc_decisions with
        | None -> Ba_sim.Adversary.no_op_action
        | Some d ->
            let phase, sub = phase_of_round_pb ~round:r in
            let alpha = alphabet ~phase ~sub in
            { Ba_sim.Adversary.corrupt = d.d_corrupt;
              byz_msg =
                (fun ~src ~dst ->
                  match
                    List.find_opt (fun b -> b.bc_src = src && b.bc_dst = dst) d.d_byz
                  with
                  | Some b -> alpha.(b.bc_opt)
                  | None -> None) }
      in
      Ba_sim.Engine.run
        ~max_rounds:(2 * (cex.sc_phases + 2))
        ~protocol:inst.i_protocol
        ~adversary:{ Ba_sim.Adversary.adv_name = "exhaust-tape"; act }
        ~n:cex.sc_n ~t:cex.sc_t ~inputs:cex.sc_inputs ~seed:0L ()

let sync_cex_confirmed cex =
  let o = replay_sync cex in
  (not (Ba_sim.Run.agreement_holds o)) || not (Ba_sim.Run.validity_holds o)

(* ------------------------------------------------------------------ *)
(* JSON (counterexample files)                                         *)

let json_ints xs = Ba_harness.Json.List (List.map (fun i -> Ba_harness.Json.Int i) xs)

let ints_of_json what j =
  match Ba_harness.Json.to_list j with
  | None -> Error (what ^ ": expected an array")
  | Some l -> (
      let ints = List.filter_map Ba_harness.Json.to_int l in
      if List.length ints = List.length l then Ok ints
      else Error (what ^ ": expected an array of ints"))

let field what name j =
  match Ba_harness.Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" what name)

let int_field what name j =
  Result.bind (field what name j) (fun v ->
      match Ba_harness.Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "%s: field %S must be an int" what name))

let str_field what name j =
  Result.bind (field what name j) (fun v ->
      match Ba_harness.Json.to_str v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "%s: field %S must be a string" what name))

let ( let* ) = Result.bind

let sync_cex_to_json cex =
  let open Ba_harness.Json in
  Obj
    [ ("kind", String "sync");
      ("protocol", String cex.sc_protocol);
      ("n", Int cex.sc_n);
      ("t", Int cex.sc_t);
      ("phases", Int cex.sc_phases);
      ("inputs", json_ints (Array.to_list cex.sc_inputs));
      ("round", Int cex.sc_round);
      ("reason", String cex.sc_reason);
      ("decisions",
       List
         (List.map
            (fun d ->
              Obj
                [ ("round", Int d.d_round);
                  ("corrupt", json_ints d.d_corrupt);
                  ("coin", match d.d_coin with Some c -> Int c | None -> Null);
                  ("byz",
                   List
                     (List.map
                        (fun b ->
                          Obj
                            [ ("src", Int b.bc_src); ("dst", Int b.bc_dst);
                              ("opt", Int b.bc_opt) ])
                        d.d_byz)) ])
            cex.sc_decisions)) ]

let sync_cex_of_json j =
  let what = "sync counterexample" in
  let* kind = str_field what "kind" j in
  if kind <> "sync" then Error (what ^ ": kind is not \"sync\"")
  else
    let* protocol = str_field what "protocol" j in
    let* n = int_field what "n" j in
    let* t = int_field what "t" j in
    let* phases = int_field what "phases" j in
    let* inputs = Result.bind (field what "inputs" j) (ints_of_json (what ^ ".inputs")) in
    let* round = int_field what "round" j in
    let* reason = str_field what "reason" j in
    let* decisions_j = field what "decisions" j in
    let* decisions_l =
      match Ba_harness.Json.to_list decisions_j with
      | Some l -> Ok l
      | None -> Error (what ^ ": decisions must be an array")
    in
    let decision_of_json dj =
      let dwhat = what ^ ".decision" in
      let* d_round = int_field dwhat "round" dj in
      let* d_corrupt = Result.bind (field dwhat "corrupt" dj) (ints_of_json (dwhat ^ ".corrupt")) in
      let* coin_j = field dwhat "coin" dj in
      let d_coin = Ba_harness.Json.to_int coin_j in
      let* byz_j = field dwhat "byz" dj in
      let* byz_l =
        match Ba_harness.Json.to_list byz_j with
        | Some l -> Ok l
        | None -> Error (dwhat ^ ": byz must be an array")
      in
      let* d_byz =
        List.fold_left
          (fun acc bj ->
            let* acc = acc in
            let* bc_src = int_field dwhat "src" bj in
            let* bc_dst = int_field dwhat "dst" bj in
            let* bc_opt = int_field dwhat "opt" bj in
            Ok ({ bc_src; bc_dst; bc_opt } :: acc))
          (Ok []) byz_l
      in
      Ok { d_round; d_corrupt; d_coin; d_byz = List.rev d_byz }
    in
    let* decisions =
      List.fold_left
        (fun acc dj ->
          let* acc = acc in
          let* d = decision_of_json dj in
          Ok (d :: acc))
        (Ok []) decisions_l
    in
    Ok
      { sc_protocol = protocol;
        sc_n = n;
        sc_t = t;
        sc_phases = phases;
        sc_inputs = Array.of_list inputs;
        sc_round = round;
        sc_reason = reason;
        sc_decisions = List.rev decisions }

(* ------------------------------------------------------------------ *)
(* Asynchronous plane (Bracha RBC)                                     *)

let msg_rank = function
  | Ba_async.Bracha_rbc.Init v -> v
  | Ba_async.Bracha_rbc.Echo v -> 2 + v
  | Ba_async.Bracha_rbc.Ready v -> 4 + v

let msg_to_string = function
  | Ba_async.Bracha_rbc.Init v -> Printf.sprintf "init%d" v
  | Ba_async.Bracha_rbc.Echo v -> Printf.sprintf "echo%d" v
  | Ba_async.Bracha_rbc.Ready v -> Printf.sprintf "ready%d" v

let msg_of_string = function
  | "init0" -> Some (Ba_async.Bracha_rbc.Init 0)
  | "init1" -> Some (Ba_async.Bracha_rbc.Init 1)
  | "echo0" -> Some (Ba_async.Bracha_rbc.Echo 0)
  | "echo1" -> Some (Ba_async.Bracha_rbc.Echo 1)
  | "ready0" -> Some (Ba_async.Bracha_rbc.Ready 0)
  | "ready1" -> Some (Ba_async.Bracha_rbc.Ready 1)
  | _ -> None

type agstate = { a_states : Ba_async.Bracha_rbc.state array; a_pending : delivery list }

let cmp_delivery a b =
  compare (a.dv_src, a.dv_dst, msg_rank a.dv_msg) (b.dv_src, b.dv_dst, msg_rank b.dv_msg)

let explore_async ~n ~t ~broadcaster ~input ~byz ~counters =
  let protocol = Ba_async.Bracha_rbc.make ~broadcaster in
  let { Ba_async.Async_engine.init; on_message; output; _ } = protocol in
  let rng = Ba_prng.Rng.create 0L in
  let ctx = Array.init n (fun me -> { Ba_async.Async_engine.n; t; me; rng }) in
  let is_byz = Array.make n false in
  List.iter (fun v -> is_byz.(v) <- true) byz;
  counters.c_runs <- counters.c_runs + 1;
  let pending0 = ref [] in
  let push src dst msg =
    if dst >= 0 && dst < n && not is_byz.(dst) then
      pending0 := { dv_src = src; dv_dst = dst; dv_msg = msg } :: !pending0
  in
  let states0 =
    Array.init n (fun v ->
        let st, sends =
          init ctx.(v) ~input:(if v = broadcaster then input else 0)
        in
        if not is_byz.(v) then
          List.iter (fun s -> push v s.Ba_async.Async_engine.to_ s.Ba_async.Async_engine.payload) sends;
        st)
  in
  (* The Byzantine pending pool: everything a Byzantine node could ever get
     counted — Bracha counts only the first Echo/Ready per source (and the
     first Init from the broadcaster), so one pending copy of each option
     covers every sending strategy; delivery order, explored below, covers
     every timing. *)
  List.iter
    (fun b ->
      for u = 0 to n - 1 do
        if not is_byz.(u) then begin
          push b u (Ba_async.Bracha_rbc.Echo 0);
          push b u (Ba_async.Bracha_rbc.Echo 1);
          push b u (Ba_async.Bracha_rbc.Ready 0);
          push b u (Ba_async.Bracha_rbc.Ready 1);
          if b = broadcaster then begin
            push b u (Ba_async.Bracha_rbc.Init 0);
            push b u (Ba_async.Bracha_rbc.Init 1)
          end
        end
      done)
    byz;
  (* Sound eager reduction: drop deliveries that can never matter — to an
     inert node (all flags spent, output fixed), or redundant under Bracha's
     permanent first-message accounting. Dropping them (rather than
     branching on them) preserves exactly the reachable observable states. *)
  let prune pending states =
    List.filter
      (fun d ->
        let st = states.(d.dv_dst) in
        not (Ba_async.Bracha_rbc.inert st || Ba_async.Bracha_rbc.redundant st ~src:d.dv_src d.dv_msg))
      pending
  in
  let g0_raw =
    { a_states = states0; a_pending = prune (List.sort_uniq cmp_delivery !pending0) states0 }
  in
  (* Order-sensitivity analysis (the DPOR argument, DESIGN.md sec 12): a
     node's observable behavior depends on its delivery ORDER only through
     tie-breaks — which Init counted first, which value first trips the
     ready trigger, which value first reaches the deliver threshold. Each
     tie is decided among the values that can still WIN it, bounded by
     potential counts: current table count plus every fresh source that
     could still supply the value (Byzantine sources supply anything;
     honest sources are bounded by what they could still echo/ready,
     computed as a least fixpoint — ready amplification needs a
     well-founded base, so the LFP is exact). Potentials only shrink as
     deliveries commit, so an uncontested tie stays uncontested: deliveries
     to a node with no contested tie left commute observationally with
     everything and are applied eagerly without branching. Sound for the
     stable properties checked here (an output, once set, persists), which
     a violation therefore cannot hide in a starved interleaving that the
     closure skips. *)
  let e_thresh = Ba_async.Bracha_rbc.echo_threshold ~n ~t in
  let r_support = Ba_async.Bracha_rbc.ready_support ~t in
  let d_thresh = Ba_async.Bracha_rbc.deliver_threshold ~t in
  let bcast_honest = not is_byz.(broadcaster) in
  let sensitive states =
    let probes =
      Array.init n (fun v ->
          if is_byz.(v) then None else Some (Ba_async.Bracha_rbc.probe states.(v)))
    in
    let probe v = match probes.(v) with Some p -> p | None -> assert false in
    let could_echo = Array.make n [] in
    for w = 0 to n - 1 do
      if not is_byz.(w) then
        could_echo.(w) <-
          (let p = probe w in
           if p.Ba_async.Bracha_rbc.p_echo_sent then
             match p.p_echo_val with Some v -> [ v ] | None -> []
           else if bcast_honest then [ input ]
           else [ 0; 1 ])
    done;
    let could_ready = Array.make n [] in
    for w = 0 to n - 1 do
      if (not is_byz.(w)) && (probe w).p_ready_sent then
        could_ready.(w) <- (match (probe w).p_ready_val with Some v -> [ v ] | None -> [])
    done;
    (* potential count of (kind, v) at w: table entries carrying v plus
       fresh sources that could still supply v *)
    let pot entries offers w v =
      let p = probe w in
      let table = entries p in
      let counted = List.length (List.filter (fun (_, x) -> x = v) table) in
      let fresh = ref 0 in
      for s = 0 to n - 1 do
        if (not (List.mem_assoc s table)) && (is_byz.(s) || List.mem v (offers s)) then
          incr fresh
      done;
      counted + !fresh
    in
    let pot_echo =
      pot (fun p -> p.Ba_async.Bracha_rbc.p_echoes) (fun s -> could_echo.(s))
    in
    let pot_ready =
      pot (fun p -> p.Ba_async.Bracha_rbc.p_readies) (fun s -> could_ready.(s))
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for w = 0 to n - 1 do
        if (not is_byz.(w)) && not (probe w).p_ready_sent then
          List.iter
            (fun v ->
              if
                (not (List.mem v could_ready.(w)))
                && (pot_echo w v >= e_thresh || pot_ready w v >= r_support)
              then begin
                could_ready.(w) <- v :: could_ready.(w);
                changed := true
              end)
            [ 0; 1 ]
      done
    done;
    Array.init n (fun u ->
        (not is_byz.(u))
        &&
        let p = probe u in
        let init_contested = (not p.p_echo_sent) && not bcast_honest in
        let trig v = pot_echo u v >= e_thresh || pot_ready u v >= r_support in
        let trig_contested = (not p.p_ready_sent) && trig 0 && trig 1 in
        let del_contested =
          p.p_delivered = None && pot_ready u 0 >= d_thresh && pot_ready u 1 >= d_thresh
        in
        init_contested || trig_contested || del_contested)
  in
  let encode g =
    let buf = Buffer.create 256 in
    Array.iteri
      (fun v st ->
        if not is_byz.(v) then begin
          Buffer.add_char buf '|';
          (* Inert nodes quotient to their output: their tables can no
             longer influence anything observable. *)
          if Ba_async.Bracha_rbc.inert st then begin
            Buffer.add_char buf 'I';
            match output st with
            | Some o -> Buffer.add_string buf (string_of_int o)
            | None -> ()
          end
          else Buffer.add_string buf (Ba_async.Bracha_rbc.encode_state st)
        end)
      g.a_states;
    List.iter
      (fun d ->
        Buffer.add_string buf (Printf.sprintf ";%d>%d:%d" d.dv_src d.dv_dst (msg_rank d.dv_msg)))
      g.a_pending;
    Buffer.contents buf
  in
  let found ~reason path =
    raise
      (Found_async
         { ac_n = n;
           ac_t = t;
           ac_broadcaster = broadcaster;
           ac_input = input;
           ac_byz = List.sort compare byz;
           ac_reason = reason;
           ac_deliveries = List.rev path })
  in
  let violation g =
    let bad = ref None in
    let seen_out = ref None in
    for v = 0 to n - 1 do
      if !bad = None && not is_byz.(v) then
        match output g.a_states.(v) with
        | Some o -> (
            (match !seen_out with
            | Some (u, o') when o' <> o ->
                bad :=
                  Some
                    (Printf.sprintf "consistency: node %d delivered %d but node %d delivered %d"
                       u o' v o)
            | Some _ -> ()
            | None -> seen_out := Some (v, o));
            if !bad = None && (not is_byz.(broadcaster)) && o <> input then
              bad :=
                Some
                  (Printf.sprintf
                     "validity: broadcaster %d is honest with input %d but node %d delivered %d"
                     broadcaster input v o))
        | None -> ()
    done;
    !bad
  in
  let seen = Hashtbl.create 4096 in
  let visit g =
    let key = encode g in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      counters.c_states <- counters.c_states + 1;
      if counters.c_states > counters.c_max_states then raise Budget;
      true
    end
  in
  let deliver_to g d rest =
    counters.c_transitions <- counters.c_transitions + 1;
    let st = Ba_async.Bracha_rbc.clone_state g.a_states.(d.dv_dst) in
    let st', sends = on_message ctx.(d.dv_dst) st ~src:d.dv_src d.dv_msg in
    let states' = Array.copy g.a_states in
    states'.(d.dv_dst) <- st';
    let extra =
      List.filter_map
        (fun s ->
          let to_ = s.Ba_async.Async_engine.to_ in
          if to_ >= 0 && to_ < n && not is_byz.(to_) then
            Some { dv_src = d.dv_dst; dv_dst = to_; dv_msg = s.Ba_async.Async_engine.payload }
          else None)
        sends
    in
    { a_states = states';
      a_pending = prune (List.sort_uniq cmp_delivery (extra @ rest)) states' }
  in
  (* Eager closure: commit deliveries addressed to order-insensitive nodes
     without branching. Insensitivity is stable (potentials only shrink), so
     the closure is confluent up to observation; taking the least pending
     delivery each step makes the resulting state canonical, and the
     committed deliveries stay on the path so counterexamples replay. *)
  let close g path =
    let rec loop g path =
      let sens = sensitive g.a_states in
      match List.find_opt (fun d -> not sens.(d.dv_dst)) g.a_pending with
      | None -> (g, path)
      | Some d ->
          let rest = List.filter (fun d' -> cmp_delivery d' d <> 0) g.a_pending in
          let g' = deliver_to g d rest in
          let path = d :: path in
          (match violation g' with Some reason -> found ~reason path | None -> ());
          loop g' path
    in
    loop g path
  in
  (match violation g0_raw with Some reason -> found ~reason [] | None -> ());
  let g0, path0 = close g0_raw [] in
  ignore (visit g0 : bool);
  let queue = Queue.create () in
  Queue.add (g0, path0) queue;
  while not (Queue.is_empty queue) do
    let g, path = Queue.pop queue in
    List.iteri
      (fun i d ->
        let rest = List.filteri (fun j _ -> j <> i) g.a_pending in
        let g1 = deliver_to g d rest in
        (match violation g1 with Some reason -> found ~reason (d :: path) | None -> ());
        let g', path' = close g1 (d :: path) in
        if visit g' then Queue.add (g', path') queue)
      g.a_pending
  done

(* Representative Byzantine sets: non-broadcaster nodes are interchangeable
   (only the broadcaster is distinguished), so one set per
   (size, contains-broadcaster) class covers the space. *)
let byz_sets ~n ~t ~broadcaster =
  let non_b = List.filter (fun v -> v <> broadcaster) (List.init n Fun.id) in
  let take k = List.filteri (fun i _ -> i < k) non_b in
  List.concat_map
    (fun k ->
      if k = 0 then [ [] ]
      else [ take k; List.sort compare (broadcaster :: take (k - 1)) ])
    (List.init (t + 1) Fun.id)

let verify_async ~n ~t ~broadcaster ~max_states () =
  if n < 1 || t < 0 || t >= n then invalid_arg "Exhaust.verify_async: need 0 <= t < n";
  if broadcaster < 0 || broadcaster >= n then
    invalid_arg "Exhaust.verify_async: broadcaster out of range";
  let counters = { c_states = 0; c_transitions = 0; c_runs = 0; c_max_states = max_states } in
  try
    List.iter
      (fun byz ->
        let inputs = if List.mem broadcaster byz then [ 0 ] else [ 0; 1 ] in
        List.iter (fun input -> explore_async ~n ~t ~broadcaster ~input ~byz ~counters) inputs)
      (byz_sets ~n ~t ~broadcaster);
    Verified (stats_of counters)
  with
  | Found_async cex -> Violation (cex, stats_of counters)
  | Budget -> Out_of_budget (stats_of counters)

let replay_async cex =
  let n = cex.ac_n in
  let protocol = Ba_async.Bracha_rbc.make ~broadcaster:cex.ac_broadcaster in
  let is_byz = Array.make n false in
  List.iter (fun v -> if v >= 0 && v < n then is_byz.(v) <- true) cex.ac_byz;
  let tape = ref cex.ac_deliveries in
  let act (view : (Ba_async.Bracha_rbc.state, Ba_async.Bracha_rbc.msg) Ba_async.Async_engine.view)
      =
    let corrupt = if view.Ba_async.Async_engine.step = 1 then cex.ac_byz else [] in
    (* Batch the tape's leading Byzantine entries (engine cap: n per step)
       as injections; the following honest entry is this step's scheduled
       delivery, found by matching (src, dst, msg) in the pending view. *)
    let rec split acc k = function
      | d :: rest when is_byz.(d.dv_src) && k < n -> split (d :: acc) (k + 1) rest
      | rest -> (List.rev acc, rest)
    in
    let injects, rest = split [] 0 !tape in
    let deliver, rest' =
      match rest with
      | d :: tl when not is_byz.(d.dv_src) ->
          let id =
            List.find_map
              (fun (p : Ba_async.Bracha_rbc.msg Ba_async.Async_engine.pending) ->
                if
                  p.Ba_async.Async_engine.src = d.dv_src
                  && p.Ba_async.Async_engine.dst = d.dv_dst
                  && p.Ba_async.Async_engine.msg = d.dv_msg
                then Some p.Ba_async.Async_engine.id
                else None)
              view.Ba_async.Async_engine.pending
          in
          (id, tl)
      | rest -> (None, rest)
    in
    tape := rest';
    { Ba_async.Async_engine.deliver;
      corrupt;
      inject = List.map (fun d -> (d.dv_src, d.dv_dst, d.dv_msg)) injects }
  in
  Ba_async.Async_engine.run
    ~max_steps:(max 64 ((4 * List.length cex.ac_deliveries) + (20 * n)))
    ~max_delay:1_000_000
    ~protocol
    ~adversary:(Ba_async.Async_engine.opaque ~name:"exhaust-tape" act)
    ~n ~t:cex.ac_t
    ~inputs:(Array.make n cex.ac_input)
    ~seed:0L ()

let async_cex_confirmed cex =
  let outs = Ba_sim.Run.honest_outputs (replay_async cex) in
  let values = List.sort_uniq compare (List.map snd outs) in
  let split = List.length values > 1 in
  let invalid =
    (not (List.mem cex.ac_broadcaster cex.ac_byz))
    && List.exists (fun (_, x) -> x <> cex.ac_input) outs
  in
  split || invalid

let async_cex_to_json cex =
  let open Ba_harness.Json in
  Obj
    [ ("kind", String "async");
      ("n", Int cex.ac_n);
      ("t", Int cex.ac_t);
      ("broadcaster", Int cex.ac_broadcaster);
      ("input", Int cex.ac_input);
      ("byz", json_ints cex.ac_byz);
      ("reason", String cex.ac_reason);
      ("deliveries",
       List
         (List.map
            (fun d ->
              Obj
                [ ("src", Int d.dv_src); ("dst", Int d.dv_dst);
                  ("msg", String (msg_to_string d.dv_msg)) ])
            cex.ac_deliveries)) ]

let async_cex_of_json j =
  let what = "async counterexample" in
  let* kind = str_field what "kind" j in
  if kind <> "async" then Error (what ^ ": kind is not \"async\"")
  else
    let* n = int_field what "n" j in
    let* t = int_field what "t" j in
    let* broadcaster = int_field what "broadcaster" j in
    let* input = int_field what "input" j in
    let* byz = Result.bind (field what "byz" j) (ints_of_json (what ^ ".byz")) in
    let* reason = str_field what "reason" j in
    let* deliveries_j = field what "deliveries" j in
    let* deliveries_l =
      match Ba_harness.Json.to_list deliveries_j with
      | Some l -> Ok l
      | None -> Error (what ^ ": deliveries must be an array")
    in
    let* deliveries =
      List.fold_left
        (fun acc dj ->
          let* acc = acc in
          let* dv_src = int_field what "src" dj in
          let* dv_dst = int_field what "dst" dj in
          let* msg_s = str_field what "msg" dj in
          match msg_of_string msg_s with
          | Some dv_msg -> Ok ({ dv_src; dv_dst; dv_msg } :: acc)
          | None -> Error (Printf.sprintf "%s: unknown message %S" what msg_s))
        (Ok []) deliveries_l
    in
    Ok
      { ac_n = n;
        ac_t = t;
        ac_broadcaster = broadcaster;
        ac_input = input;
        ac_byz = byz;
        ac_reason = reason;
        ac_deliveries = List.rev deliveries }
