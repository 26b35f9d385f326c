type round_record = {
  rr_round : int;
  rr_new_corruptions : int list;
  rr_views : Protocol.node_view option array;
}

type outcome = {
  protocol_name : string;
  adversary_name : string;
  n : int;
  t : int;
  inputs : int array;
  rounds : int;
  completed : bool;
  outputs : int option array;
  corrupted : bool array;
  corruptions_used : int;
  metrics : Metrics.t;
  records : round_record list;
}

type sharder = { s_shards : int; s_run : (unit -> unit) array -> unit }

let sequential = { s_shards = 1; s_run = (fun thunks -> Array.iter (fun f -> f ()) thunks) }

(* Fans [deliver lo hi] out over the sharder's shards as contiguous
   recipient ranges; [deliver] runs on the calling domain and returns the
   shard's thunk. *)
let sharded sharder ~n deliver =
  if sharder.s_shards > 1 && n > 1 then begin
    let shards = min sharder.s_shards n in
    let chunk = (n + shards - 1) / shards in
    sharder.s_run
      (Array.init shards (fun i -> deliver (i * chunk) (min (n - 1) (((i + 1) * chunk) - 1))))
  end
  else deliver 0 (n - 1) ()

(* Restricted-topology inbox buffers (DESIGN.md §13), allocated once per run
   and reused every round. A round has at most [n * (degree_bound + 1)]
   deliveries: every sender's links plus an honest sender's self-delivery.

   Pass 1 draws each sender's recipients into [c_dst], grouped by sender
   ([c_seg.(v)] .. [c_seg.(v + 1)]), dropping dead or faulted-away links
   in place, and counts in-degrees. Pass 2 prefix-sums the counts into
   [c_off] and scatters the deliveries into the CSR arrays [c_srcs] /
   [c_codes] / [c_msgs]: recipient [u]'s inbox is the slice
   [c_off.(u)] .. [c_off.(u + 1)], src-ascending because senders are
   visited in order. *)
type 'msg csr = {
  c_dst : int array;
  c_seg : int array;
  mutable c_pay : 'msg option array;
      (** per-edge payloads of Byzantine or faulted senders, parallel to
          [c_dst]; empty until a round first needs one. Honest edges share
          the sender's own [Some] box from the round's broadcasts. *)
  c_sender_code : int array;  (** each honest sender's packed code, encoded once *)
  c_cur : int array;  (** in-degree counts, then scatter cursors *)
  c_off : int array;
  c_srcs : int array;
  c_codes : int array option;  (** [Some] iff the protocol has a codec *)
  c_msgs : 'msg option array;
}

let csr_create ~n ~codec ti =
  let cap = n * (Topology.degree_bound ti + 1) in
  { c_dst = Array.make cap 0;
    c_seg = Array.make (n + 1) 0;
    c_pay = [||];
    c_sender_code = Array.make n Plane.absent;
    c_cur = Array.make n 0;
    c_off = Array.make (n + 1) 0;
    c_srcs = Array.make cap 0;
    c_codes = Option.map (fun _ -> Array.make cap Plane.absent) codec;
    c_msgs = Array.make cap None }

let csr_payloads c =
  if Array.length c.c_pay = 0 then c.c_pay <- Array.make (Array.length c.c_dst) None;
  c.c_pay

let validate ~n ~t ~inputs =
  if t < 0 || t >= n then invalid_arg "Engine.run: need 0 <= t < n";
  if Array.length inputs <> n then invalid_arg "Engine.run: inputs length <> n";
  Array.iter (fun b -> if b <> 0 && b <> 1 then invalid_arg "Engine.run: inputs must be 0/1") inputs

let run ?max_rounds ?(record = false) ?congest_limit_bits ?faults ?(sharder = sequential)
    ?(topology = Topology.Dense) ?trace ~(protocol : ('state, 'msg) Protocol.t)
    ~(adversary : ('state, 'msg) Adversary.t) ~n ~t ~inputs ~seed () =
  validate ~n ~t ~inputs;
  if sharder.s_shards < 1 then invalid_arg "Engine.run: sharder must offer at least one shard";
  let max_rounds =
    match max_rounds with Some m -> m | None -> Protocol.default_round_cap ~n
  in
  let faults =
    match faults with
    | Some plan when not (Faults.is_none plan) -> Some (Faults.instantiate plan ~n ~seed)
    | Some _ | None -> None
  in
  (* The dense plan keeps the historical broadcast path bit-for-bit; a
     restricted plan (sampled / committee links) routes delivery through
     per-recipient sparse plane slices (DESIGN.md §13). *)
  let codec = protocol.codec in
  let topo =
    if Topology.is_dense topology then None
    else begin
      let ti = Topology.instantiate topology ~n ~seed in
      Some (ti, csr_create ~n ~codec ti)
    end
  in
  let master = Ba_prng.Rng.create seed in
  let node_rngs = Ba_prng.Rng.split_n master n in
  let ctx_of v = { Protocol.n; t; me = v; rng = node_rngs.(v) } in
  let states = Array.init n (fun v -> protocol.init (ctx_of v) ~input:inputs.(v)) in
  let corrupted = Array.make n false in
  let halted = Array.make n false in
  let corruptions_used = ref 0 in
  let metrics = Metrics.create () in
  let meter payload ~byzantine =
    let bits = protocol.msg_bits payload in
    Metrics.record_message metrics ~bits ~words:(protocol.msg_words payload) ~byzantine;
    match congest_limit_bits with
    | Some limit when bits > limit -> Metrics.record_congest_violation metrics
    | Some _ | None -> ()
  in
  let records = ref [] in
  (* One packed-code slab for the whole run, repacked in place each benign
     broadcast round (DESIGN.md section 10). *)
  let slab = Array.make (max n 1) Plane.absent in
  let live v = (not corrupted.(v)) && not halted.(v) in
  let all_honest_halted () =
    let stop = ref true in
    for v = 0 to n - 1 do
      if live v then stop := false
    done;
    !stop
  in
  let round = ref 0 in
  let completed = ref (all_honest_halted ()) in
  let emit e = match trace with Some f -> f e | None -> () in
  while (not !completed) && !round < max_rounds do
    incr round;
    let r = !round in
    Metrics.record_round metrics;
    emit (Run.Tick { index = r });
    (* 1. Honest nodes commit their round broadcasts. *)
    let honest_msgs =
      Array.init n (fun v -> if live v then protocol.send (ctx_of v) states.(v) ~round:r else None)
    in
    (* 1b. Crash-recovery schedules suppress broadcasts of silenced nodes
       (the node keeps receiving and stepping, so it stays in sync). The
       rushing adversary observes the silence like everything else. *)
    (match faults with
    | Some inst ->
        for v = 0 to n - 1 do
          if live v && Option.is_some honest_msgs.(v) && Faults.silenced inst ~node:v ~round:r
          then begin
            honest_msgs.(v) <- None;
            Metrics.record_crash_silence metrics
          end
        done
    | None -> ());
    (* 2. The rushing adversary observes everything and acts. *)
    let view =
      { Adversary.round = r;
        n;
        t;
        corrupted = Array.copy corrupted;
        budget_left = t - !corruptions_used;
        halted = Array.copy halted;
        honest_msgs = Array.copy honest_msgs;
        states = Array.init n (fun v -> if live v then Some states.(v) else None);
        views =
          Array.init n (fun v -> if live v then protocol.inspect states.(v) else None) }
    in
    let action = adversary.act view in
    (* 3. Apply corruptions, clamped to the remaining budget. *)
    let new_corruptions = ref [] in
    List.iter
      (fun v ->
        if v >= 0 && v < n && (not corrupted.(v)) && !corruptions_used < t then begin
          corrupted.(v) <- true;
          incr corruptions_used;
          emit (Run.Corrupt { index = r; node = v });
          new_corruptions := v :: !new_corruptions;
          (* Rushing adaptivity: the just-produced honest broadcast of a
             newly corrupted node never reaches anyone. *)
          honest_msgs.(v) <- None
        end)
      action.corrupt;
    (* 4. Delivery + 5. recv for each live honest node. Under a restricted
       topology, delivery routes through per-recipient sparse plane slices
       (first arm below; DESIGN.md §13). On the dense plan, three modes,
       all observably identical to per-link delivery (same metrics, same
       RNG draw order — the determinism proof obligation of DESIGN.md §10):

       - benign broadcast (no fault instance, no corrupted node): every
         live recipient's inbox is the same array, so one shared plane is
         packed once and recv fans out over it — optionally sharded across
         domains, each shard on its own cache view;
       - Byzantine senders, no link faults: per-recipient copy of the
         honest slab patched by [byz_msg] (corrupted senders ascending,
         recipients ascending — the draw order of the old per-link loop);
       - link faults: the old exact per-link loop, [Faults.deliver] on
         every (src, dst) pair in the original order, as index-level edits
         on the copied slab. *)
    let new_states = Array.copy states in
    let corrupted_now = ref [] in
    for v = n - 1 downto 0 do
      if corrupted.(v) then corrupted_now := v :: !corrupted_now
    done;
    (match (topo, faults, !corrupted_now) with
    | Some (ti, c), _, _ ->
        (* Restricted topology: a two-pass CSR build (see [csr] above),
           entirely on the calling domain and src-ascending — sampling,
           Byzantine patching, fault draws and metering all happen in pass
           1 in the per-link order, so outcomes are byte-identical at any
           shard count. Byzantine traffic is constrained to the sender's
           sampled links: corruption buys a node's slots in the topology,
           not extra edges (DESIGN.md §13). *)
        let dst = c.c_dst and cnt = c.c_cur in
        Array.fill cnt 0 n 0;
        let e = ref 0 in
        let keep u =
          dst.(!e) <- u;
          cnt.(u) <- cnt.(u) + 1;
          incr e
        in
        for v = 0 to n - 1 do
          c.c_seg.(v) <- !e;
          if corrupted.(v) then begin
            let pay = csr_payloads c in
            let lo = !e in
            let k = Topology.recipients_into ti ~round:r ~src:v dst ~pos:lo in
            for i = lo to lo + k - 1 do
              let u = dst.(i) in
              if live u then begin
                let raw = action.byz_msg ~src:v ~dst:u in
                let m =
                  match faults with
                  | None -> raw
                  | Some inst -> Faults.deliver inst ~metrics ~round:r ~src:v ~dst:u raw
                in
                match m with
                | Some p ->
                    meter p ~byzantine:true;
                    pay.(!e) <- m;
                    keep u
                | None -> ()
              end
            done
          end
          else if live v then
            match honest_msgs.(v) with
            | Some p as m -> (
                (* a node always hears itself, unmetered — as on the dense
                   plane *)
                let self = !e in
                keep v;
                let k = Topology.recipients_into ti ~round:r ~src:v dst ~pos:!e in
                let lo = !e in
                match faults with
                | None ->
                    for i = lo to lo + k - 1 do
                      if live dst.(i) then keep dst.(i)
                    done;
                    let copies = !e - lo in
                    if copies > 0 then begin
                      let bits = protocol.msg_bits p in
                      Metrics.record_broadcast metrics ~bits ~words:(protocol.msg_words p)
                        ~copies ~byzantine:false;
                      match congest_limit_bits with
                      | Some limit when bits > limit ->
                          Metrics.record_congest_violations metrics copies
                      | Some _ | None -> ()
                    end;
                    c.c_sender_code.(v) <-
                      (match codec with Some enc -> enc p | None -> Plane.absent)
                | Some inst ->
                    let pay = csr_payloads c in
                    pay.(self) <- m;
                    for i = lo to lo + k - 1 do
                      let u = dst.(i) in
                      if live u then
                        match Faults.deliver inst ~metrics ~round:r ~src:v ~dst:u m with
                        | Some p' as m' ->
                            meter p' ~byzantine:false;
                            pay.(!e) <- m';
                            keep u
                        | None -> ()
                    done)
            | None -> ()
        done;
        c.c_seg.(n) <- !e;
        let off = c.c_off and srcs = c.c_srcs and msgs = c.c_msgs in
        for u = 0 to n - 1 do
          off.(u + 1) <- off.(u) + cnt.(u);
          cnt.(u) <- off.(u)
        done;
        for v = 0 to n - 1 do
          let lo = c.c_seg.(v) and hi = c.c_seg.(v + 1) in
          let per_edge = corrupted.(v) || Option.is_some faults in
          let m = honest_msgs.(v) and code = c.c_sender_code.(v) in
          for i = lo to hi - 1 do
            let u = dst.(i) in
            let k = cnt.(u) in
            cnt.(u) <- k + 1;
            srcs.(k) <- v;
            if per_edge then begin
              let m = c.c_pay.(i) in
              msgs.(k) <- m;
              match (c.c_codes, codec, m) with
              | Some codes, Some enc, Some p -> codes.(k) <- enc p
              | _ -> ()
            end
            else begin
              msgs.(k) <- m;
              match c.c_codes with Some codes -> codes.(k) <- code | None -> ()
            end
          done
        done;
        sharded sharder ~n (fun lo hi () ->
            for u = lo to hi do
              if live u then
                new_states.(u) <-
                  protocol.recv (ctx_of u) states.(u) ~round:r
                    ~inbox:
                      (Plane.sparse_slice ?codes:c.c_codes ~n ~srcs ~msgs ~lo:off.(u)
                         ~hi:off.(u + 1) ())
            done)
    | None, None, [] ->
        let live_recipients = ref 0 in
        for v = 0 to n - 1 do
          if live v then incr live_recipients
        done;
        for v = 0 to n - 1 do
          match honest_msgs.(v) with
          | Some payload ->
              let copies = !live_recipients - if live v then 1 else 0 in
              if copies > 0 then begin
                let bits = protocol.msg_bits payload in
                Metrics.record_broadcast metrics ~bits ~words:(protocol.msg_words payload) ~copies
                  ~byzantine:false;
                match congest_limit_bits with
                | Some limit when bits > limit ->
                    Metrics.record_congest_violations metrics copies
                | Some _ | None -> ()
              end
          | None -> ()
        done;
        let plane = Plane.shared ?encode:codec ~slab honest_msgs in
        sharded sharder ~n (fun lo hi ->
            let view = Plane.shard_view plane in
            fun () ->
              for u = lo to hi do
                if live u then
                  new_states.(u) <- protocol.recv (ctx_of u) states.(u) ~round:r ~inbox:view
              done)
    | None, None, cs ->
        for u = 0 to n - 1 do
          if live u then begin
            let data = Array.copy honest_msgs in
            List.iter (fun v -> data.(v) <- action.byz_msg ~src:v ~dst:u) cs;
            for v = 0 to n - 1 do
              if v <> u then
                match data.(v) with
                | Some payload -> meter payload ~byzantine:corrupted.(v)
                | None -> ()
            done;
            new_states.(u) <-
              protocol.recv (ctx_of u) states.(u) ~round:r ~inbox:(Plane.of_array ?encode:codec data)
          end
        done
    | None, Some inst, _ ->
        for u = 0 to n - 1 do
          if live u then begin
            let data = Array.copy honest_msgs in
            for v = 0 to n - 1 do
              if v <> u then begin
                let raw, byzantine =
                  if corrupted.(v) then (action.byz_msg ~src:v ~dst:u, true) else (data.(v), false)
                in
                (* Benign link faults apply to honest and Byzantine payloads
                   alike; self-delivery is exempt (a node always hears itself
                   unless silenced above). *)
                let m = Faults.deliver inst ~metrics ~round:r ~src:v ~dst:u raw in
                (match m with Some payload -> meter payload ~byzantine | None -> ());
                data.(v) <- m
              end
            done;
            new_states.(u) <-
              protocol.recv (ctx_of u) states.(u) ~round:r ~inbox:(Plane.of_array ?encode:codec data)
          end
        done);
    Array.blit new_states 0 states 0 n;
    for v = 0 to n - 1 do
      if (not corrupted.(v)) && (not halted.(v)) && protocol.halted states.(v) then
        halted.(v) <- true
    done;
    if record then begin
      let rr_views =
        Array.init n (fun v ->
            if corrupted.(v) then None else protocol.inspect states.(v))
      in
      records :=
        { rr_round = r; rr_new_corruptions = List.rev !new_corruptions; rr_views }
        :: !records
    end;
    completed := all_honest_halted ()
  done;
  let outputs =
    Array.init n (fun v -> if corrupted.(v) then None else protocol.output states.(v))
  in
  { protocol_name = protocol.name;
    adversary_name = adversary.adv_name;
    n;
    t;
    inputs = Array.copy inputs;
    rounds = !round;
    completed = !completed;
    outputs;
    corrupted = Array.copy corrupted;
    corruptions_used = !corruptions_used;
    metrics;
    records = List.rev !records }

(* Projection into the engine-agnostic substrate. The arrays are shared,
   not copied: an outcome is immutable once returned. *)
let to_run o =
  { Run.protocol_name = o.protocol_name;
    adversary_name = o.adversary_name;
    n = o.n;
    t = o.t;
    inputs = o.inputs;
    span = Run.Rounds o.rounds;
    completed = o.completed;
    outputs = o.outputs;
    corrupted = o.corrupted;
    corruptions_used = o.corruptions_used;
    metrics = o.metrics }

let honest_outputs o = Run.honest_outputs (to_run o)

let all_honest_decided o = Run.all_honest_decided (to_run o)

let agreement_holds o = Run.agreement_holds (to_run o)

let validity_holds o = Run.validity_holds (to_run o)
