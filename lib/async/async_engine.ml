type ctx = { n : int; t : int; me : int; rng : Ba_prng.Rng.t }

type 'msg send = { to_ : int; payload : 'msg }

let broadcast ~n payload = List.init n (fun to_ -> { to_; payload })

type ('state, 'msg) protocol = {
  name : string;
  init : ctx -> input:int -> 'state * 'msg send list;
  on_message : ctx -> 'state -> src:int -> 'msg -> 'state * 'msg send list;
  output : 'state -> int option;
  msg_bits : 'msg -> int;
}

type 'msg pending = { id : int; src : int; dst : int; msg : 'msg; age : int }

type ('state, 'msg) view = {
  step : int;
  n : int;
  t : int;
  corrupted : bool array;
  budget_left : int;
  decided : bool array;
  pending : 'msg pending list;
  states : 'state option array;
}

type 'msg action = {
  deliver : int option;
  corrupt : int list;
  inject : (int * int * 'msg) list;
}

type ('state, 'msg) policy =
  | Opaque
  | Fifo_pick
  | Avoid_srcs of int list
  | Uniform_pick of Ba_prng.Rng.t
  | Scored of ('state, 'msg) scorer

and ('state, 'msg) scorer = {
  sc_rng : Ba_prng.Rng.t;
  sc_score : states:'state option array -> src:int -> dst:int -> msg:'msg -> int;
}

type ('state, 'msg) adversary = {
  adv_name : string;
  policy : ('state, 'msg) policy;
  act : ('state, 'msg) view -> 'msg action;
}

(* The reference semantics of each declared policy, as a plain [act] over
   the adversary view. The engine's fast paths replicate this behavior
   (and its PRNG draw pattern) against the slab without materializing the
   view; [opaque_of] forces any adversary through this generic route so
   tests can check the two stay byte-identical. *)
let act_of_policy policy view =
  let deliver =
    match (policy, view.pending) with
    | _, [] -> None
    | (Opaque | Fifo_pick), _ -> None
    | Avoid_srcs victims, ps -> (
        match List.find_opt (fun p -> not (List.mem p.src victims)) ps with
        | Some p -> Some p.id
        | None -> None)
    | Uniform_pick rng, ps -> Some (Ba_prng.Rng.choose rng (Array.of_list ps)).id
    | Scored { sc_rng; sc_score }, ps ->
        let score p = sc_score ~states:view.states ~src:p.src ~dst:p.dst ~msg:p.msg in
        let best = List.fold_left (fun acc p -> min acc (score p)) max_int ps in
        let candidates = List.filter (fun p -> score p = best) ps in
        Some (Ba_prng.Rng.choose sc_rng (Array.of_list candidates)).id
  in
  { deliver; corrupt = []; inject = [] }

let scheduler ~name policy = { adv_name = name; policy; act = act_of_policy policy }

let opaque ~name act = { adv_name = name; policy = Opaque; act }

let opaque_of adv = { adv with policy = Opaque }

let fifo =
  { adv_name = "fifo";
    policy = Fifo_pick;
    act = (fun _ -> { deliver = None; corrupt = []; inject = [] }) }

let validate ~n ~t ~inputs =
  if t < 0 || t >= n then invalid_arg "Async_engine.run: need 0 <= t < n";
  if Array.length inputs <> n then invalid_arg "Async_engine.run: inputs length <> n";
  Array.iter
    (fun b -> if b <> 0 && b <> 1 then invalid_arg "Async_engine.run: inputs must be 0/1")
    inputs

let run ?max_steps ?max_delay ?faults ?trace ?sharder
    ~(protocol : ('state, 'msg) protocol) ~(adversary : ('state, 'msg) adversary) ~n ~t
    ~inputs ~seed () =
  validate ~n ~t ~inputs;
  let max_steps = Option.value max_steps ~default:(5000 * n) in
  let max_delay = Option.value max_delay ~default:(8 * n) in
  let faults =
    match faults with
    | Some plan when not (Ba_sim.Faults.is_none plan) ->
        Some (Ba_sim.Faults.instantiate plan ~n ~seed)
    | Some _ | None -> None
  in
  let master = Ba_prng.Rng.create seed in
  let node_rngs = Ba_prng.Rng.split_n master n in
  let ctx_of v = { n; t; me = v; rng = node_rngs.(v) } in
  let corrupted = Array.make n false in
  let corruptions_used = ref 0 in
  let metrics = Ba_sim.Metrics.create () in
  let emit e = match trace with Some f -> f e | None -> () in
  let mb : 'msg Mailbox.t = Mailbox.create ~n () in
  let step = ref 0 in
  let states = Array.make n None in
  (* Decisions are sticky (the protocol contract: [output] is "decided
     value, once set"), so completion can be tracked incrementally instead
     of scanning every node after every delivery. The benign fast paths
     below rely on this; the opaque path keeps the legacy full scan. *)
  let decided = Array.make n false in
  let decided_count = ref 0 in
  let note_decided v st =
    if (not decided.(v)) && protocol.output st <> None then begin
      decided.(v) <- true;
      incr decided_count
    end
  in
  (* [at] is the scheduler step the enqueue semantically happens at: the
     current step on the serial paths, the per-position step during a
     batched commit. Silence windows are indexed by it. *)
  let enqueue_at ~src ~at sends =
    if not corrupted.(src) then begin
      let silent =
        match faults with
        | Some inst -> Ba_sim.Faults.silenced inst ~node:src ~round:at
        | None -> false
      in
      List.iter
        (fun { to_; payload } ->
          if to_ >= 0 && to_ < n then
            if silent then begin
              Ba_sim.Metrics.record_crash_silence metrics;
              emit (Ba_sim.Run.Fault
                      { index = at; kind = Ba_sim.Run.Silence; src; dst = to_ })
            end
            else ignore (Mailbox.enqueue mb ~src ~dst:to_ ~birth:at payload : int))
        sends
    end
  in
  let enqueue ~src sends = enqueue_at ~src ~at:!step sends in
  for v = 0 to n - 1 do
    let st, sends = protocol.init (ctx_of v) ~input:inputs.(v) in
    states.(v) <- Some st;
    note_decided v st;
    enqueue ~src:v sends
  done;
  let state_of v = match states.(v) with Some s -> s | None -> assert false in
  let all_decided () =
    let ok = ref true in
    for v = 0 to n - 1 do
      if (not corrupted.(v)) && protocol.output (state_of v) = None then ok := false
    done;
    !ok
  in
  let deliver ~src ~dst msg =
    if dst >= 0 && dst < n && not corrupted.(dst) then begin
      (* Link faults apply at delivery time, in scheduler order — the one
         deterministic total order an async run has — so the fault stream
         replays bit-for-bit from (seed, plan). *)
      let payload =
        match faults with
        | Some inst when src <> dst ->
            let d = Ba_sim.Faults.apply_async inst ~metrics ~src ~dst msg in
            (match d.Ba_sim.Faults.d_payload with
            | None ->
                emit (Ba_sim.Run.Fault
                        { index = !step; kind = Ba_sim.Run.Drop; src; dst })
            | Some m ->
                if d.Ba_sim.Faults.d_mutated then
                  emit (Ba_sim.Run.Fault
                          { index = !step; kind = Ba_sim.Run.Corrupt_payload; src; dst });
                if d.Ba_sim.Faults.d_duplicate then begin
                  (* The copy becomes a fresh scheduler-visible message the
                     adversary orders like any other. *)
                  ignore (Mailbox.enqueue mb ~src ~dst ~birth:!step m : int);
                  emit (Ba_sim.Run.Fault
                          { index = !step; kind = Ba_sim.Run.Duplicate; src; dst })
                end);
            d.Ba_sim.Faults.d_payload
        | Some _ | None -> Some msg
      in
      match payload with
      | None -> ()
      | Some msg ->
          let bits = protocol.msg_bits msg in
          Ba_sim.Metrics.record_message metrics ~bits ~byzantine:corrupted.(src);
          emit (Ba_sim.Run.Deliver
                  { index = !step; src; dst; bits; byzantine = corrupted.(src) });
          let st, sends = protocol.on_message (ctx_of dst) (state_of dst) ~src msg in
          states.(dst) <- Some st;
          note_decided dst st;
          enqueue ~src:dst sends
    end
  in
  let completed = ref (all_decided ()) in
  let victims_of vs =
    let a = Array.make n false in
    List.iter (fun v -> if v >= 0 && v < n then a.(v) <- true) vs;
    a
  in
  (* Oldest pending message whose sender is not a victim: the minimum id
     over the per-src mailbox heads — O(n), not O(queue). *)
  let first_non_victim victim =
    let best = ref (-1) in
    let best_id = ref max_int in
    for v = 0 to n - 1 do
      if not victim.(v) then begin
        let h = Mailbox.head_src mb v in
        if h <> -1 && Mailbox.id mb h < !best_id then begin
          best := h;
          best_id := Mailbox.id mb h
        end
      end
    done;
    !best
  in
  let pick_scored sc_rng sc_score =
    (* Mirrors [act_of_policy]: minimum score wins, ties broken by one
       uniform draw over the tied candidates in id order. Scores are
       cached per slot in the slab scratch between the two walks. *)
    let scr = Mailbox.scratch mb in
    let best = ref max_int in
    let s = ref (Mailbox.head mb) in
    while !s <> -1 do
      let sc =
        sc_score ~states ~src:(Mailbox.src mb !s) ~dst:(Mailbox.dst mb !s)
          ~msg:(Mailbox.msg mb !s)
      in
      scr.(!s) <- sc;
      if sc < !best then best := sc;
      s := Mailbox.next_global mb !s
    done;
    let count = ref 0 in
    let s = ref (Mailbox.head mb) in
    while !s <> -1 do
      if scr.(!s) = !best then incr count;
      s := Mailbox.next_global mb !s
    done;
    let k = Ba_prng.Rng.int sc_rng !count in
    let s = ref (Mailbox.head mb) in
    let seen = ref 0 in
    let found = ref (-1) in
    while !found = -1 do
      if scr.(!s) = !best then
        if !seen = k then found := !s else incr seen;
      if !found = -1 then s := Mailbox.next_global mb !s
    done;
    !found
  in
  (* ---- Opaque path: the legacy loop, semantics-complete (adaptive
     corruption, injections, deliver-by-id), now walking the slab instead
     of folding a Hashtbl. Byte-identical to the pre-slab engine: the
     global list is already id-sorted, and because ids are monotone in
     birth the minimum-id stale message is the global head. ---- *)
  let generic () =
    while (not !completed) && !step < max_steps do
      incr step;
      emit (Ba_sim.Run.Tick { index = !step });
      let pending =
        let rec collect s acc =
          if s = -1 then List.rev acc
          else
            collect (Mailbox.next_global mb s)
              ({ id = Mailbox.id mb s;
                 src = Mailbox.src mb s;
                 dst = Mailbox.dst mb s;
                 msg = Mailbox.msg mb s;
                 age = !step - Mailbox.birth mb s }
              :: acc)
        in
        collect (Mailbox.head mb) []
      in
      let view =
        { step = !step;
          n;
          t;
          corrupted = Array.copy corrupted;
          budget_left = t - !corruptions_used;
          decided =
            Array.init n (fun v ->
                (not corrupted.(v)) && protocol.output (state_of v) <> None);
          pending;
          states = Array.init n (fun v -> if corrupted.(v) then None else states.(v)) }
      in
      let action = adversary.act view in
      (* Adaptive corruption: the victim's undelivered messages are
         retracted (the adversary may re-inject whatever it likes). *)
      List.iter
        (fun v ->
          if v >= 0 && v < n && (not corrupted.(v)) && !corruptions_used < t then begin
            corrupted.(v) <- true;
            incr corruptions_used;
            emit (Ba_sim.Run.Corrupt { index = !step; node = v });
            Mailbox.remove_src mb v
          end)
        action.corrupt;
      (* Byzantine injections: delivered immediately, capped at n per step. *)
      let injections = List.filteri (fun i _ -> i < n) action.inject in
      List.iter
        (fun (src, dst, msg) ->
          if src >= 0 && src < n && corrupted.(src) then deliver ~src ~dst msg)
        injections;
      (* Scheduling: bounded-delay fairness first, then the adversary's
         pick, then FIFO (= the global head). *)
      let chosen =
        let h = Mailbox.head mb in
        if h = -1 then -1
        else if !step - Mailbox.birth mb h >= max_delay then h
        else
          match action.deliver with
          | Some id -> ( match Mailbox.find_by_id mb id with -1 -> h | s -> s)
          | None -> h
      in
      if chosen <> -1 then begin
        let src = Mailbox.src mb chosen
        and dst = Mailbox.dst mb chosen
        and m = Mailbox.msg mb chosen in
        Mailbox.remove mb chosen;
        deliver ~src ~dst m
      end;
      completed := all_decided ();
      if (not !completed) && chosen = -1 && action.inject = [] then
        (* Deadlock: nothing in flight, nothing injected, not all decided. *)
        step := max_steps
    done
  in
  (* ---- Serial fast path for the declared pure-scheduler policies: no
     view materialization, no per-step full scans; the policy's PRNG draws
     are replayed exactly as [act_of_policy] would make them (draw first,
     bounded-delay override after, matching the act-then-override order of
     the generic loop). ---- *)
  let serial_fast () =
    let pick =
      match adversary.policy with
      | Opaque -> assert false
      | Fifo_pick -> fun () -> Mailbox.head mb
      | Avoid_srcs vs ->
          let victim = victims_of vs in
          fun () -> (
            match first_non_victim victim with -1 -> Mailbox.head mb | s -> s)
      | Uniform_pick rng ->
          fun () -> Mailbox.nth_global mb (Ba_prng.Rng.int rng (Mailbox.size mb))
      | Scored { sc_rng; sc_score } -> fun () -> pick_scored sc_rng sc_score
    in
    while (not !completed) && !step < max_steps do
      incr step;
      emit (Ba_sim.Run.Tick { index = !step });
      let h = Mailbox.head mb in
      if h = -1 then
        (* Pure schedulers never inject, so an empty queue is a deadlock. *)
        step := max_steps
      else begin
        let p = pick () in
        let chosen = if !step - Mailbox.birth mb h >= max_delay then h else p in
        let src = Mailbox.src mb chosen
        and dst = Mailbox.dst mb chosen
        and m = Mailbox.msg mb chosen in
        Mailbox.remove mb chosen;
        deliver ~src ~dst m;
        completed := !decided_count = n
      end
    done
  in
  (* ---- Batched path (fifo / delayer, no trace): plan a run of picks
     from the current queue, pre-draw their link faults in plan order,
     drain each destination's whole mailbox chain in one activation
     (optionally sharded across domains — destinations are independent:
     a domain only reads the immutable plan and writes its own
     destinations' result cells), then commit serially in plan order.
     Commit is where ids, metering, silence checks and state writes
     happen, at each position's own step number, so the result is
     byte-identical to the serial loop; a mid-batch completion stops the
     commit and discards the uncommitted tail exactly as the serial loop
     would never have executed it (the overshot fault/node PRNG draws are
     unobservable — the run ends). See DESIGN.md section 15. ---- *)
  let batched () =
    let cap = ref 0 in
    let p_src = ref [||]
    and p_dst = ref [||]
    and p_drop = ref [||]
    and p_mut = ref [||]
    and p_dup = ref [||]
    and p_msg = ref [||]
    and p_next = ref [||]
    and r_state = ref [||]
    and r_sends = ref [||] in
    let dhead = Array.make n (-1) in
    let dtail = Array.make n (-1) in
    let ensure len filler_msg filler_state =
      if len > !cap then begin
        let c = max 64 (max len (2 * !cap)) in
        p_src := Array.make c 0;
        p_dst := Array.make c 0;
        p_drop := Array.make c false;
        p_mut := Array.make c false;
        p_dup := Array.make c false;
        p_msg := Array.make c filler_msg;
        p_next := Array.make c (-1);
        r_state := Array.make c filler_state;
        r_sends := Array.make c [];
        cap := c
      end
    in
    let victim =
      match adversary.policy with Avoid_srcs vs -> Some (victims_of vs) | _ -> None
    in
    while (not !completed) && !step < max_steps do
      let h0 = Mailbox.head mb in
      if h0 = -1 then step := max_steps
      else begin
        let s0 = !step in
        let budget = max_steps - s0 in
        ensure (min (Mailbox.size mb) budget) (Mailbox.msg mb h0) (state_of 0);
        let p_src = !p_src
        and p_dst = !p_dst
        and p_drop = !p_drop
        and p_mut = !p_mut
        and p_dup = !p_dup
        and p_msg = !p_msg
        and p_next = !p_next
        and r_state = !r_state
        and r_sends = !r_sends in
        (* 1. Plan: pop determined picks off the queue, pre-drawing their
           faults. Arrivals (responses, duplicates) all carry ids above
           every queued message, so they can never preempt a planned pick;
           the one exception is the delayer's all-victims FIFO fallback,
           where a same-batch response from a non-victim would win — the
           plan stops there. *)
        let len = ref 0 in
        let stop_plan = ref false in
        while (not !stop_plan) && !len < budget do
          let h = Mailbox.head mb in
          if h = -1 then stop_plan := true
          else begin
            let sp = s0 + !len + 1 in
            let pick =
              match victim with
              | None -> h
              | Some vict ->
                  if sp - Mailbox.birth mb h >= max_delay then h
                  else first_non_victim vict
            in
            if pick = -1 then stop_plan := true
            else begin
              let src = Mailbox.src mb pick and dst = Mailbox.dst mb pick in
              let m = Mailbox.msg mb pick in
              Mailbox.remove mb pick;
              let p = !len in
              p_src.(p) <- src;
              p_dst.(p) <- dst;
              (match faults with
              | Some inst when src <> dst -> (
                  let d = Ba_sim.Faults.draw_async inst ~src ~dst m in
                  match d.Ba_sim.Faults.d_payload with
                  | None ->
                      p_drop.(p) <- true;
                      p_mut.(p) <- false;
                      p_dup.(p) <- false
                  | Some m' ->
                      p_drop.(p) <- false;
                      p_mut.(p) <- d.Ba_sim.Faults.d_mutated;
                      p_dup.(p) <- d.Ba_sim.Faults.d_duplicate;
                      p_msg.(p) <- m')
              | Some _ | None ->
                  p_drop.(p) <- false;
                  p_mut.(p) <- false;
                  p_dup.(p) <- false;
                  p_msg.(p) <- m);
              incr len
            end
          end
        done;
        if !len = 0 then begin
          (* Delayer corner: every sender is a victim and the head is not
             yet stale, so the next pick is the FIFO fallback whose
             successor depends on this very step's responses — take one
             serial step and retry the batch. *)
          incr step;
          let h = Mailbox.head mb in
          let src = Mailbox.src mb h and dst = Mailbox.dst mb h and m = Mailbox.msg mb h in
          Mailbox.remove mb h;
          deliver ~src ~dst m;
          completed := !decided_count = n
        end
        else begin
          (* 2. Group the surviving deliveries into per-destination
             activation chains (plan order within each destination). *)
          Array.fill dhead 0 n (-1);
          Array.fill dtail 0 n (-1);
          for p = 0 to !len - 1 do
            if not p_drop.(p) then begin
              let v = p_dst.(p) in
              p_next.(p) <- -1;
              if dtail.(v) = -1 then dhead.(v) <- p else p_next.(dtail.(v)) <- p;
              dtail.(v) <- p
            end
          done;
          (* 3. Activate: drain each destination's whole chain, threading
             its state. Destinations are independent, so this is the part
             the sharder may fan out across domains. *)
          let process lo hi =
            for v = lo to hi - 1 do
              let p = ref dhead.(v) in
              if !p <> -1 then begin
                let ctx = ctx_of v in
                let st = ref (state_of v) in
                while !p <> -1 do
                  let st', sends = protocol.on_message ctx !st ~src:p_src.(!p) p_msg.(!p) in
                  st := st';
                  r_state.(!p) <- st';
                  r_sends.(!p) <- sends;
                  p := p_next.(!p)
                done
              end
            done
          in
          (match sharder with
          | Some sh when sh.Ba_sim.Engine.s_shards > 1 && !len >= 2 * n ->
              let shards = min sh.Ba_sim.Engine.s_shards n in
              let chunk = (n + shards - 1) / shards in
              let thunks =
                Array.init shards (fun i ->
                    let lo = i * chunk in
                    let hi = min n (lo + chunk) in
                    fun () -> if lo < hi then process lo hi)
              in
              sh.Ba_sim.Engine.s_run thunks
          | Some _ | None -> process 0 n);
          (* 4. Commit in plan order at each position's own step number. *)
          let p = ref 0 in
          let stop = ref false in
          while (not !stop) && !p < !len do
            let q = !p in
            let sp = s0 + q + 1 in
            let src = p_src.(q) and dst = p_dst.(q) in
            if p_drop.(q) then Ba_sim.Metrics.record_link_drop metrics
            else begin
              if p_mut.(q) then Ba_sim.Metrics.record_link_corruption metrics;
              if p_dup.(q) then begin
                Ba_sim.Metrics.record_link_duplicate metrics;
                ignore (Mailbox.enqueue mb ~src ~dst ~birth:sp p_msg.(q) : int)
              end;
              Ba_sim.Metrics.record_message metrics ~bits:(protocol.msg_bits p_msg.(q))
                ~byzantine:false;
              states.(dst) <- Some r_state.(q);
              enqueue_at ~src:dst ~at:sp r_sends.(q);
              note_decided dst r_state.(q);
              if !decided_count = n then stop := true
            end;
            incr p
          done;
          step := s0 + !p;
          completed := !decided_count = n
        end
      end
    done
  in
  (match adversary.policy with
  | Opaque -> generic ()
  | Uniform_pick _ | Scored _ ->
      (* Sequential-draw schedulers: each pick's PRNG draw depends on the
         previous delivery, so there is nothing to batch — but the slab
         walk and incremental completion already carry the speedup. *)
      serial_fast ()
  | Fifo_pick | Avoid_srcs _ -> (
      match trace with Some _ -> serial_fast () | None -> batched ()));
  { Ba_sim.Run.protocol_name = protocol.name;
    adversary_name = adversary.adv_name;
    n;
    t;
    inputs = Array.copy inputs;
    span = Ba_sim.Run.Steps !step;
    completed = !completed;
    outputs =
      Array.init n (fun v -> if corrupted.(v) then None else protocol.output (state_of v));
    corrupted = Array.copy corrupted;
    corruptions_used = !corruptions_used;
    metrics;
    records = [] }

(* The identity: [run] already returns the substrate record. *)
let to_run = Fun.id
