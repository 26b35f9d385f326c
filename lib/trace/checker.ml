type violation = { check : string; detail : string }

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.check v.detail

let fail check fmt = Format.kasprintf (fun detail -> [ { check; detail } ]) fmt

let agreement (o : Ba_sim.Run.outcome) =
  match Ba_sim.Run.honest_outputs o with
  | [] -> []
  | (v0, b0) :: rest -> (
      match List.find_opt (fun (_, b) -> b <> b0) rest with
      | Some (v, b) ->
          fail "agreement" "node %d output %d but node %d output %d" v0 b0 v b
      | None -> [])

let validity (o : Ba_sim.Run.outcome) =
  if Ba_sim.Run.validity_holds o then []
  else begin
    let b = ref None in
    Array.iteri (fun v x -> if (not o.corrupted.(v)) && !b = None then b := Some x) o.inputs;
    fail "validity" "honest inputs unanimous on %s but some output differs"
      (match !b with Some x -> string_of_int x | None -> "?")
  end

let completion (o : Ba_sim.Run.outcome) =
  if not o.completed then
    (match o.span with
    | Ba_sim.Run.Rounds r -> fail "completion" "hit the round cap after %d rounds" r
    | Ba_sim.Run.Steps s -> fail "completion" "hit the step cap after %d scheduler steps" s)
  else if not (Ba_sim.Run.all_honest_decided o) then
    fail "completion" "some honest node halted without an output"
  else []

let benign_faults (o : Ba_sim.Run.outcome) =
  let m = o.metrics in
  let events = Ba_sim.Metrics.fault_events m in
  if events > 0 then
    fail "benign-faults"
      "%d benign fault events metered (drop=%d dup=%d corrupt=%d silence=%d) in a run checked \
       as fault-free"
      events
      (Ba_sim.Metrics.link_drops m)
      (Ba_sim.Metrics.link_duplicates m)
      (Ba_sim.Metrics.link_corruptions m)
      (Ba_sim.Metrics.crash_silences m)
  else []

let congest (o : Ba_sim.Run.outcome) =
  let v = Ba_sim.Metrics.congest_violations o.metrics in
  if v > 0 then
    fail "congest" "%d payloads exceeded the configured CONGEST limit (max seen: %d bits)" v
      (Ba_sim.Metrics.max_bits_per_message o.metrics)
  else []

let corruption_budget (o : Ba_sim.Run.outcome) =
  (* Accumulate in report order (budget, count coherence, then per-round
     double corruptions chronologically) so the violation list is stable
     across runs and directly comparable in regression tests. *)
  let violations = ref [] in
  let push vs = violations := List.rev_append vs !violations in
  let count = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 o.corrupted in
  if count > o.t then
    push (fail "corruption-budget" "%d corrupted > budget t=%d" count o.t);
  if o.corruptions_used <> count then
    push
      (fail "corruption-budget" "used=%d but %d nodes marked corrupted" o.corruptions_used
         count);
  (* Each node corrupted at most once across records. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (r : Ba_sim.Run.round_record) ->
      List.iter
        (fun v ->
          if Hashtbl.mem seen v then
            push (fail "corruption-budget" "node %d corrupted twice (round %d)" v r.rr_round)
          else Hashtbl.add seen v ())
        r.rr_new_corruptions)
    o.records;
  List.rev !violations

let decided_coherence (o : Ba_sim.Run.outcome) =
  let violations = ref [] in
  let push vs = violations := List.rev_append vs !violations in
  List.iter
    (fun (r : Ba_sim.Run.round_record) ->
      let decided_val = ref None in
      Array.iteri
        (fun v nv ->
          match nv with
          | Some { Ba_sim.Protocol.nv_decided = true; nv_val; _ } -> (
              match !decided_val with
              | None -> decided_val := Some (v, nv_val)
              | Some (v0, b0) ->
                  if b0 <> nv_val then
                    push
                      (fail "decided-coherence"
                         "round %d: decided nodes %d (val %d) and %d (val %d) disagree" r.rr_round
                         v0 b0 v nv_val))
          | Some _ | None -> ())
        r.rr_views)
    o.records;
  List.rev !violations

let frozen_finishers (o : Ba_sim.Run.outcome) =
  let violations = ref [] in
  let push vs = violations := List.rev_append vs !violations in
  let frozen : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Ba_sim.Run.round_record) ->
      Array.iteri
        (fun v nv ->
          match nv with
          | Some { Ba_sim.Protocol.nv_finished = true; nv_val; _ } -> (
              match Hashtbl.find_opt frozen v with
              | None -> Hashtbl.add frozen v nv_val
              | Some b ->
                  if b <> nv_val then
                    push
                      (fail "frozen-finishers" "round %d: finished node %d changed %d -> %d"
                         r.rr_round v b nv_val))
          | Some _ | None -> ())
        r.rr_views)
    o.records;
  (* Iterate node ids in order, not the frozen table in hash order, so the
     violation list is identical across runs on the same trace. *)
  for v = 0 to Array.length o.corrupted - 1 do
    match Hashtbl.find_opt frozen v with
    | Some b when not o.corrupted.(v) -> (
        match o.outputs.(v) with
        | Some out when out <> b ->
            push (fail "frozen-finishers" "node %d froze %d but output %d" v b out)
        | Some _ -> ()
        | None -> push (fail "frozen-finishers" "node %d finished but has no output" v))
    | Some _ | None -> ()
  done;
  List.rev !violations

let termination_gap ~rounds_per_phase (o : Ba_sim.Run.outcome) =
  if not o.completed then []
  else begin
    let first_finish = ref None in
    List.iter
      (fun (r : Ba_sim.Run.round_record) ->
        if !first_finish = None then
          Array.iter
            (fun nv ->
              match nv with
              | Some { Ba_sim.Protocol.nv_finished = true; _ } ->
                  if !first_finish = None then first_finish := Some r.rr_round
              | Some _ | None -> ())
            r.rr_views)
      o.records;
    match !first_finish with
    | None -> []
    | Some r0 ->
        (* Lemma 4: everyone halts within two phases of the first finisher,
           plus the finisher's own grace phase. *)
        let window = 3 * rounds_per_phase in
        let rounds = Ba_sim.Run.span_units o.span in
        if rounds - r0 > window then
          fail "termination-gap" "first finisher at round %d but run lasted %d rounds (> %d gap)"
            r0 rounds window
        else []
  end

let standard ?rounds_per_phase ?(allow_faults = false) (o : Ba_sim.Run.outcome) =
  let record_checks =
    if o.records = [] then []
    else
      decided_coherence o @ frozen_finishers o
      @ (match rounds_per_phase with
        | Some rpp -> termination_gap ~rounds_per_phase:rpp o
        | None -> [])
  in
  agreement o @ validity o @ completion o @ corruption_budget o @ congest o
  @ (if allow_faults then [] else benign_faults o)
  @ record_checks

let standard_run = standard
