(* One benchmark run: set-up probes, a closed loop of timed trials, the
   outcome digests, and the metrics it prints.

   The loop is closed and single-threaded (1 domain): trial [i+1] starts
   when trial [i] returns. Every trial's outcome goes through
   [Checker.standard_run]; a trial that raises, hits the engine's round or
   step cap, or fails an audit counts as failed.

   With [trace = false] the run measures the end-to-end metrics. With
   [trace = true] every trial index runs twice, untraced and then with the
   [Layers] wrappers, and the run reports the per-layer metrics per traced
   trial plus the tracing overhead: traced over untraced trial time on
   the same trials, which the pairing keeps free of warm-up and drift.

   Either way it then re-runs the first trials untraced, traced, and
   through [Setups] (the repeat), and fails unless all three give the same
   outcome digests. *)

open Ba_sim

let now_ns = Layers.now_ns

type config = {
  workload : Workload.t;  (** already shrunk when [smoke] *)
  smoke : bool;
  seed : int64;
  seconds : float;
  trace : bool;
  spans_dir : string option;  (** where a traced run writes its spans *)
}

(* The first trials of every run are re-run traced and through [Setups];
   three cover each Ben-Or scheduler once. *)
let verify_trials = 3

type metric = { name : string; value : float; unit_ : string; note : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

(* ---------- statistics ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest whole percentile with at least ten trials beyond its
   (nearest-rank) value: [(p, value, beyond)]. [None] below 11 trials. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 11 then None
  else
    let p = 100 * (n - 10) / n in
    let rank = max 1 (((p * n) + 99) / 100) in
    Some (p, a.(rank - 1), n - rank)

(* ---------- trials ---------- *)

(* What a loop keeps of its trials: each trial's time, unboxed and at the
   trial's index, so the loop's own bookkeeping stays small next to the
   heap it measures; everything else is summed.

   A trial's time is the process CPU time its engine call took. A trial is
   single-threaded and never blocks, so that is its wall time minus the
   stretches in which the host ran something else; on a shared host those
   stalls (a few ms, every second and in bursts) would otherwise decide
   the tail of millisecond trials. *)
type phase = {
  mutable times_s : Float.Array.t;
  mutable trials : int;
  mutable total_s : float;
  mutable deliveries : int;  (** [Metrics.messages] *)
  mutable alloc_words : float;  (** minor + major - promoted *)
  mutable failed : int;
}

let phase () =
  { times_s = Float.Array.create 1024; trials = 0; total_s = 0.0; deliveries = 0;
    alloc_words = 0.0; failed = 0 }

let add_trial p ~cpu_s ~deliveries ~alloc_words ~failed =
  if p.trials = Float.Array.length p.times_s then begin
    let bigger = Float.Array.create (2 * p.trials) in
    Float.Array.blit p.times_s 0 bigger 0 p.trials;
    p.times_s <- bigger
  end;
  Float.Array.set p.times_s p.trials cpu_s;
  p.trials <- p.trials + 1;
  p.total_s <- p.total_s +. cpu_s;
  p.deliveries <- p.deliveries + deliveries;
  p.alloc_words <- p.alloc_words +. alloc_words;
  if failed then p.failed <- p.failed + 1

(* Trial times in ms, of the trials whose index satisfies [keep]. *)
let times_ms ?(keep = fun _ -> true) p =
  List.filter_map
    (fun i -> if keep i then Some (Float.Array.get p.times_s i *. 1e3) else None)
    (List.init p.trials Fun.id)

let passes (o : Run.outcome) = Ba_trace.Checker.standard_run o = []

(* Runs trials 0, 1, ... until [seconds] have passed and [min_trials] ran;
   returns the loop's wall time. *)
let closed_loop ~seconds ~min_trials ~seed run_trial =
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while !i < min_trials || now_ns () < deadline do
    run_trial !i (Workload.trial_seed ~seed !i);
    incr i
  done;
  float_of_int (now_ns () - t0) /. 1e9

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Digests of the first trials of each variant, filled as trials run. *)
type digests = { d_plain : string option array; d_traced : string option array }

let record ds idx o =
  if idx < Array.length ds then
    ds.(idx) <- Some (match o with Ok o -> Workload.digest o | Error e -> "raised " ^ e)

let plain_trial (b : Workload.built) ds p i seed =
  let a0 = alloc_words () in
  let c0 = Sys.time () in
  let o = try Ok (b.plain ~index:i seed) with e -> Error (Printexc.to_string e) in
  let c1 = Sys.time () in
  let a1 = alloc_words () in
  record ds.d_plain i o;
  let deliveries, failed =
    match o with Ok o -> (Metrics.messages o.metrics, not (passes o)) | Error _ -> (0, true)
  in
  add_trial p ~cpu_s:(c1 -. c0) ~deliveries ~alloc_words:(a1 -. a0) ~failed

(* ---------- the traced run ---------- *)

(* Per-layer totals over the traced trials. *)
type layer_totals = {
  mutable l_send_ns : int;
  mutable l_recv_ns : int;
  mutable l_recv_calls : int;
  mutable l_encode_calls : int;
  mutable l_act_ns : int;
  mutable l_act_calls : int;
  mutable l_byz_msg_calls : int;
  mutable l_engine_self_ns : int;
  mutable l_topology_ns : int;
  mutable l_topology_calls : int;
  mutable l_minor_words : float;
  mutable l_promoted_words : float;
  mutable l_major_collections : int;
  mutable l_async_self_ns : int;
  mutable l_on_message_ns : int;
  mutable l_on_message_calls : int;
  mutable l_async_act_calls : int;
  mutable l_steps : int;
  mutable l_rounds : int;
  mutable l_deliveries : int;
  mutable l_checker_ns : int;
}

let layer_totals () =
  { l_send_ns = 0; l_recv_ns = 0; l_recv_calls = 0; l_encode_calls = 0;
    l_act_ns = 0; l_act_calls = 0; l_byz_msg_calls = 0; l_engine_self_ns = 0; l_topology_ns = 0;
    l_topology_calls = 0; l_minor_words = 0.0; l_promoted_words = 0.0; l_major_collections = 0;
    l_async_self_ns = 0; l_on_message_ns = 0; l_on_message_calls = 0; l_async_act_calls = 0;
    l_steps = 0; l_rounds = 0; l_deliveries = 0; l_checker_ns = 0 }

(* A span: one trial, or one layer's share of one trial. Layer spans
   aggregate every call of that layer in the trial: [busy_ns] is the time
   the calls covered inside the trial's interval, [calls] their number. *)
type span = {
  id : int;  (** position in the run's span list *)
  parent : int;  (** -1 for a root *)
  trial : int;
  layer : string;
  start_ns : int;
  end_ns : int;
  busy_ns : int;
  calls : int;
}

type spans = { mutable count : int; mutable newest_first : span list }

let traced_trial (b : Workload.built) ds lt spans p i seed =
  let acc = b.acc in
  Layers.reset acc;
  let g0 = Gc.quick_stat () in
  let c0 = Sys.time () in
  let t0 = now_ns () in
  let o = try Ok (b.traced ~index:i seed) with e -> Error (Printexc.to_string e) in
  let t1 = now_ns () in
  let c1 = Sys.time () in
  let g1 = Gc.quick_stat () in
  record ds.d_traced i o;
  let k0 = now_ns () in
  let ok = match o with Ok o -> passes o | Error _ -> false in
  let k1 = now_ns () in
  let span_units = match o with Ok o -> Run.span_units o.span | Error _ -> 0 in
  let sync = match o with Ok { span = Run.Rounds _; _ } -> true | _ -> false in
  let p0 = now_ns () in
  let topo_calls = if sync then b.replay_topology ~seed ~rounds:span_units else 0 in
  let p1 = now_ns () in
  let self = t1 - t0 - Layers.callbacks_ns acc in
  lt.l_send_ns <- lt.l_send_ns + acc.send_ns;
  lt.l_recv_ns <- lt.l_recv_ns + acc.recv_ns;
  lt.l_recv_calls <- lt.l_recv_calls + acc.recv_calls;
  lt.l_encode_calls <- lt.l_encode_calls + acc.encode_calls;
  lt.l_act_ns <- lt.l_act_ns + acc.act_ns;
  lt.l_act_calls <- lt.l_act_calls + acc.act_calls;
  lt.l_byz_msg_calls <- lt.l_byz_msg_calls + acc.byz_msg_calls;
  lt.l_on_message_ns <- lt.l_on_message_ns + acc.on_message_ns;
  lt.l_on_message_calls <- lt.l_on_message_calls + acc.on_message_calls;
  lt.l_async_act_calls <- lt.l_async_act_calls + acc.async_act_calls;
  if sync then begin
    lt.l_engine_self_ns <- lt.l_engine_self_ns + self;
    lt.l_rounds <- lt.l_rounds + span_units
  end
  else begin
    lt.l_async_self_ns <- lt.l_async_self_ns + self;
    lt.l_steps <- lt.l_steps + span_units
  end;
  lt.l_topology_ns <- lt.l_topology_ns + (p1 - p0);
  lt.l_topology_calls <- lt.l_topology_calls + topo_calls;
  lt.l_minor_words <- lt.l_minor_words +. (g1.minor_words -. g0.minor_words);
  lt.l_promoted_words <- lt.l_promoted_words +. (g1.promoted_words -. g0.promoted_words);
  lt.l_major_collections <- lt.l_major_collections + (g1.major_collections - g0.major_collections);
  lt.l_checker_ns <- lt.l_checker_ns + (k1 - k0);
  let deliveries = match o with Ok o -> Metrics.messages o.metrics | Error _ -> 0 in
  lt.l_deliveries <- lt.l_deliveries + deliveries;
  let root = spans.count in
  let add ?(parent = root) layer ~start ~stop ~busy ~calls =
    if calls > 0 then begin
      spans.newest_first <-
        { id = spans.count; parent; trial = i; layer; start_ns = start; end_ns = stop;
          busy_ns = busy; calls }
        :: spans.newest_first;
      spans.count <- spans.count + 1
    end
  in
  add ~parent:(-1) "trial" ~start:t0 ~stop:t1 ~busy:(t1 - t0) ~calls:1;
  let child layer ~busy ~calls = add layer ~start:t0 ~stop:t1 ~busy ~calls in
  child "protocol.send" ~busy:acc.send_ns ~calls:acc.send_calls;
  child "protocol.recv" ~busy:acc.recv_ns ~calls:acc.recv_calls;
  child "plane.encode" ~busy:0 ~calls:acc.encode_calls;
  child "adversary.act" ~busy:acc.act_ns ~calls:acc.act_calls;
  child "adversary.byz_msg" ~busy:0 ~calls:acc.byz_msg_calls;
  child "async_protocol.on_message" ~busy:acc.on_message_ns ~calls:acc.on_message_calls;
  child "async_adv.act" ~busy:0 ~calls:acc.async_act_calls;
  add ~parent:(-1) "checker.standard" ~start:k0 ~stop:k1 ~busy:(k1 - k0) ~calls:1;
  add ~parent:(-1) "topology.recipients" ~start:p0 ~stop:p1 ~busy:(p1 - p0) ~calls:topo_calls;
  let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  add_trial p ~cpu_s:(c1 -. c0) ~deliveries ~alloc_words:(alloc g1 -. alloc g0) ~failed:(not ok)

let span_json s =
  let open Ba_harness.Json in
  Obj
    [ ("id", Int s.id); ("parent", Int s.parent); ("trial", Int s.trial);
      ("layer", String s.layer); ("start_ns", Int s.start_ns); ("end_ns", Int s.end_ns);
      ("busy_ns", Int s.busy_ns); ("calls", Int s.calls) ]

let write_spans cfg spans =
  match cfg.spans_dir with
  | None -> None
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path =
        Filename.concat dir
          (Printf.sprintf "spans-%s-seed%Ld.jsonl" cfg.workload.Workload.name cfg.seed)
      in
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun s ->
              Out_channel.output_string oc (Ba_harness.Json.to_string (span_json s));
              Out_channel.output_char oc '\n')
            (List.rev spans.newest_first));
      Some path

(* ---------- set-up ---------- *)

let rec waitpid pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let probe_args cfg =
  [ "--setup-probe"; "--workload"; cfg.workload.Workload.name; "--seed"; Int64.to_string cfg.seed ]
  @ if cfg.smoke then [ "--smoke" ] else []

(* Wall time of one fresh process that starts, builds the workload exactly
   as a run does before its first timed trial, and exits. The process is
   this executable, which answers [--setup-probe]. *)
let setup_probe cfg =
  let exe = Sys.executable_name in
  let argv = Array.of_list (exe :: probe_args cfg) in
  let t0 = now_ns () in
  let pid = Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr in
  let status = waitpid pid in
  let t1 = now_ns () in
  match status with
  | Unix.WEXITED 0 -> float_of_int (t1 - t0) /. 1e9
  | _ -> failwith "perfbench: set-up probe process failed"

(* ---------- the run ---------- *)

let metric ?(note = "") name value unit_ = { name; value; unit_; note }

let end_to_end ~setup ~top_heap_words ~wall p =
  let n = p.trials in
  let times = times_ms p in
  let tail_metric =
    match tail times with
    | Some (p, v, beyond) ->
        metric "trial_ms_tail" v "ms"
          ~note:(Printf.sprintf "CPU time; p%d, %d of %d trials beyond it" p beyond n)
    | None ->
        metric "trial_ms_tail"
          (List.fold_left Float.max 0.0 times)
          "ms"
          ~note:(Printf.sprintf "CPU time; max: only %d trials, fewer than 11" n)
  in
  [ metric "setup_s" (median setup) "s"
      ~note:(Printf.sprintf "median of %d set-up processes" (List.length setup));
    metric "trials_per_s" (float_of_int n /. wall) "1/s"
      ~note:(Printf.sprintf "%d trials in %.3f s" n wall);
    metric "trial_ms_p50" (median times) "ms" ~note:(Printf.sprintf "CPU time; %d trials" n);
    tail_metric;
    metric "deliveries_per_s" (float_of_int p.deliveries /. wall) "1/s" ~note:"Metrics.messages";
    metric "alloc_mwords_per_trial"
      (p.alloc_words /. float_of_int n /. 1e6)
      "Mwords" ~note:"minor + major - promoted";
    metric "peak_heap_mb"
      (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6)
      "MB" ~note:"Gc top_heap_words" ]

let per_layer ~lt ~untraced ~traced ~sched_ms ~opaque_trials =
  let k = float_of_int (max 1 traced.trials) in
  let per_ms ns = float_of_int ns /. 1e6 /. k in
  let per c = float_of_int c /. k in
  let u_s = untraced.total_s and t_s = traced.total_s in
  let n = traced.trials in
  let u_tps = float_of_int n /. u_s and t_tps = float_of_int n /. t_s in
  let sched name =
    metric ("async_engine." ^ name ^ "_trial_ms") (sched_ms name) "ms" ~note:"untraced trials, CPU time"
  in
  [ metric "protocol.send_ms" (per_ms lt.l_send_ns) "ms";
    metric "protocol.recv_ms" (per_ms lt.l_recv_ns) "ms";
    metric "protocol.recv_calls" (per lt.l_recv_calls) "count";
    metric "plane.encode_calls" (per lt.l_encode_calls) "count";
    metric "adversary.act_ms" (per_ms lt.l_act_ns) "ms";
    metric "adversary.act_calls" (per lt.l_act_calls) "count";
    metric "adversary.byz_msg_calls" (per lt.l_byz_msg_calls) "count";
    metric "engine.self_ms" (per_ms lt.l_engine_self_ns) "ms";
    metric "topology.recipients_ms" (per_ms lt.l_topology_ns) "ms" ~note:"replayed after the trial";
    metric "topology.recipients_calls" (per lt.l_topology_calls) "count";
    metric "gc.minor_mwords" (lt.l_minor_words /. k /. 1e6) "Mwords";
    metric "gc.promoted_mwords" (lt.l_promoted_words /. k /. 1e6) "Mwords";
    metric "gc.major_collections" (per lt.l_major_collections) "count";
    metric "async_engine.self_ms" (per_ms lt.l_async_self_ns) "ms";
    sched "fifo";
    sched "uniform";
    sched "opaque";
    metric "async_protocol.on_message_ms" (per_ms lt.l_on_message_ns) "ms";
    metric "async_protocol.on_message_calls" (per lt.l_on_message_calls) "count";
    metric "async_adv.act_calls"
      (float_of_int lt.l_async_act_calls /. float_of_int (max 1 opaque_trials))
      "count" ~note:"per splitter trial; the other schedulers never call act";
    metric "async_engine.steps" (per lt.l_steps) "count";
    metric "metrics.rounds" (per lt.l_rounds) "count";
    metric "metrics.deliveries" (per lt.l_deliveries) "count";
    metric "checker.standard_ms" (per_ms lt.l_checker_ns) "ms";
    metric "trace.untraced_trials_per_s" u_tps "1/s"
      ~note:(Printf.sprintf "%d trials in %.3f CPU s" n u_s);
    metric "trace.traced_trials_per_s" t_tps "1/s"
      ~note:(Printf.sprintf "the same %d trials in %.3f s" n t_s);
    metric "trace.overhead_pct" (((t_s /. u_s) -. 1.0) *. 100.0) "%"
      ~note:"traced over untraced CPU time, minus 1" ]

(* Re-runs the first trials until each of the three variants has a digest
   for them; [Ok hex] when all agree, [Error why] otherwise. *)
let verify cfg (b : Workload.built) ds =
  let k = verify_trials in
  let seed_of i = Workload.trial_seed ~seed:cfg.seed i in
  let fill ds run =
    for i = 0 to k - 1 do
      if Option.is_none ds.(i) then
        record ds i (try Ok (run ~index:i (seed_of i)) with e -> Error (Printexc.to_string e))
    done
  in
  fill ds.d_plain b.plain;
  fill ds.d_traced b.traced;
  let repeat = Array.make k None in
  fill repeat b.repeat;
  let get a i = Option.get a.(i) in
  let bad =
    List.filter
      (fun i -> get ds.d_plain i <> get ds.d_traced i || get ds.d_plain i <> get repeat i)
      (List.init k Fun.id)
  in
  match bad with
  | [] -> Ok (Digest.to_hex (Digest.string (String.concat "" (List.init k (get ds.d_plain)))))
  | i :: _ ->
      let show d = if String.length d = 16 then Digest.to_hex d else d in
      Error
        (Printf.sprintf "trial %d: untraced %s, traced %s, repeat %s" i
           (show (get ds.d_plain i)) (show (get ds.d_traced i)) (show (get repeat i)))

let run cfg =
  let w = cfg.workload in
  let probes = if cfg.smoke then 2 else 11 in
  let setup = if cfg.trace then [] else List.init probes (fun _ -> setup_probe cfg) in
  let build_t0 = now_ns () in
  let b = Workload.build w in
  let build_s = float_of_int (now_ns () - build_t0) /. 1e9 in
  let k = verify_trials in
  let ds = { d_plain = Array.make k None; d_traced = Array.make k None } in
  let loop f = closed_loop ~seconds:cfg.seconds ~min_trials:k ~seed:cfg.seed f in
  let untraced = phase () in
  let traced = phase () in
  let metrics, notes =
    if not cfg.trace then begin
      let wall = loop (plain_trial b ds untraced) in
      let top_heap_words = (Gc.quick_stat ()).top_heap_words in
      (end_to_end ~setup ~top_heap_words ~wall untraced, [])
    end
    else begin
      let lt = layer_totals () in
      let spans = { count = 0; newest_first = [] } in
      ignore
        (loop (fun i seed ->
             plain_trial b ds untraced i seed;
             traced_trial b ds lt spans traced i seed)
          : float);
      let on_sched name i =
        match Workload.sched_of_trial w i with
        | Some s -> Workload.sched_name s = name
        | None -> false
      in
      let sched_ms name = median (times_ms untraced ~keep:(on_sched name)) in
      let opaque_trials = List.length (times_ms traced ~keep:(on_sched "opaque")) in
      let metrics = per_layer ~lt ~untraced ~traced ~sched_ms ~opaque_trials in
      let notes =
        match write_spans cfg spans with
        | Some path -> [ Printf.sprintf "spans: %d written to %s" spans.count path ]
        | None -> [ Printf.sprintf "spans: %d kept in memory" spans.count ]
      in
      (metrics, notes)
    end
  in
  let attempted = untraced.trials + traced.trials in
  let failed = untraced.failed + traced.failed in
  let digest_note, digests_agree =
    match verify cfg b ds with
    | Ok hex ->
        (Printf.sprintf "digest %s: untraced = traced = repeat over trials 0-%d" hex (k - 1), true)
    | Error why -> ("digest MISMATCH " ^ why, false)
  in
  let notes =
    [ Printf.sprintf "failed_share %g (%d of %d trials)"
        (float_of_int failed /. float_of_int (max 1 attempted))
        failed attempted;
      Printf.sprintf "in-process build %.6f s" build_s; digest_note ]
    @ notes
  in
  { correct = failed = 0 && digests_agree; attempted; failed; metrics; notes }

(* ---------- output ---------- *)

let header cfg =
  let w = cfg.workload in
  [ Printf.sprintf "perfbench %s: seed %Ld, %g s, trace %d%s" w.name cfg.seed cfg.seconds
      (if cfg.trace then 1 else 0)
      (if cfg.smoke then ", smoke sizes" else "");
    Printf.sprintf "  workload: %s; n=%d t=%d; micro %s" w.params w.n w.t w.micro;
    Printf.sprintf "  host: nproc %d, OCaml %s, OCAMLRUNPARAM %s; 1 domain, closed loop"
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
      (match Sys.getenv_opt "OCAMLRUNPARAM" with Some s -> Printf.sprintf "%S" s | None -> "unset")
  ]

let result_json r =
  let open Ba_harness.Json in
  Obj
    [ ("correct", Bool r.correct); ("attempted", Int r.attempted); ("failed", Int r.failed);
      ( "metrics",
        Obj
          (List.map
             (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
             r.metrics) ) ]

let print buf cfg r =
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  List.iter line (header cfg);
  List.iter
    (fun m ->
      line
        (Printf.sprintf "  %-34s %14.6g %-7s %s" m.name m.value m.unit_
           (if m.note = "" then "" else "(" ^ m.note ^ ")")))
    r.metrics;
  List.iter (fun s -> line ("  " ^ s)) r.notes;
  line (Ba_harness.Json.to_string (result_json r))
