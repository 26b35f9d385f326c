(* ba_json_check: validate a suite document written by `ba_sweep --json` or
   `bench --json` — or a per-shard campaign checkpoint written by
   `ba_sweep --workers` (suite "adaptive_ba_campaign_shard") — against the
   v1 schema. Used by the @smoke and @campaign-smoke aliases.

   Usage: ba_json_check FILE [--require-pass] [--same-payload BASELINE]

   An unreadable FILE or BASELINE prints "error: ..." and exits 1. Exit 0
   iff the file parses, carries the expected schema_version, and
   every experiment entry has a well-formed id/verdict/metrics payload,
   with well-formed failure/shard-failure/crash records where present
   (with --require-pass: additionally no verdict is "fail"; with
   --same-payload: additionally every experiment in FILE has a
   byte-identical entry, apart from its wall_seconds, in the suite document
   BASELINE, at the same seed and profile). Used by @payload-identity. *)

let fail fmt = Format.ksprintf (fun s -> prerr_endline ("ba_json_check: " ^ s); exit 1) fmt

let check_metrics id = function
  | None -> fail "experiment %s: missing \"metrics\" object" id
  | Some (Ba_harness.Json.Obj fields) ->
      List.iter
        (fun (k, v) ->
          match v with
          | Ba_harness.Json.Float _ | Ba_harness.Json.Int _ | Ba_harness.Json.Null -> ()
          | _ -> fail "experiment %s: metric %S is not a number or null" id k)
        fields
  | Some _ -> fail "experiment %s: \"metrics\" is not an object" id

(* A supervised failure record (Supervisor.failure_to_json): trial, seed,
   attempts, kind, error, backtrace_digest. Trial indices must lie in
   [-1, trials): -1 is tolerated for legacy experiment-crash records (new
   documents carry a "crash" object instead), anything below is garbage,
   and with a declared trial count nothing may point past it. *)
let check_failure id ~trials j =
  let str field =
    match Option.bind (Ba_harness.Json.member field j) Ba_harness.Json.to_str with
    | Some s -> s
    | None -> fail "experiment %s: failure entry missing string field %S" id field
  in
  let int field =
    match Option.bind (Ba_harness.Json.member field j) Ba_harness.Json.to_int with
    | Some n -> n
    | None -> fail "experiment %s: failure entry missing integer field %S" id field
  in
  let trial = int "trial" in
  if trial < -1 then fail "experiment %s: failure trial index %d < -1" id trial;
  (match trials with
  | Some n when trial >= n ->
      fail "experiment %s: failure trial %d outside [-1, %d)" id trial n
  | Some _ | None -> ());
  if Int64.of_string_opt (str "seed") = None then
    fail "experiment %s: failure \"seed\" is not a decimal int64" id;
  if int "attempts" < 1 then fail "experiment %s: failure \"attempts\" < 1" id;
  (match str "kind" with
  | "crash" | "round_cap" -> ()
  | k -> fail "experiment %s: unknown failure kind %S" id k);
  ignore (str "error" : string);
  let digest = str "backtrace_digest" in
  if not (Ba_harness.Supervisor.is_digest digest) then
    fail "experiment %s: \"backtrace_digest\" is not 16 lowercase hex chars" id

let check_failures id verdict ~trials = function
  | None -> ()
  | Some (Ba_harness.Json.List []) ->
      fail "experiment %s: \"failures\" present but empty (omit it instead)" id
  | Some (Ba_harness.Json.List entries) ->
      if verdict <> Ba_harness.Report.Fail then
        fail "experiment %s: has failure records but verdict is not \"fail\"" id;
      List.iter (check_failure id ~trials) entries
  | Some _ -> fail "experiment %s: \"failures\" is not an array" id

(* Campaign shard-failure records (Campaign.shard_failure_to_json). *)
let check_shard_failures id verdict = function
  | None -> ()
  | Some (Ba_harness.Json.List []) ->
      fail "experiment %s: \"shard_failures\" present but empty (omit it instead)" id
  | Some (Ba_harness.Json.List entries) ->
      if verdict <> Ba_harness.Report.Fail then
        fail "experiment %s: has shard-failure records but verdict is not \"fail\"" id;
      List.iter
        (fun e ->
          match Ba_harness.Campaign.shard_failure_of_json e with
          | Ok _ -> ()
          | Error msg -> fail "experiment %s: %s" id msg)
        entries
  | Some _ -> fail "experiment %s: \"shard_failures\" is not an array" id

let check_crash id verdict = function
  | None -> ()
  | Some c -> (
      if verdict <> Ba_harness.Report.Fail then
        fail "experiment %s: has a crash record but verdict is not \"fail\"" id;
      match Ba_harness.Report.crash_of_json c with
      | Ok _ -> ()
      | Error msg -> fail "experiment %s: %s" id msg)

let check_experiment ~require_pass seen j =
  let str field =
    match Option.bind (Ba_harness.Json.member field j) Ba_harness.Json.to_str with
    | Some s -> s
    | None -> fail "experiment entry missing string field %S" field
  in
  let id = str "id" in
  if List.mem id seen then fail "duplicate experiment id %S" id;
  let verdict = str "verdict" in
  let verdict =
    match Ba_harness.Report.verdict_of_string verdict with
    | Some v ->
        if require_pass && v = Ba_harness.Report.Fail then
          fail "experiment %s has verdict \"fail\"" id;
        v
    | None -> fail "experiment %s: unknown verdict %S" id verdict
  in
  let trials =
    match Ba_harness.Json.member "trials" j with
    | None -> None
    | Some t -> (
        match Ba_harness.Json.to_int t with
        | Some n when n >= 1 -> Some n
        | Some n -> fail "experiment %s: \"trials\" is %d (must be >= 1)" id n
        | None -> fail "experiment %s: \"trials\" is not an integer" id)
  in
  check_metrics id (Ba_harness.Json.member "metrics" j);
  check_failures id verdict ~trials (Ba_harness.Json.member "failures" j);
  check_shard_failures id verdict (Ba_harness.Json.member "shard_failures" j);
  check_crash id verdict (Ba_harness.Json.member "crash" j);
  id :: seen

(* Optional top-level campaign metadata block (Registry.suite_json):
   run-shape facts only, and internally consistent. *)
let check_campaign_meta = function
  | None -> ()
  | Some c ->
      let int field =
        match Option.bind (Ba_harness.Json.member field c) Ba_harness.Json.to_int with
        | Some n when n >= 1 -> n
        | Some n -> fail "campaign: %S is %d (must be >= 1)" field n
        | None -> fail "campaign: missing integer field %S" field
      in
      let trials = int "trials" in
      let shard_size = int "shard_size" in
      let shards = int "shards" in
      if shards <> (trials + shard_size - 1) / shard_size then
        fail "campaign: %d shards inconsistent with %d trials of %d" shards trials shard_size

(* Attack-search reports written by `ba_attack --json` (suite
   "adaptive_ba_attack"): the searched strategy genome, the catalog it was
   measured against, the search/holdout margin record and the objective
   trace. *)
let check_attack doc path =
  let num what j =
    match j with
    | Some (Ba_harness.Json.Float _) | Some (Ba_harness.Json.Int _) -> ()
    | _ -> fail "attack report: %s is not a number" what
  in
  let str what j =
    match Option.bind j Ba_harness.Json.to_str with
    | Some s when s <> "" -> s
    | Some _ -> fail "attack report: %s is empty" what
    | None -> fail "attack report: missing string field %s" what
  in
  let int what j =
    match Option.bind j Ba_harness.Json.to_int with
    | Some n -> n
    | None -> fail "attack report: missing integer field %s" what
  in
  (match Option.bind (Ba_harness.Json.member "schema_version" doc) Ba_harness.Json.to_int with
  | Some v when v = Ba_harness.Report.schema_version -> ()
  | Some v -> fail "schema_version %d, expected %d" v Ba_harness.Report.schema_version
  | None -> fail "missing integer \"schema_version\"");
  if Int64.of_string_opt (str "\"seed\"" (Ba_harness.Json.member "seed" doc)) = None then
    fail "attack report: \"seed\" is not a decimal int64";
  (match str "\"plane\"" (Ba_harness.Json.member "plane" doc) with
  | "coin" | "skeleton" -> ()
  | p -> fail "attack report: unknown plane %S" p);
  ignore (str "\"objective\"" (Ba_harness.Json.member "objective" doc) : string);
  let n = int "\"n\"" (Ba_harness.Json.member "n" doc) in
  let t = int "\"t\"" (Ba_harness.Json.member "t" doc) in
  if n < 2 then fail "attack report: n is %d (must be >= 2)" n;
  if t < 0 || t >= n then fail "attack report: t=%d outside [0, n=%d)" t n;
  let evals = int "\"evals\"" (Ba_harness.Json.member "evals" doc) in
  if evals < 1 then fail "attack report: evals is %d (must be >= 1)" evals;
  let check_genome what g =
    List.iter
      (fun field ->
        match Ba_harness.Json.member field g with
        | None -> fail "attack report: %s genome missing field %S" what field
        | Some (Ba_harness.Json.Obj _) | Some Ba_harness.Json.Null -> ()
        | Some _ -> fail "attack report: %s genome field %S is not an object or null" what field)
      [ "timing"; "target"; "tactic"; "silences"; "async" ];
    List.iter
      (fun field ->
        match Ba_harness.Json.member field g with
        | Some sub ->
            ignore
              (str (Printf.sprintf "%s genome %s kind" what field)
                 (Ba_harness.Json.member "kind" sub)
                : string)
        | None -> ())
      [ "timing"; "target"; "tactic"; "async" ]
  in
  (match Ba_harness.Json.member "best" doc with
  | None -> fail "attack report: missing \"best\" object"
  | Some b -> (
      ignore (str "best name" (Ba_harness.Json.member "name" b) : string);
      num "best score" (Ba_harness.Json.member "score" b);
      match Ba_harness.Json.member "genome" b with
      | Some (Ba_harness.Json.Obj _ as g) -> check_genome "best" g
      | _ -> fail "attack report: \"best\" has no genome object"));
  (match Option.bind (Ba_harness.Json.member "catalog" doc) Ba_harness.Json.to_list with
  | None -> fail "attack report: missing \"catalog\" array"
  | Some [] -> fail "attack report: \"catalog\" is empty"
  | Some entries ->
      List.iter
        (fun e ->
          ignore (str "catalog name" (Ba_harness.Json.member "name" e) : string);
          num "catalog score" (Ba_harness.Json.member "score" e))
        entries);
  (match Ba_harness.Json.member "margin" doc with
  | None -> fail "attack report: missing \"margin\" object"
  | Some m ->
      ignore (str "margin vs" (Ba_harness.Json.member "vs" m) : string);
      num "margin search" (Ba_harness.Json.member "search" m);
      num "margin holdout" (Ba_harness.Json.member "holdout" m));
  (match Option.bind (Ba_harness.Json.member "trace" doc) Ba_harness.Json.to_list with
  | None -> fail "attack report: missing \"trace\" array"
  | Some [] -> fail "attack report: \"trace\" is empty"
  | Some entries ->
      ignore
        (List.fold_left
           (fun prev e ->
             let ev = int "trace evals" (Ba_harness.Json.member "evals" e) in
             if ev < prev then fail "attack report: trace evals %d decrease" ev;
             if ev > evals then fail "attack report: trace evals %d exceed total %d" ev evals;
             (match str "trace phase" (Ba_harness.Json.member "phase" e) with
             | "seed" | "greedy" | "beam" | "anneal" -> ()
             | p -> fail "attack report: unknown trace phase %S" p);
             num "trace score" (Ba_harness.Json.member "score" e);
             ignore (str "trace name" (Ba_harness.Json.member "name" e) : string);
             ev)
           1 entries
          : int));
  Printf.printf "ba_json_check: %s ok (attack report, %d evaluations)\n" path evals

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> fail "error: %s" msg
  | text -> (
      try Ba_harness.Json.of_string text
      with Ba_harness.Json.Parse_error msg -> fail "%s: parse error: %s" path msg)

(* The payload-identity gate: an experiment's entry is its payload once the
   run's wall_seconds is dropped, compared as printed JSON. *)
let check_same_payload doc ~path ~baseline_path =
  let base = load baseline_path in
  List.iter
    (fun field ->
      let get d = Option.bind (Ba_harness.Json.member field d) Ba_harness.Json.to_str in
      if get doc <> get base then fail "%s: %S differs from %s" path field baseline_path)
    [ "seed"; "profile" ];
  let entries d =
    Option.value ~default:[]
      (Option.bind (Ba_harness.Json.member "experiments" d) Ba_harness.Json.to_list)
  in
  let payload = function
    | Ba_harness.Json.Obj fields ->
        Ba_harness.Json.to_string (Ba_harness.Json.Obj (List.remove_assoc "wall_seconds" fields))
    | j -> Ba_harness.Json.to_string j
  in
  let id e = Option.bind (Ba_harness.Json.member "id" e) Ba_harness.Json.to_str in
  List.iter
    (fun e ->
      let name = Option.value ~default:"?" (id e) in
      match List.find_opt (fun b -> id b = id e) (entries base) with
      | None -> fail "%s: experiment %s is not in %s" path name baseline_path
      | Some b when payload b <> payload e ->
          fail "%s: experiment %s payload differs from %s" path name baseline_path
      | Some _ -> ())
    (entries doc);
  Printf.printf "ba_json_check: %s payloads identical to %s (%d experiments)\n" path baseline_path
    (List.length (entries doc))

let () =
  let path = ref None and require_pass = ref false and baseline = ref None in
  let rec parse = function
    | [] -> ()
    | "--require-pass" :: rest ->
        require_pass := true;
        parse rest
    | "--same-payload" :: b :: rest ->
        baseline := Some b;
        parse rest
    | arg :: rest when !path = None && arg <> "--same-payload" ->
        path := Some arg;
        parse rest
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path =
    match !path with
    | Some p -> p
    | None -> fail "usage: ba_json_check FILE [--require-pass] [--same-payload BASELINE]"
  in
  let doc = load path in
  let suite_only () =
    if !baseline <> None then fail "--same-payload applies to experiment suite documents only"
  in
  match Option.bind (Ba_harness.Json.member "suite" doc) Ba_harness.Json.to_str with
  | None -> fail "missing string field \"suite\""
  | Some suite when suite = Ba_harness.Checkpoint.suite_name -> (
      (* A per-shard campaign checkpoint: the library parser is the schema. *)
      suite_only ();
      match Ba_harness.Checkpoint.of_json doc with
      | Ok ck ->
          Printf.printf "ba_json_check: %s ok (campaign shard %d/%d of %s, trials [%d, %d))\n"
            path ck.Ba_harness.Checkpoint.ck_shard.Ba_harness.Campaign.s_index
            ck.Ba_harness.Checkpoint.ck_shards ck.Ba_harness.Checkpoint.ck_exp
            ck.Ba_harness.Checkpoint.ck_shard.Ba_harness.Campaign.s_lo
            ck.Ba_harness.Checkpoint.ck_shard.Ba_harness.Campaign.s_hi
      | Error msg -> fail "%s" msg)
  | Some "adaptive_ba_attack" ->
      suite_only ();
      check_attack doc path
  | Some _ ->
      (match
         Option.bind (Ba_harness.Json.member "schema_version" doc) Ba_harness.Json.to_int
       with
      | Some v when v = Ba_harness.Report.schema_version -> ()
      | Some v -> fail "schema_version %d, expected %d" v Ba_harness.Report.schema_version
      | None -> fail "missing integer \"schema_version\"");
      List.iter
        (fun field ->
          if Option.bind (Ba_harness.Json.member field doc) Ba_harness.Json.to_str = None then
            fail "missing string field %S" field)
        [ "seed"; "profile" ];
      check_campaign_meta (Ba_harness.Json.member "campaign" doc);
      (match
         Option.bind (Ba_harness.Json.member "experiments" doc) Ba_harness.Json.to_list
       with
      | None -> fail "missing \"experiments\" array"
      | Some [] -> fail "\"experiments\" is empty"
      | Some entries ->
          let seen =
            List.fold_left (check_experiment ~require_pass:!require_pass) [] entries
          in
          Printf.printf "ba_json_check: %s ok (%d experiments)\n" path (List.length seen);
          Option.iter
            (fun baseline_path -> check_same_payload doc ~path ~baseline_path)
            !baseline)
