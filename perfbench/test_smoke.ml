(* Smoke test of the trial benchmark: every workload at toy sizes, in both
   trace modes, through the same code as a full run. Each run must be
   correct (no failed trial, matching outcome digests), print exactly the
   metrics BENCHMARK.json declares for its mode, each on its own line with
   its unit, and end with the JSON result line.

   Usage: test_smoke.exe BENCHMARK.json. The benchmark's set-up probes
   re-invoke this executable with --setup-probe. *)

module Json = Ba_harness.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("test_smoke: " ^ s);
      exit 1)
    fmt

let field key j = match Json.member key j with Some v -> v | None -> fail "missing %S" key

let str key j = match Json.to_str (field key j) with Some s -> s | None -> fail "%S: not a string" key

let items key j =
  match Json.to_list (field key j) with Some l -> l | None -> fail "%S: not a list" key

(* [(name, unit)] of one of BENCHMARK.json's metric lists. *)
let declared spec key = List.map (fun m -> (str "name" m, str "unit" m)) (items key spec)

let check spec ~workload ~trace =
  let buf = Buffer.create 4096 in
  let argv =
    [| Sys.executable_name; "--workload"; workload; "--seed"; "7"; "--seconds"; "0"; "--trace";
       (if trace then "1" else "0"); "--smoke" |]
  in
  let code = Perfbench.Cli.main ~out:(Buffer.add_string buf) argv in
  let what = Printf.sprintf "%s --trace %d" workload (if trace then 1 else 0) in
  if code <> 0 then fail "%s: exit %d\n%s" what code (Buffer.contents buf);
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  let result = Json.of_string (List.nth lines (List.length lines - 1)) in
  (match result with
  | Json.Obj fields when List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ] -> ()
  | _ -> fail "%s: result keys are not correct/attempted/failed/metrics" what);
  if field "correct" result <> Json.Bool true then fail "%s: not correct" what;
  if Json.to_int (field "failed" result) <> Some 0 then fail "%s: failed trials" what;
  (match Json.to_int (field "attempted" result) with
  | Some n when n >= 1 -> ()
  | _ -> fail "%s: attempted < 1" what);
  let expected = declared spec (if trace then "per_layer" else "end_to_end") in
  let got =
    match field "metrics" result with
    | Json.Obj ms ->
        List.map
          (fun (name, m) ->
            (match Json.to_float (field "value" m) with
            | Some v when Float.is_finite v -> ()
            | _ -> fail "%s: %s has no finite value" what name);
            (name, str "unit" m))
          ms
    | _ -> fail "%s: metrics is not an object" what
  in
  if got <> expected then
    fail "%s: metrics differ from BENCHMARK.json:\n  got      %s\n  declared %s" what
      (String.concat " " (List.map (fun (n, u) -> n ^ "/" ^ u) got))
      (String.concat " " (List.map (fun (n, u) -> n ^ "/" ^ u) expected));
  let printed (name, unit_) =
    List.exists
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | n :: _ :: u :: _ -> n = name && u = unit_
        | _ -> false)
      lines
  in
  List.iter
    (fun m -> if not (printed m) then fail "%s: no printed line for %s in %s" what (fst m) (snd m))
    expected

let () =
  if Array.mem "--setup-probe" Sys.argv then exit (Perfbench.Cli.main Sys.argv);
  let spec = Json.of_string (In_channel.with_open_bin Sys.argv.(1) In_channel.input_all) in
  let names = List.map (str "name") (items "workloads" spec) in
  let ours = List.map (fun (w : Perfbench.Workload.t) -> w.name) Perfbench.Workload.all in
  if names <> ours then
    fail "BENCHMARK.json workloads [%s] differ from the benchmark's [%s]"
      (String.concat " " names) (String.concat " " ours);
  List.iter
    (fun workload ->
      check spec ~workload ~trace:false;
      check spec ~workload ~trace:true)
    names;
  Printf.printf "test_smoke: %d workloads, both trace modes: ok\n" (List.length names)
