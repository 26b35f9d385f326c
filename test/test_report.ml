(* Unit tests for the structured report pipeline: the dependency-free JSON
   emitter/parser, report serialization, the registry, and byte-level
   determinism of the suite document. *)

module Json = Ba_harness.Json
module Report = Ba_harness.Report
module Registry = Ba_harness.Registry

(* ---------------- Json ---------------- *)

let test_json_escaping () =
  let cases =
    [ (Json.String "plain", {|"plain"|});
      (Json.String "quote\"backslash\\", {|"quote\"backslash\\"|});
      (Json.String "tab\tnewline\ncr\r", {|"tab\tnewline\ncr\r"|});
      (Json.String "\x01\x1f", {|"\u0001\u001f"|});
      (Json.Bool true, "true");
      (Json.Null, "null");
      (Json.Int 42, "42");
      (Json.List [ Json.Int 1; Json.Int 2 ], "[1,2]") ]
  in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check string) expected expected (Json.to_string v))
    cases

let test_json_floats () =
  Alcotest.(check string) "integral float" "2.0" (Json.float_repr 2.0);
  Alcotest.(check string) "negative" "-0.5" (Json.float_repr (-0.5));
  let checks_roundtrip f =
    Alcotest.(check (float 0.)) "float_repr round-trips" f
      (float_of_string (Json.float_repr f))
  in
  List.iter checks_roundtrip [ 0.1; 1. /. 3.; 1e-300; 6.02214076e23; Float.pi ];
  List.iter
    (fun bad ->
      Alcotest.check_raises "non-finite rejected"
        (Invalid_argument "Ba_harness.Json: non-finite float (NaN/inf have no JSON encoding)")
        (fun () ->
          ignore (Json.to_string (Json.Float bad))))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("id", Json.String "E1");
        ("nested", Json.Obj [ ("xs", Json.List [ Json.Float 0.25; Json.Int 3; Json.Null ]) ]);
        ("text", Json.String "line1\nline2 \"quoted\"");
        ("flag", Json.Bool false) ]
  in
  let once = Json.to_string ~pretty:true doc in
  Alcotest.(check string) "parse . emit = id" once (Json.to_string ~pretty:true (Json.of_string once));
  let compact = Json.to_string doc in
  Alcotest.(check string) "pretty and compact parse alike" once
    (Json.to_string ~pretty:true (Json.of_string compact))

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "\"ctrl\n\"";
      (* \u takes exactly four hex digits *)
      "\"\\u12_3\""; "\"\\u+123\""; "\"\\u12\"";
      (* the JSON number grammar: no leading zero, digits after '.', digits
         in the exponent *)
      "1."; "01"; "-01"; "[01]"; "-"; ".5"; "1.e3"; "1e"; "1e+"; "+1" ];
  List.iter
    (fun (good, expected) ->
      Alcotest.(check string) ("accepts " ^ good) expected (Json.to_string (Json.of_string good)))
    [ ("0", "0"); ("-0", "0"); ("10", "10"); ("-0.5", "-0.5"); ("1e3", "1000.0");
      ("2.5E-1", "0.25"); ("\"\\u00e9\"", "\"\195\169\"") ]

(* ---------------- Report ---------------- *)

let test_verdicts () =
  List.iter
    (fun v ->
      Alcotest.(check bool) "verdict round-trips" true
        (Report.verdict_of_string (Report.verdict_to_string v) = Some v))
    [ Report.Pass; Report.Shape_ok; Report.Fail ];
  Alcotest.(check bool) "unknown verdict" true (Report.verdict_of_string "maybe" = None);
  Alcotest.(check bool) "worst picks fail" true
    (Report.worst Report.Pass Report.Fail = Report.Fail);
  Alcotest.(check bool) "worst picks shape_ok" true
    (Report.worst Report.Shape_ok Report.Pass = Report.Shape_ok)

let sample_report =
  Report.make ~id:"EX" ~title:"sample" ~claim:"Claim 0"
    ~metrics:[ ("finite", 1.5); ("undefined", Float.nan) ]
    ~series:[ { Report.series_name = "curve"; points = [ (1.0, 2.0); (2.0, 4.0) ] } ]
    ~verdict:Report.Pass ~summary:"ok" ~body:"table" ()

let test_report_json () =
  let j = Report.to_json sample_report in
  Alcotest.(check bool) "body not serialized" true (Json.member "body" j = None);
  Alcotest.(check bool) "id kept" true
    (Option.bind (Json.member "id" j) Json.to_str = Some "EX");
  let metrics = Option.get (Json.member "metrics" j) in
  Alcotest.(check bool) "finite metric" true
    (Option.bind (Json.member "finite" metrics) Json.to_float = Some 1.5);
  Alcotest.(check bool) "nan metric becomes null" true
    (Json.member "undefined" metrics = Some Json.Null);
  (* The emitter must accept the whole document (nan already mapped). *)
  Alcotest.(check bool) "serializable" true (String.length (Json.to_string j) > 0)

let test_metric_key () =
  Alcotest.(check string) "canonicalized" "las_vegas_alpha_2_0"
    (Report.metric_key "las-vegas(alpha=2.0)");
  Alcotest.(check string) "no edge underscores" "a_b" (Report.metric_key "  A+B  ")

let test_csv () =
  let csv = Report.csv_of_reports [ sample_report ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "id,claim,verdict,metric,value" (List.hd lines);
  Alcotest.(check int) "one row per metric" 3 (List.length lines);
  Alcotest.(check bool) "nan spelled out" true
    (List.exists (fun l -> l = "EX,Claim 0,pass,undefined,nan") lines)

(* ---------------- Registry ---------------- *)

let dummy id = {
  Registry.id;
  title = "t";
  claim = "c";
  tags = [ Registry.Coin ];
  run = (fun ~policy:_ ~domains:_ ~quick:_ ~seed:_ -> sample_report);
  campaign = None;
}

let test_registry_duplicates () =
  Alcotest.check_raises "case-insensitive duplicate" (Registry.Duplicate_id "e1")
    (fun () -> ignore (Registry.of_list [ dummy "E1"; dummy "e1" ]))

let test_registry_lookup () =
  let r = Registry.of_list [ dummy "E1"; dummy "E2" ] in
  Alcotest.(check int) "size" 2 (Registry.size r);
  Alcotest.(check bool) "find is case-insensitive" true
    (match Registry.find r "e2" with Some d -> d.Registry.id = "E2" | None -> false);
  Alcotest.(check bool) "unknown id" true (Registry.find r "E99" = None);
  Alcotest.(check int) "with_tag" 2 (List.length (Registry.with_tag r Registry.Coin));
  Alcotest.(check int) "with_tag empty" 0 (List.length (Registry.with_tag r Registry.Async))

let test_tags_roundtrip () =
  List.iter
    (fun tag ->
      Alcotest.(check bool) "tag round-trips" true
        (Registry.tag_of_string (Registry.tag_to_string tag) = Some tag))
    Registry.all_tags

(* ---------------- Determinism of the suite document ---------------- *)

let test_suite_json_deterministic () =
  (* E13 quick is the cheapest engine-backed experiment; run it twice with
     the same seed and fixed wall times — the documents must be
     byte-identical. *)
  let doc () =
    let d =
      match Registry.find Ba_experiments.Experiments.registry "E13" with
      | Some d -> d
      | None -> Alcotest.fail "E13 not registered"
    in
    let report = d.Registry.run ~policy:Ba_harness.Supervisor.default ~domains:1 ~quick:true ~seed:11L in
    Json.to_string ~pretty:true
      (Registry.suite_json ~seed:11L ~profile:"quick" ~entries:[ (d, report, Some 0.0) ] ())
  in
  let a = doc () and b = doc () in
  Alcotest.(check string) "same seed => byte-identical suite JSON" a b;
  let parsed = Json.of_string a in
  Alcotest.(check bool) "schema_version present" true
    (Option.bind (Json.member "schema_version" parsed) Json.to_int
    = Some Report.schema_version)

let () =
  Alcotest.run "ba_report"
    [ ("json",
       [ Alcotest.test_case "escaping" `Quick test_json_escaping;
         Alcotest.test_case "floats" `Quick test_json_floats;
         Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "parse errors" `Quick test_json_parse_errors ]);
      ("report",
       [ Alcotest.test_case "verdicts" `Quick test_verdicts;
         Alcotest.test_case "to_json" `Quick test_report_json;
         Alcotest.test_case "metric_key" `Quick test_metric_key;
         Alcotest.test_case "csv" `Quick test_csv ]);
      ("registry",
       [ Alcotest.test_case "duplicate ids rejected" `Quick test_registry_duplicates;
         Alcotest.test_case "lookup" `Quick test_registry_lookup;
         Alcotest.test_case "tags" `Quick test_tags_roundtrip ]);
      ("determinism",
       [ Alcotest.test_case "suite json byte-identical" `Slow test_suite_json_deterministic ]) ]
