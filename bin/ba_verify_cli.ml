(* ba_verify: drive the exhaustive small-instance verifier (DESIGN.md §12).

   Examples:
     ba_verify --protocol rabin -n 4 -t 1 --phases 2
     ba_verify --protocol rabin-broken -n 4 -t 1 --expect-violation --cex cex.json
     ba_verify --protocol bracha -n 4 -t 1
     ba_verify --replay cex.json

   Exit codes: 0 = verified (or, with --expect-violation, a violation was
   found and its replay confirmed); 1 = property outcome contradicts the
   expectation, or the --replay file cannot be read; 2 = state budget
   exhausted (inconclusive) or input error. *)

open Cmdliner

let write_file path s =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc s;
      Out_channel.output_char oc '\n')

let suite_json ~id ~verdict ~metrics =
  let open Ba_harness.Json in
  Obj
    [ ("schema_version", Int Ba_harness.Report.schema_version);
      ("suite", String "verify-exhaustive");
      ("seed", String "0");
      ("profile", String "exhaustive");
      ("experiments",
       List
         [ Obj
             [ ("id", String id);
               ("verdict", String verdict);
               ("metrics", Obj (List.map (fun (k, v) -> (k, Int v)) metrics)) ] ]) ]

let stats_metrics (s : Ba_verify.Exhaust.stats) =
  [ ("states", s.st_states); ("transitions", s.st_transitions); ("runs", s.st_runs) ]

(* One verification outcome, engine-agnostic. *)
type summary = {
  verdict : [ `Pass | `Fail | `Budget ];
  stats : Ba_verify.Exhaust.stats;
  cex_json : Ba_harness.Json.t option;
  confirmed : bool option;
  text : string;
}

let summarize ~expect ~confirm ~to_json ~reason = function
  | Ba_verify.Exhaust.Verified stats ->
      if expect then
        { verdict = `Fail; stats; cex_json = None; confirmed = None;
          text = "expected a violation, but the full space verified clean" }
      else
        { verdict = `Pass; stats; cex_json = None; confirmed = None;
          text = "verified: no reachable state violates agreement or validity" }
  | Ba_verify.Exhaust.Violation (cex, stats) ->
      let ok = confirm cex in
      let verdict = if expect && ok then `Pass else `Fail in
      let text =
        Printf.sprintf "violation: %s (replay %s)" (reason cex)
          (if ok then "confirmed" else "NOT confirmed")
      in
      { verdict; stats; cex_json = Some (to_json cex); confirmed = Some ok; text }
  | Ba_verify.Exhaust.Out_of_budget stats ->
      { verdict = `Budget; stats; cex_json = None; confirmed = None;
        text = "inconclusive: state budget exhausted before the space was covered" }

let do_verify proto n t phases inputs max_states broadcaster json_out cex_out expect =
  let name =
    match proto with
    | `Bracha -> "bracha"
    | `Rabin -> Ba_verify.Exhaust.sync_protocol_name Rabin
    | `Rabin_broken -> Ba_verify.Exhaust.sync_protocol_name Rabin_broken
  in
  let s =
    match proto with
    | `Rabin | `Rabin_broken ->
        let protocol =
          match proto with `Rabin_broken -> Ba_verify.Exhaust.Rabin_broken | _ -> Rabin
        in
        summarize ~expect ~confirm:Ba_verify.Exhaust.sync_cex_confirmed
          ~to_json:Ba_verify.Exhaust.sync_cex_to_json
          ~reason:(fun c -> c.Ba_verify.Exhaust.sc_reason)
          (Ba_verify.Exhaust.verify_sync ~protocol ~n ~t ~phases ~inputs ~max_states ())
    | `Bracha ->
        summarize ~expect ~confirm:Ba_verify.Exhaust.async_cex_confirmed
          ~to_json:Ba_verify.Exhaust.async_cex_to_json
          ~reason:(fun c -> c.Ba_verify.Exhaust.ac_reason)
          (Ba_verify.Exhaust.verify_async ~n ~t ~broadcaster ~max_states ())
  in
  Printf.printf "ba_verify %s n=%d t=%d: %s\n" name n t s.text;
  Printf.printf "  explored %d states, %d transitions, %d configurations\n"
    s.stats.st_states s.stats.st_transitions s.stats.st_runs;
  (match (s.cex_json, cex_out) with
  | Some j, Some path ->
      write_file path (Ba_harness.Json.to_string j);
      Printf.printf "  counterexample written to %s\n" path
  | _ -> ());
  (match json_out with
  | Some path ->
      let verdict =
        match s.verdict with `Pass -> "pass" | `Fail -> "fail" | `Budget -> "shape_ok"
      in
      let metrics =
        stats_metrics s.stats
        @ [ ("violation", match s.cex_json with Some _ -> 1 | None -> 0);
            ("replay_confirmed", match s.confirmed with Some true -> 1 | _ -> 0) ]
      in
      let id = Printf.sprintf "VX-%s-n%d-t%d" name n t in
      write_file path (Ba_harness.Json.to_string (suite_json ~id ~verdict ~metrics))
  | None -> ());
  match s.verdict with `Pass -> 0 | `Fail -> 1 | `Budget -> 2

let do_replay path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Printf.eprintf "ba_verify: error: %s\n" msg;
      1
  | text -> (
      match Ba_harness.Json.of_string text with
      | exception Ba_harness.Json.Parse_error msg ->
          Printf.eprintf "ba_verify: %s: parse error: %s\n" path msg;
          2
      | j -> (
          let kind = Option.bind (Ba_harness.Json.member "kind" j) Ba_harness.Json.to_str in
          let outcome =
            match kind with
            | Some "sync" ->
                Result.map
                  (fun cex ->
                    ( cex.Ba_verify.Exhaust.sc_reason,
                      Ba_verify.Exhaust.sync_cex_confirmed cex ))
                  (Ba_verify.Exhaust.sync_cex_of_json j)
            | Some "async" ->
                Result.map
                  (fun cex ->
                    ( cex.Ba_verify.Exhaust.ac_reason,
                      Ba_verify.Exhaust.async_cex_confirmed cex ))
                  (Ba_verify.Exhaust.async_cex_of_json j)
            | Some k -> Error (Printf.sprintf "unknown counterexample kind %S" k)
            | None -> Error "missing \"kind\" field"
          in
          match outcome with
          | Error msg ->
              Printf.eprintf "ba_verify: %s: %s\n" path msg;
              2
          | Ok (reason, confirmed) ->
              Printf.printf "ba_verify replay %s\n  recorded violation: %s\n  replay through the engine: %s\n"
                path reason
                (if confirmed then "violation confirmed" else "violation NOT reproduced");
              if confirmed then 0 else 1))

let protocol_arg =
  Arg.(value
       & opt (enum [ ("rabin", `Rabin); ("rabin-broken", `Rabin_broken); ("bracha", `Bracha) ])
           `Rabin
       & info [ "protocol" ] ~docv:"P"
           ~doc:"Protocol to verify: $(b,rabin) (sync dealer skeleton), $(b,rabin-broken) \
                 (seeded off-by-one mutant), or $(b,bracha) (async reliable broadcast).")

let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Network size (exhaustive: keep <= 7).")

let t_arg = Arg.(value & opt int 1 & info [ "t" ] ~docv:"T" ~doc:"Corruption budget.")

let phases_arg =
  Arg.(value & opt int 2
       & info [ "phases"; "bound" ] ~docv:"K" ~doc:"Sync phase cap (execution bound).")

let inputs_arg =
  Arg.(value & opt (enum [ ("weights", `Weights); ("all", `All) ]) `Weights
       & info [ "inputs" ] ~docv:"MODE"
           ~doc:"Initial-vector sweep: $(b,weights) one vector per Hamming weight (sound for \
                 the node-symmetric protocols here), $(b,all) every vector.")

let max_states_arg =
  Arg.(value & opt int 2_000_000
       & info [ "max-states" ] ~docv:"S" ~doc:"State budget; exceeding it exits 2 (inconclusive).")

let broadcaster_arg =
  Arg.(value & opt int 0 & info [ "broadcaster" ] ~docv:"B" ~doc:"Bracha broadcaster id.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE" ~doc:"Write a suite report (ba_json_check schema).")

let cex_arg =
  Arg.(value & opt (some string) None
       & info [ "cex" ] ~docv:"FILE" ~doc:"Write the counterexample (replayable via --replay).")

let expect_arg =
  Arg.(value & flag
       & info [ "expect-violation" ]
           ~doc:"Invert the acceptance: exit 0 only if a violation is found and its replay \
                 confirmed (the mutation harness's mode).")

let replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a counterexample file through the unmodified engine and exit; all \
                 verification flags are ignored.")

let run protocol n t phases inputs max_states broadcaster json_out cex_out expect replay =
  match replay with
  | Some path -> do_replay path
  | None -> (
      try do_verify protocol n t phases inputs max_states broadcaster json_out cex_out expect
      with Invalid_argument msg ->
        Printf.eprintf "ba_verify: %s\n" msg;
        2)

let cmd =
  let doc = "Exhaustive small-instance verifier for the agreement protocols" in
  Cmd.v
    (Cmd.info "ba_verify" ~doc)
    Term.(const run $ protocol_arg $ n_arg $ t_arg $ phases_arg $ inputs_arg $ max_states_arg
          $ broadcaster_arg $ json_arg $ cex_arg $ expect_arg $ replay_arg)

let () = exit (Cmd.eval' cmd)
