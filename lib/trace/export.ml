let outcome_row (o : Ba_sim.Run.outcome) =
  [ ("protocol", o.protocol_name);
    ("adversary", o.adversary_name);
    ("n", string_of_int o.n);
    ("t", string_of_int o.t);
    (Ba_sim.Run.span_label o.span, string_of_int (Ba_sim.Run.span_units o.span));
    ("completed", string_of_bool o.completed);
    ("messages", string_of_int (Ba_sim.Metrics.messages o.metrics));
    ("bits", string_of_int (Ba_sim.Metrics.bits o.metrics));
    ("corruptions", string_of_int o.corruptions_used);
    ("agreement", string_of_bool (Ba_sim.Run.agreement_holds o));
    ("validity", string_of_bool (Ba_sim.Run.validity_holds o)) ]

let round_rows (o : Ba_sim.Run.outcome) =
  List.map
    (fun (r : Ba_sim.Run.round_record) ->
      let decided = ref 0 and finished = ref 0 and live = ref 0 in
      Array.iter
        (fun nv ->
          match nv with
          | Some { Ba_sim.Protocol.nv_decided; nv_finished; _ } ->
              incr live;
              if nv_decided then incr decided;
              if nv_finished then incr finished
          | None -> ())
        r.rr_views;
      [ ("round", string_of_int r.rr_round);
        ("new_corruptions",
         String.concat ";" (List.map string_of_int r.rr_new_corruptions));
        ("live", string_of_int !live);
        ("decided", string_of_int !decided);
        ("finished", string_of_int !finished) ])
    o.records

let escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ~path rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (String.concat "," (List.map (fun (k, _) -> escape k) first));
          output_char oc '\n';
          List.iter
            (fun row ->
              output_string oc (String.concat "," (List.map (fun (_, v) -> escape v) row));
              output_char oc '\n')
            rows)

let pp_outcome fmt (o : Ba_sim.Run.outcome) =
  Format.fprintf fmt "%s vs %s: n=%d t=%d %s=%d %s agreement=%b validity=%b corruptions=%d"
    o.protocol_name o.adversary_name o.n o.t (Ba_sim.Run.span_label o.span)
    (Ba_sim.Run.span_units o.span)
    (if o.completed then "completed" else "TIMED-OUT")
    (Ba_sim.Run.agreement_holds o) (Ba_sim.Run.validity_holds o) o.corruptions_used
