let glyph_of_view corrupted (nv : Ba_sim.Protocol.node_view option) =
  if corrupted then 'x'
  else
    match nv with
    | None -> ' ' (* halted, or protocol without introspection *)
    | Some { Ba_sim.Protocol.nv_finished = true; nv_val; _ } -> if nv_val = 1 then 'B' else 'A'
    | Some { nv_decided = true; nv_val; _ } -> if nv_val = 1 then 'b' else 'a'
    | Some { nv_val; _ } -> if nv_val = 1 then '1' else '0'

let render ?(max_nodes = 64) ?(max_rounds = 120) (o : Ba_sim.Run.outcome) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "timeline: %s vs %s (n=%d, t=%d, %d %s)\n" o.protocol_name
       o.adversary_name o.n o.t (Ba_sim.Run.span_units o.span) (Ba_sim.Run.span_label o.span));
  if o.records = [] then begin
    Buffer.add_string buf "(no records — run the engine with ~record:true)\n";
    Buffer.contents buf
  end
  else begin
    let records = Array.of_list o.records in
    let rounds_shown = min (Array.length records) max_rounds in
    let nodes_shown = min o.n max_nodes in
    (* Corruption becomes visible from its round onward. *)
    let corrupted_at = Array.make o.n max_int in
    Array.iter
      (fun (r : Ba_sim.Run.round_record) ->
        List.iter
          (fun v -> if corrupted_at.(v) = max_int then corrupted_at.(v) <- r.rr_round)
          r.rr_new_corruptions)
      records;
    Buffer.add_string buf "        ";
    for c = 0 to rounds_shown - 1 do
      Buffer.add_char buf (if (c + 1) mod 10 = 0 then '|' else if (c + 1) mod 2 = 0 then '.' else ' ')
    done;
    Buffer.add_char buf '\n';
    for v = 0 to nodes_shown - 1 do
      Buffer.add_string buf (Printf.sprintf "%6d  " v);
      for c = 0 to rounds_shown - 1 do
        let r = records.(c) in
        Buffer.add_char buf (glyph_of_view (r.rr_round >= corrupted_at.(v)) r.rr_views.(v))
      done;
      Buffer.add_char buf '\n'
    done;
    if o.n > nodes_shown then
      Buffer.add_string buf (Printf.sprintf "  ... %d more nodes\n" (o.n - nodes_shown));
    if Array.length records > rounds_shown then
      Buffer.add_string buf
        (Printf.sprintf "  ... %d more rounds\n" (Array.length records - rounds_shown));
    Buffer.add_string buf
      "  legend: 0/1 undecided, a/b decided, A/B finished, x corrupted, ' ' halted\n";
    Buffer.contents buf
  end
