type msg = Value of int

type state = {
  value : int;
  horizon : int;
  halted : bool;
  output : int option;
}

let default_horizon n =
  let l = int_of_float (ceil (Ba_core.Params.log2n n)) in
  4 * l * l

let make ?rounds () : (state, msg) Ba_sim.Protocol.t =
  { Ba_sim.Protocol.name = "sampling-majority";
    init =
      (fun ctx ~input ->
        let horizon =
          match rounds with Some r -> r | None -> default_horizon ctx.Ba_sim.Protocol.n
        in
        { value = input; horizon; halted = false; output = None });
    send = (fun _ctx st ~round:_ -> Some (Value st.value));
    recv =
      (fun ctx st ~round ~inbox ->
        let rng = ctx.Ba_sim.Protocol.rng in
        let n = ctx.Ba_sim.Protocol.n in
        (* Sample two uniformly random peers; a silent or garbled slot is
           resampled (bounded retries so Byzantine silence cannot hang us —
           after that it counts as own value, the conservative choice). *)
        let sample () =
          let rec go attempts =
            if attempts = 0 then st.value
            else begin
              let v = Ba_prng.Rng.int rng n in
              match Ba_sim.Plane.get inbox v with
              | Some (Value b) when b = 0 || b = 1 -> b
              | Some (Value _) | None -> go (attempts - 1)
            end
          in
          go 8
        in
        let s1 = sample () and s2 = sample () in
        let value = if st.value + s1 + s2 >= 2 then 1 else 0 in
        if round >= st.horizon then { st with value; halted = true; output = Some value }
        else { st with value });
    output = (fun st -> st.output);
    halted = (fun st -> st.halted);
    msg_bits = (fun (Value _) -> 1);
    msg_words = (fun (Value _) -> 1);
    codec = None (* recv samples two slots; a tally kernel would not pay *);
    inspect =
      (fun st ->
        Some
          { Ba_sim.Protocol.nv_phase = 0;
            nv_val = st.value;
            nv_decided = false;
            nv_finished = st.halted }) }

let agreement_fraction (o : Ba_sim.Run.outcome) =
  let counts = [| 0; 0 |] in
  let honest = ref 0 in
  Array.iteri
    (fun v out ->
      if not o.corrupted.(v) then begin
        incr honest;
        match out with Some b when b = 0 || b = 1 -> counts.(b) <- counts.(b) + 1 | _ -> ()
      end)
    o.outputs;
  if !honest = 0 then 1.0
  else float_of_int (max counts.(0) counts.(1)) /. float_of_int !honest
