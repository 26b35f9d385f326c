type span = Rounds of int | Steps of int

let span_units = function Rounds k -> k | Steps k -> k

let span_label = function Rounds _ -> "rounds" | Steps _ -> "steps"

type round_record = {
  rr_round : int;
  rr_new_corruptions : int list;
  rr_views : Protocol.node_view option array;
}

type outcome = {
  protocol_name : string;
  adversary_name : string;
  n : int;
  t : int;
  inputs : int array;
  span : span;
  completed : bool;
  outputs : int option array;
  corrupted : bool array;
  corruptions_used : int;
  metrics : Metrics.t;
  records : round_record list;
}

let honest_outputs o =
  let acc = ref [] in
  for v = o.n - 1 downto 0 do
    if not o.corrupted.(v) then
      match o.outputs.(v) with Some b -> acc := (v, b) :: !acc | None -> ()
  done;
  !acc

let all_honest_decided o =
  let ok = ref true in
  for v = 0 to o.n - 1 do
    if (not o.corrupted.(v)) && o.outputs.(v) = None then ok := false
  done;
  !ok

let agreement_holds o =
  match honest_outputs o with
  | [] -> all_honest_decided o (* no honest node at all: vacuous *)
  | (_, first) :: rest -> all_honest_decided o && List.for_all (fun (_, b) -> b = first) rest

let validity_holds o =
  (* Inputs of finally-honest nodes only: the adaptive adversary absorbs
     corrupted nodes into its own camp retroactively. *)
  let honest_inputs = ref [] in
  for v = 0 to o.n - 1 do
    if not o.corrupted.(v) then honest_inputs := o.inputs.(v) :: !honest_inputs
  done;
  match !honest_inputs with
  | [] -> true
  | b :: rest ->
      if List.for_all (fun x -> x = b) rest then
        List.for_all (fun (_, out) -> out = b) (honest_outputs o)
      else true

type fault_kind = Drop | Duplicate | Corrupt_payload | Silence

type event =
  | Tick of { index : int }
  | Corrupt of { index : int; node : int }
  | Deliver of { index : int; src : int; dst : int; bits : int; byzantine : bool }
  | Fault of { index : int; kind : fault_kind; src : int; dst : int }

type trace = event -> unit
