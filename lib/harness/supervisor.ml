type kind = Crash | Round_cap

let kind_to_string = function Crash -> "crash" | Round_cap -> "round_cap"

type failure = {
  f_trial : int;
  f_seed : int64;
  f_attempts : int;
  f_kind : kind;
  f_error : string;
  f_backtrace : string;
}

(* FNV-1a 64-bit over the raw backtrace text: a short stable digest that is
   identical across reruns of the same failure (the full backtrace is noisy
   and environment-dependent, the digest is comparison-friendly). *)
let digest s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let trial_seed ~seed ~trial =
  Ba_prng.Splitmix64.mix (Int64.add seed (Int64.of_int (0x9E37 + (trial * 2654435769))))

let retry_seed ~seed ~trial ~attempt =
  if attempt < 0 then invalid_arg "Supervisor.retry_seed: attempt < 0";
  let base = trial_seed ~seed ~trial in
  if attempt = 0 then base
  else
    Ba_prng.Splitmix64.mix
      (Int64.add base (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int attempt)))

type sink = failure list ref

let sink () : sink = ref []

let record (s : sink) failures = s := List.rev_append failures !s

let drain (s : sink) =
  let fs = List.stable_sort (fun a b -> compare a.f_trial b.f_trial) (List.rev !s) in
  s := [];
  fs

type policy = {
  round_cap : int option;
  retries : int;
  keep_going : bool;
  failure_sink : sink option;
}

let default = { round_cap = None; retries = 0; keep_going = false; failure_sink = None }

let supervised ?round_cap ?(retries = 0) ?sink () =
  if retries < 0 then invalid_arg "Supervisor.supervised: retries < 0";
  (match round_cap with
  | Some c when c <= 0 -> invalid_arg "Supervisor.supervised: round cap <= 0"
  | Some _ | None -> ());
  { round_cap; retries; keep_going = true; failure_sink = sink }

(* The watchdog compares the outcome's simulated span against the cap in
   its native unit: rounds for the synchronous engine (historical message
   preserved verbatim), scheduler steps for the asynchronous one. *)
let cap_error (ro : Ba_sim.Run.outcome) ~cap =
  match ro.span with
  | Ba_sim.Run.Rounds r ->
      Printf.sprintf "round budget exceeded: %d simulated rounds > cap %d (completed=%b)" r
        cap ro.completed
  | Ba_sim.Run.Steps s ->
      Printf.sprintf "step budget exceeded: %d scheduler steps > cap %d (completed=%b)" s cap
        ro.completed

let run_trial ~policy ~seed ~trial ~run =
  let attempts = policy.retries + 1 in
  let mk ~attempt ~kind ~error ~backtrace =
    { f_trial = trial;
      f_seed = retry_seed ~seed ~trial ~attempt;
      f_attempts = attempt + 1;
      f_kind = kind;
      f_error = error;
      f_backtrace = digest backtrace }
  in
  let rec go attempt =
    let s = retry_seed ~seed ~trial ~attempt in
    let result =
      match run ~seed:s ~trial with
      | (o : Ba_sim.Run.outcome) -> (
          match policy.round_cap with
          | Some cap when Ba_sim.Run.span_units o.span > cap ->
              Error (mk ~attempt ~kind:Round_cap ~error:(cap_error o ~cap) ~backtrace:"")
          | Some _ | None -> Ok o)
      (* lint: allow D008 -- crash isolation is the module's purpose *)
      | exception exn ->
          let backtrace = Printexc.get_backtrace () in
          Error (mk ~attempt ~kind:Crash ~error:(Printexc.to_string exn) ~backtrace)
    in
    match result with
    | Ok _ as ok -> ok
    | Error _ as err when attempt + 1 >= attempts -> err
    | Error _ -> go (attempt + 1)
  in
  go 0

let failure_message f =
  Printf.sprintf "trial %d (seed %Ld, %s after %d attempt%s): %s [bt %s]" f.f_trial f.f_seed
    (kind_to_string f.f_kind) f.f_attempts
    (if f.f_attempts = 1 then "" else "s")
    f.f_error f.f_backtrace

let raise_failure f = failwith ("supervised " ^ failure_message f)

let pp_failure fmt f = Format.pp_print_string fmt (failure_message f)

let failure_to_json f =
  Json.Obj
    [ ("trial", Json.Int f.f_trial);
      ("seed", Json.String (Int64.to_string f.f_seed));
      ("attempts", Json.Int f.f_attempts);
      ("kind", Json.String (kind_to_string f.f_kind));
      ("error", Json.String f.f_error);
      ("backtrace_digest", Json.String f.f_backtrace) ]

let is_digest s =
  String.length s = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let failure_of_json j =
  let ( let* ) = Result.bind in
  let str field =
    match Option.bind (Json.member field j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "failure record: missing string field %S" field)
  in
  let int field =
    match Option.bind (Json.member field j) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "failure record: missing integer field %S" field)
  in
  let* trial = int "trial" in
  if trial < 0 then Error "failure record: negative trial index"
  else
    let* seed = str "seed" in
    let* seed =
      match Int64.of_string_opt seed with
      | Some s -> Ok s
      | None -> Error "failure record: \"seed\" is not a decimal int64"
    in
    let* attempts = int "attempts" in
    if attempts < 1 then Error "failure record: \"attempts\" < 1"
    else
      let* kind = str "kind" in
      let* kind =
        match kind with
        | "crash" -> Ok Crash
        | "round_cap" -> Ok Round_cap
        | k -> Error (Printf.sprintf "failure record: unknown kind %S" k)
      in
      let* error = str "error" in
      let* backtrace = str "backtrace_digest" in
      if not (is_digest backtrace) then
        Error "failure record: \"backtrace_digest\" is not 16 lowercase hex chars"
      else
        Ok
          { f_trial = trial;
            f_seed = seed;
            f_attempts = attempts;
            f_kind = kind;
            f_error = error;
            f_backtrace = backtrace }
