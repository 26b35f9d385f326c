(* Command line shared by [main.exe] and the smoke test (whose executable
   also answers the [--setup-probe] re-invocations of its own runs). *)

let usage =
  "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
  \                [--spans-dir DIR]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)

type opts = {
  workload : string option;
  seed : int64;
  seconds : float;
  trace : bool;
  smoke : bool;
  probe : bool;
  spans_dir : string option;
}

let rec parse o = function
  | [] -> Ok o
  | "--workload" :: v :: rest -> parse { o with workload = Some v } rest
  | "--seed" :: v :: rest -> (
      match Int64.of_string_opt v with
      | Some seed -> parse { o with seed } rest
      | None -> Error ("bad --seed " ^ v))
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0.0 -> parse { o with seconds = s } rest
      | _ -> Error ("bad --seconds " ^ v))
  | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with trace = v = "1" } rest
  | "--smoke" :: rest -> parse { o with smoke = true } rest
  | "--setup-probe" :: rest -> parse { o with probe = true } rest
  | "--spans-dir" :: v :: rest -> parse { o with spans_dir = Some v } rest
  | arg :: _ -> Error ("unexpected argument " ^ arg)

let defaults =
  { workload = None; seed = 2026L; seconds = 10.0; trace = false; smoke = false; probe = false;
    spans_dir = None }

let config_of o (w : Workload.t) : Measure.config =
  { workload = (if o.smoke then Workload.smoke w else w);
    smoke = o.smoke;
    seed = o.seed;
    seconds = o.seconds;
    trace = o.trace;
    spans_dir = o.spans_dir }

(* Runs one benchmark invocation, printing to [out]; returns the exit
   code: 0 correct, 1 failed trials or a digest mismatch, 2 bad usage. *)
let main ?(out = print_string) argv =
  match parse defaults (List.tl (Array.to_list argv)) with
  | Error e ->
      prerr_endline ("perfbench: " ^ e ^ "\n" ^ usage);
      2
  | Ok o -> (
      match Option.map Workload.find o.workload with
      | None | Some None ->
          prerr_endline ("perfbench: missing or unknown --workload\n" ^ usage);
          2
      | Some (Some w) ->
          let cfg = config_of o w in
          if o.probe then begin
            ignore (Workload.build cfg.workload : Workload.built);
            0
          end
          else
            let r = Measure.run cfg in
            let buf = Buffer.create 4096 in
            Measure.print buf cfg r;
            out (Buffer.contents buf);
            if r.correct then 0 else 1)
