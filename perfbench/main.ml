(* The trial benchmark: one workload per run; see measure.ml for what a run
   measures and run.sh for how the benchmark is built and invoked. *)

let () = exit (Perfbench.Cli.main Sys.argv)
