#!/usr/bin/env bash
# The trial benchmark's command. Run it from the root of a source checkout:
#
#   bash perfbench/run.sh --workload alg3-killer --seed 1 --seconds 15 --trace 0
#
# It builds perfbench/main.exe from source with dune (output on stderr),
# then runs one workload; the last line of stdout is the JSON result.
# Workloads and metrics are listed in BENCHMARK.json.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root is not a source checkout (no dune-project or lib/)" >&2
  exit 2
fi
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2 || exit 1
exec ./_build/default/perfbench/main.exe --spans-dir perfbench/out "$@"
