#!/bin/sh
# Build the benchmark and the mlbs CLI it drives, then run it with the
# given arguments, e.g.:
#   sh perfbench/run.sh --workload hot_fleet --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build output goes to stderr so the
# benchmark's last stdout line stays its JSON result.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of an mlbs checkout (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi
# --cache=disabled keeps the build inside the checkout (no shared dune cache).
dune build --root . --cache=disabled ./perfbench/bench.exe ./bin/mlbs_cli.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
