#!/usr/bin/env bash
# Runs one workload once per seed, untraced, and keeps the result files
# in DIR, for `lifebench compare`:
#
#   bash lifebench/steady.sh DIR WORKLOAD SEED...
#
# Must be run from the repository root.
set -euo pipefail
dir=$1 workload=$2
shift 2
mkdir -p "$dir"
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for seed in "$@"; do
	bash lifebench/run.sh --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0 2>/dev/null | tail -1
	mv .bench_build/results/"$workload"-s"$seed"-t0-*.json "$dir"/
done
