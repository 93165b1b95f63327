#!/usr/bin/env bash
# Print the benchmark's first-pass trajectory digest of every workload on
# seeds 1-3, one `workload seed digest` line per run, so that two source
# trees can be compared with `diff`.  Each run lasts one second.
#
# The runs use a temporary copy of TREE's src/, perfbench/, configs/ and
# BENCHMARK.json, so the records they write never replace TREE's own
# perfbench/out/ results.
#
# Usage: scripts/bench_digests.sh TREE
#   TREE  a checkout of this repository; its perfbench/ runs on its src/
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 TREE" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp -R "$tree/src" "$tree/perfbench" "$tree/configs" "$tree/BENCHMARK.json" "$work/"
rm -rf "$work/perfbench/out"
cd "$work"

for workload in toy-fast toy-odb scripted-odb toy-vanilla; do
    for seed in 1 2 3; do
        digest=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 1 --trace 0 | sed -n 's/^# digest_first_pass: //p')
        if [ -z "$digest" ]; then
            echo "$0: no digest_first_pass line for $workload seed $seed" >&2
            exit 1
        fi
        echo "$workload $seed $digest"
    done
done
