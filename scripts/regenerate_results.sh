#!/usr/bin/env bash
# Regenerates every table, figure, ablation and beyond-paper section of
# the evaluation into results/, with the claims table (`paper` exits
# non-zero, failing this script, if a gated claim fails). Security tables
# are deterministic; performance tables measure wall-clock (expect ±1
# percentage point between runs).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
# Timestamp marker laid down before any benchmark runs: every file this
# script owns must end up strictly newer than this file.
run_stamp=$(mktemp)
trap 'rm -f "$run_stamp"' EXIT
echo "== paper (tables, figures, ablations, serving and hardening sections, claims) =="
cargo run --quiet --release -p joza-bench --bin paper -- --out results

# Every artifact this script is responsible for must actually have been
# (re)written by this run — a silently skipped writer (renamed section,
# early exit swallowed by a pipe) must fail the regeneration, not leave a
# stale or missing file.
expected="table1.txt table2.txt table3.txt table4.txt table5.txt table6.txt table7.txt \
fig7.txt fig8.txt ablation_threshold.txt ablation_policy.txt ablation_matcher.txt \
sast.txt sast-findings.txt claims.txt \
harden.txt second_order.txt pipeline.txt vm.txt"
missing=0
for f in $expected; do
    if [ ! -s "results/$f" ]; then
        echo "FAIL: results/$f was not written (writer skipped?)" >&2
        missing=1
    elif [ ! "results/$f" -nt "$run_stamp" ]; then
        echo "FAIL: results/$f exists but was not refreshed by this run" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "FAIL: results/ regeneration incomplete — see above" >&2
    exit 1
fi
echo "done: all $(echo "$expected" | wc -w) result files in results/ refreshed"
