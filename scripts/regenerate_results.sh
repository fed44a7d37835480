#!/usr/bin/env bash
# Regenerates every table/figure/ablation of the paper's evaluation into
# results/, with the claims table (`paper` exits non-zero, failing this
# script, if a gated claim fails), then the four JSON benchmarks. Security
# tables are deterministic; performance tables measure wall-clock (expect
# ±1 percentage point between runs).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
# Timestamp marker laid down before any benchmark runs: every file this
# script owns must end up strictly newer than this file.
run_stamp=$(mktemp)
trap 'rm -f "$run_stamp"' EXIT
echo "== paper (tables, figures, ablations, claims) =="
cargo run --quiet --release -p joza-bench --bin paper -- --out results
echo "== harden (timed) =="
cargo run --quiet --release -p joza-bench --bin harden -- \
    --out results/BENCH_harden.json > results/harden.txt
echo "== second_order (timed) =="
cargo run --quiet --release -p joza-bench --bin second_order -- \
    --out results/BENCH_secondorder.json > results/second_order.txt
echo "== pipeline (timed) =="
cargo run --quiet --release -p joza-bench --bin pipeline -- \
    --requests 96 --repeat 3 --threads 1,2,4,8 --min-speedup 6 \
    --out results/BENCH_pipeline.json > results/pipeline.txt
echo "== vm (timed) =="
cargo run --quiet --release -p joza-bench --bin vm -- \
    --min-speedup 3 \
    --out results/BENCH_vm.json > results/vm.txt

# Every artifact this script is responsible for must actually have been
# (re)written by this run — a silently skipped writer (renamed bin or
# section, edited flag, early exit swallowed by a pipe) must fail the
# regeneration, not leave a stale or missing file.
expected="table1.txt table2.txt table3.txt table4.txt table5.txt table6.txt table7.txt \
fig7.txt fig8.txt ablation_threshold.txt ablation_policy.txt ablation_matcher.txt \
sast.txt sast-findings.txt claims.txt \
harden.txt second_order.txt pipeline.txt vm.txt \
BENCH_harden.json BENCH_pipeline.json BENCH_secondorder.json BENCH_vm.json"
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
