#!/usr/bin/env bash
# Regenerates every table/figure/ablation of the paper's evaluation into
# results/. Security tables are deterministic; performance tables measure
# wall-clock (expect ±1 percentage point between runs).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
# Timestamp marker laid down before any benchmark runs: every BENCH_*.json
# must end up strictly newer than this file.
run_stamp=$(mktemp)
trap 'rm -f "$run_stamp"' EXIT
for bin in table1 table2 table3 table4 table7 ablation_threshold ablation_policy sast_report; do
    echo "== $bin =="
    cargo run --quiet --release -p joza-bench --bin "$bin" > "results/$bin.txt"
done
for bin in table5 table6 fig7 fig8 ablation_matcher; do
    echo "== $bin (timed) =="
    cargo run --quiet --release -p joza-bench --bin "$bin" > "results/$bin.txt"
done
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

# Every machine-readable benchmark artifact this script is responsible
# for must actually have been (re)written by this run — a silently
# skipped writer (renamed bin, edited flag, early exit swallowed by a
# pipe) must fail the regeneration, not leave a stale or missing file.
expected_bench_json="BENCH_harden.json BENCH_pipeline.json BENCH_secondorder.json \
BENCH_vm.json"
missing=0
for f in $expected_bench_json; do
    if [ ! -s "results/$f" ]; then
        echo "FAIL: results/$f was not written (benchmark writer skipped?)" >&2
        missing=1
    elif [ ! "results/$f" -nt "$run_stamp" ]; then
        echo "FAIL: results/$f exists but was not refreshed by this run" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "FAIL: BENCH_*.json regeneration incomplete — see above" >&2
    exit 1
fi
echo "done: $(ls results | wc -l) result files in results/ (all $(echo "$expected_bench_json" | wc -w) BENCH_*.json refreshed)"
