#!/usr/bin/env bash
# Full local CI gate: formatting, lints (warnings are errors), tests.
# Run from the repository root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The concurrency suite again, explicitly multi-threaded: the stress
# tests must hold when the harness itself runs them in parallel.
echo "==> cargo test -q --test concurrency -- --test-threads=4"
cargo test -q --test concurrency -- --test-threads=4

# Differential kernel suite, explicitly: the bit-parallel NTI kernel must
# be bit-identical to Sellers-classic on distances, spans, and reports
# (including full reports over every lab request and multi-KB queries,
# `nti_kernel_identity`), the SWAR classifier scans must agree
# byte-for-byte with their scalar references, the lowercase fold must
# match the std byte map, and the packed q-gram profile must return the
# HashMap reference's bound (debug build, so debug assertions are live
# inside the kernels). The nti `kernels` filter includes the
# verbatim-first report-identity test. The installer's extractor must
# match its references too: the byte-level placeholder splitter and the
# early-exit SQL retain test against the char-by-char splitter and a full
# lex, and the installed lab-plus-WordPress vocabulary against its golden
# count and order-sensitive digest.
echo "==> differential kernel tests (strmatch myers + swar + qgram, nti kernel, lexer equivalence, installer vocabulary)"
cargo test -q -p joza-strmatch myers
cargo test -q -p joza-strmatch --test proptests myers
cargo test -q -p joza-strmatch --test proptests qgram
cargo test -q -p joza-strmatch swar
cargo test -q -p joza-strmatch --test proptests swar
cargo test -q -p joza-strmatch --test proptests to_lower
cargo test -q -p joza-nti --test proptests kernels
cargo test -q -p joza-sqlparse --test proptests lex_into
cargo test -q -p joza-sqlparse --test proptests has_known_token
cargo test -q -p joza-phpsim --lib fragments::tests::reference_
cargo test -q --test installer_vocabulary
cargo test -q -p joza-sqlparse --test proptests sym_skeleton
cargo test -q --test nti_kernel_identity
cargo test -q --test alloc_free

# Pipeline equivalence, explicitly: a route session's check, the same
# session's check_batch, and Joza::check_query_on_route must produce
# bit-identical verdicts and traces over every lab-corpus query, and
# Server::handle_with must block exactly the requests with a flagged query.
echo "==> cargo test -q --test pipeline_equivalence"
cargo test -q --test pipeline_equivalence

# Robustness, explicitly: one million unique safe queries keep the PTI
# query cache within its constant capacity with every overflow counted as
# an eviction; a killed PTI daemon (or a garbled verdict frame) blocks
# the next query (fail closed, recovery policy applied) instead of
# panicking the worker, and the respawned daemon answers the one after;
# and both PTI caches filled far past capacity leave every lab-corpus
# verdict identical to a cache-less engine's. The PHP front end and the
# fragment extractor never panic on source dense in quotes, backslashes,
# `$`, braces, `%`, `:` and multi-byte characters.
echo "==> robustness (bounded caches, daemon kill, eviction soundness, phpsim fuzz)"
cargo test -q --test bounded_cache
cargo test -q -p joza-pti --lib stays_within_capacity_and_counts_evictions
cargo test -q -p joza-pti --lib daemon::tests::dead_
cargo test -q -p joza-core --lib pti_daemon_death_blocks_then_respawns
cargo test -q --test pipeline_equivalence evicting_caches_never_change_a_verdict
cargo test -q -p joza-phpsim --test proptests fuzz_

# Engine equivalence, explicitly: the bytecode VM and the tree-walking
# interpreter must produce bit-identical responses (body, queries,
# sql_error, blocked) and database state over the full lab corpus —
# benign, every exploit, and both second-order two-phase flows — plus the
# 404 and parse-error paths.
echo "==> cargo test -q -p joza-lab --test engine_differential"
cargo test -q -p joza-lab --test engine_differential

# Engine differential property test: seeded random phpsim programs
# (loops, compound assignment, indexed stores, host query calls,
# mid-program termination) diffed VM vs tree-walk on result, output, and
# the exact SQL sequence the host saw.
echo "==> cargo test -q -p joza-phpsim --test vm_differential"
cargo test -q -p joza-phpsim --test vm_differential

# Engine edge semantics: foreach snapshotting, break/continue depth,
# Terminated mid-expression, uninitialized reads, and string/number
# coercions pinned against both engines.
echo "==> cargo test -q -p joza-phpsim --test engine_edges"
cargo test -q -p joza-phpsim --test engine_edges

# Pipeline-bench smoke (default 96 requests x 2 passes): asserts the path
# counters partition the checked queries, exercises the per-stage
# breakdown writers, and enforces two floors in one run.
# * Single-thread gate-direct throughput >= 50k checked-q/s (--min-qps;
#   the allocation-free hot path clears it with an order of magnitude of
#   headroom, so a trip means a real regression).
# * Thread scaling on captured lab traffic (fresh comment posts plus every
#   exploit, dynamic-only engine): verdicts must be bit-identical to a
#   single-thread reference at every thread count of both sweeps (with and
#   without the modeled pipe wait), that reference must match the ground
#   truth, and 8 workers must reach >= 6x the single-thread checked-query
#   rate on the overlapped-wait rows (--min-speedup; the pipe waits
#   overlap, so the run dies if the sharded core serializes them).
echo "==> pipeline smoke (>= 50k q/s single-thread gate-direct, >= 6x at 8 threads overlapped)"
cargo run --quiet --release -p joza-bench --bin pipeline -- \
    --threads 1,8 --min-qps 50000 --min-speedup 6 \
    --out /tmp/joza_pipeline_smoke.json

# Hardening smoke: the binary asserts >= 50/57 routes statically
# rewritten to prepared statements, a passing differential (bit-identical
# benign responses + DB state, every ungated exploit on rewritten routes
# neutralized), and no effective gated attacks before timing anything.
echo "==> harden smoke"
cargo run --quiet --release -p joza-bench --bin harden -- \
    --requests 24 --repeat 1 --threads 1,2 --out /tmp/joza_harden_smoke.json

# Second-order smoke: the binary asserts the detection floor — every
# labeled two-phase exploit (original + PTI-evading variant) classified
# second-order-reachable statically AND caught dynamically by the
# persistence-aware gate, with zero benign round trips blocked — before
# timing anything.
echo "==> second_order smoke"
cargo run --quiet --release -p joza-bench --bin second_order -- \
    --requests 24 --repeat 1 --out /tmp/joza_second_order_smoke.json

# VM-bench smoke: asserts every response bit-identical across engines on
# both the testbed corpus and the interpreter-bound render routes, runs a
# small soak with latency percentiles and query-count conservation, and
# enforces the ISSUE floor — the VM must serve the engine-bound render
# routes >= 3x faster end to end than the tree-walker.
echo "==> vm bench smoke (--min-speedup 3 render-route floor)"
cargo run --quiet --release -p joza-bench --bin vm -- \
    --requests 24 --repeat 1 --soak 200 --min-speedup 3 \
    --out /tmp/joza_vm_smoke.json

# The paper's claims: `paper` renders the deterministic security
# tables and ablations, the static report and Figure 7 (the timed
# section with gated claims that fits a CI budget), prints the claims
# table, and exits non-zero if any gated claim fails. It writes no files.
echo "==> paper claims (Tables I-IV, threshold + policy ablations, SAST, Fig. 7)"
cargo run --quiet --release -p joza-bench --bin paper -- \
    table1 table2 table3 table4 ablation_threshold ablation_policy sast fig7

echo "==> CI green"
