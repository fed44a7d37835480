#!/usr/bin/env bash
# Full local CI gate: formatting, lints (warnings are errors), tests.
# Run from the repository root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one named `cargo test -q` step and fails when the step ran no
# test: a filter that matches nothing (a renamed or deleted test) would
# otherwise print "running 0 tests" and pass.
run_tests() {
    local out
    if ! out=$(cargo test -q "$@" 2>&1); then
        printf '%s\n' "$out"
        return 1
    fi
    printf '%s\n' "$out"
    if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
        echo "error: 'cargo test -q $*' ran no test" >&2
        return 1
    fi
}

echo "==> cargo fmt --check"
cargo fmt --check

# The benchmark is a package of its own with a committed lock file. A
# dependency edit that would rewrite that lock file fails here, not in a
# benchmark run.
echo "==> benchmark lock file is current"
cargo metadata --locked --offline --format-version 1 \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml >/dev/null

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The concurrency suite again, explicitly multi-threaded: the stress
# tests must hold when the harness itself runs them in parallel.
echo "==> cargo test -q --test concurrency -- --test-threads=4"
run_tests --test concurrency -- --test-threads=4

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
# count and order-sensitive digest. Split over 1 to 4 parts (threads),
# extraction must give the file-by-file set, also with unlexable and empty
# files, `%%`-joined pieces and one literal on both sides of a part
# boundary, and the golden vocabulary with 1 and 3 parts.
# NTI's verbatim search must return `str::find`'s answer, also once its
# verification budget hands a periodic pair to `str::find` mid-search; the
# q-gram check must skip the bound exactly when it cannot exceed the
# cutoff; and thresholds of 1.0 and above must neither overflow nor skip
# an input as long as the query. The `myers` and `kernels` filters also
# pick up the single-word Myers edge cases (|p| = 1, 63, 64, 65) and the
# agreement of both kernels with the filter-free Sellers reference on
# short inputs. `nti_kernel_identity` also covers
# 6-16 byte names absent from 1-8 KB comment queries or planted near the
# distance cutoff (one edit inside, at, one past), and apostrophe-dense
# comments up to 8 KB under magic quotes, where the bit-parallel span
# recovery walks the whole body; the derived cutoff must equal the
# largest distance the ratio filter passes; and the length check, the
# verbatim search, the piece filter and the q-gram check together must
# keep every marking the alignment alone gives. The per-request input
# set must give `analyze`'s report over its distinct values (then a
# query's own values) under both kernels; a pattern's cached sorted keys
# must give the profile's bound; and `find_str` must equal `str::find`
# for needles of 0-40 bytes, across the 32-byte limit of its
# `str::contains` pretest.
echo "==> differential kernel tests (strmatch myers + swar + qgram, nti kernel, lexer equivalence, fingerprint invariants, installer vocabulary)"
run_tests -p joza-strmatch myers
run_tests -p joza-strmatch --test proptests myers
run_tests -p joza-strmatch --test proptests qgram
run_tests -p joza-strmatch swar
run_tests -p joza-strmatch --test proptests swar
run_tests -p joza-strmatch --test proptests to_lower
run_tests -p joza-nti --test proptests kernels
run_tests -p joza-nti --test proptests distance_cutoff
run_tests -p joza-nti --test proptests filters_never_drop_a_marking
run_tests -p joza-nti --lib set_path_matches_analyze
run_tests -p joza-nti --lib set::tests
run_tests -p joza-sqlparse --test proptests lex_into
run_tests -p joza-sqlparse --test proptests has_known_token
run_tests -p joza-phpsim --lib fragments::tests::reference_
run_tests -p joza-phpsim --lib fragments::tests::every_part_count
run_tests -p joza-phpsim --lib fragments::tests::a_literal_on_both_sides
run_tests --test installer_vocabulary
run_tests -p joza-sqlparse --test proptests sym_skeleton
# Skeleton fingerprints are a function of the rendered text alone: two
# table symbols are equal exactly when their bytes are, a check-local id
# names its own token and equals no table id, queries that differ only in
# an identifier no deployment interned never share a fingerprint, and a
# query's fingerprint is the same whether or not its identifiers were
# interned.
run_tests -p joza-sqlparse --lib fingerprint::tests::table_ids_are_equal_exactly_when_bytes_are
run_tests -p joza-sqlparse --lib fingerprint::tests::unknown_identifiers_never_share
run_tests -p joza-sqlparse --lib fingerprint::tests::fingerprint_does_not_depend_on_what_was_interned
run_tests -p joza-sqlparse --lib symbol::tests::local_ids_name_positions
run_tests --test nti_kernel_identity
run_tests -p joza-strmatch --test proptests find_str
run_tests -p joza-strmatch --lib qgram
run_tests -p joza-nti --lib verbatim_search
run_tests -p joza-nti --lib thresholds_at_and_above_one
run_tests --test alloc_free
# One output column list per SELECT, checked against the schema before a
# row is read: a `UNION` arm's `*` over an empty table has the table's
# width, `t.*` of a table not in `FROM` is an unknown table, an empty
# result names the expanded columns, an unknown column fails whatever the
# data, `DISTINCT` keeps the reference rule's rows, and every result is as
# wide as its column list.
run_tests -p joza-db --lib union_arm_star_over_an_empty_table_has_the_tables_width
run_tests -p joza-db --lib qualified_star_of_a_table_not_in_from_is_an_unknown_table
run_tests -p joza-db --lib empty_result_names_the_expanded_columns
run_tests -p joza-db --lib unknown_column_fails_before_any_row_is_read
run_tests -p joza-db --lib distinct_matches_dedup_rows_reference
run_tests -p joza-db --test proptests output_width_is_the_column_list
# PTI's fragment kernel must report exactly the byte-at-a-time loop's
# matches (overlapping, empty and over-long patterns included); MRU over
# the borrowed vocabulary, with promotions and early exit, must equal the
# naive scan and Aho-Corasick; and every lab-corpus query must get an
# identical PtiReport under Naive, MRU and Aho-Corasick.
run_tests -p joza-strmatch --lib mru
run_tests -p joza-strmatch --test proptests scanners_agree
run_tests -p joza-strmatch --test proptests mru_
run_tests -p joza-pti --lib store
run_tests --test pti_matcher_identity
# One parse per route: query models, taint summaries and the hardening
# report built from an application's shared parses must equal the text
# entry points' on every lab, CMS and second-order route, and a
# deployment (models, store flow, engine build, a chunk per route) must
# parse each route once. The incremental store-flow fixpoint must return
# the round-by-round reference's report, round count included (the lab,
# the second-order lab, a chain needing a round per link, poison and
# parse errors). The PHP lexer's word-at-a-time literal scans must give
# the byte-at-a-time loop's tokens, spans and pieces. All three static
# passes (taint, query models, hardening) run on one walker: every static
# report over the lab and the second-order lab must keep its pinned
# digest, the walker's statement ids must equal the parser's span table,
# a `$_SERVER` header read must keep its route off the static fast path
# (the exploit is denied), a loop still moving at the pass cap must send
# its variables to top with the loop's sources kept, and an assignment in
# an operand that may not run (ternary arm, `&&`/`||`) must neither scrub
# taint nor be inlined by the hardening pass. A sink nested in another
# sink's query must not reach the database raw behind the hardened gate,
# every rewritten route (lab, second-order lab, a nested sink, a sink
# after `exit`) must call no sink but `db_query` with a literal statement
# text, the parse-error and unbalanced-quote skip reasons stay pinned, and
# a sink argument the prepared call would drop (an assignment, a call)
# skips the route instead of vanishing. Every walk over a SQL expression
# goes through `Expr::children`, which must visit exactly the direct
# subexpressions of every variant; the engine and the store/load pass
# share one projected-cells resolver, which must resolve a correlated
# column to the enclosing query's table on both sides (the reader of a
# dirty cell through a correlated subquery is second-order-reachable);
# an aggregate tested with `IN (SELECT …)` must aggregate; templates
# render through one renderer that reports hole and repetition ranges;
# and every result's origins over the lab and the second-order lab must
# keep their pinned digest.
echo "==> shared-parse identity, fixpoint reference, literal-scan reference, report digest, walker ids, header source, loop cap, skippable operands, hardened gate, SQL traversal, projected cells, origins digest"
run_tests -p joza-sqlparse --lib ast::tests::children_are_exactly_the_direct_subexpressions
run_tests -p joza-sqlparse --lib cells::tests
run_tests -p joza-sqlparse --lib template::tests::render_reports_hole_and_repetition_ranges
run_tests -p joza-db --lib origins::tests::correlated_reference_resolves_to_the_outer_table
run_tests -p joza-db --lib engine::tests::aggregate_tested_against_a_subquery_aggregates
run_tests -p joza-sast --lib storeflow::tests::correlated_subquery_reader_loads_the_outer_cell
run_tests -p joza-lab --test origins_digest
run_tests -p joza-sast --test report_digest
run_tests -p joza-sast --lib absint::tests::preorder_ids_match_span_table
run_tests --test input_sources header_borne_injection
run_tests -p joza-sast --test soundness loop_chain_longer_than_the_pass_cap
run_tests -p joza-sast --test soundness assignments_in_skippable_operands_join
run_tests -p joza-sast --lib assignment_in_skippable_operand_is_not_inlined
run_tests --test hardened_gate
run_tests -p joza-sast --lib unparsable_source_skips_with_parse_error
run_tests -p joza-sast --lib quote_opened_before_a_hole_and_never_closed_skips
run_tests -p joza-sast --lib sink_argument_with_effects_is_not_dropped
run_tests -p joza-sast --test shared_parse
run_tests -p joza-sast --lib fixpoint_reference
run_tests -p joza-sast --lib store_flow_parses_each_route_once
run_tests -p joza-phpsim --lib lexer::tests::reference_
run_tests -p joza-phpsim --lib lexer::tests::find_any
run_tests -p joza-phpsim --lib lexer::tests::eq_lanes

# Pipeline equivalence, explicitly: a route session's check, the same
# session's check_batch, and Joza::check_query_on_route must produce
# bit-identical verdicts and traces over every lab-corpus query; every
# statistics counter (detections, anomalies, attacks, path counters,
# stage_runs, stage_hits) must equal its recount from the returned
# verdicts on the shipped, NTI-only and PTI-only engines, with the
# disabled detector reading zero; and Server::handle_with must block
# exactly the requests with a flagged query.
echo "==> cargo test -q --test pipeline_equivalence"
run_tests --test pipeline_equivalence

# Robustness, explicitly: one million unique safe queries keep the PTI
# query cache within its constant capacity with every overflow counted as
# an eviction; one million queries with fresh identifiers (some with
# bytes the lexer cannot classify) leave the skeleton symbol table's
# length unchanged, as does deploying the same models again; the SQL
# lexer, parser, skeleton renderer and fingerprint never panic on
# arbitrary bytes and never grow the symbol table; a killed PTI daemon (or a garbled verdict frame) blocks
# the next query (fail closed, recovery policy applied) instead of
# panicking the worker, and the respawned daemon answers the one after;
# and both PTI caches filled far past capacity leave every lab-corpus
# verdict identical to a cache-less engine's. The PHP front end and the
# fragment extractor never panic on source dense in quotes, backslashes,
# `$`, braces, `%`, `:` and multi-byte characters.
echo "==> robustness (bounded caches and symbols, daemon kill, eviction soundness, phpsim and sqlparse fuzz, nesting, stale routes, NTI work counts)"
run_tests --test bounded_cache
run_tests --test bounded_symbols
run_tests -p joza-sqlparse --test proptests fuzz_
run_tests -p joza-pti --lib stays_within_capacity_and_counts_evictions
run_tests -p joza-pti --lib daemon::tests::dead_
run_tests -p joza-core --lib pti_daemon_death_blocks_then_respawns
run_tests --test pipeline_equivalence evicting_caches_never_change_a_verdict
run_tests -p joza-phpsim --test proptests fuzz_
# Hostile nesting: SQL nested past the parser's bound (parentheses,
# prefix operators, subqueries; 600 and 50,000 levels) is a parse error
# on a default 2 MiB thread stack, never a stack overflow that aborts
# the process, and such a request is served as an SQL error or blocked;
# each form at the deepest depth the parser accepts parses on that stack
# in this debug build.
run_tests -p joza-sqlparse --lib nesting
run_tests --test hostile_nesting
# Stale route code: re-adding a plugin or writing its source through
# `plugin_mut` must drop its cached parse and chunk on both engines.
run_tests -p joza-webapp --lib stale_route_code
# LIKE matching stays polynomial: the iterative matcher equals the
# backtracking reference, 40 `_%` pairs match a 4 KB subject, and a
# wildcard-dense search is served through the gate.
run_tests -p joza-db --lib like
run_tests --test false_positives wildcard_dense_search
# NTI stays linear on long benign comments, pinned by counts, not
# timers: span recovery advances at most 2·⌈|p|/64⌉·|q| DP words (an
# escaped 16 KB comment, and a pair with a candidate end in nearly every
# column), and the piece filter skips exactly the comment-post scans
# whose author is absent from the query.
run_tests -p joza-strmatch --lib recovery_words
run_tests --test nti_kernel_identity piece_filter_skips
# The filters' own work is linear too: 10k distinct skipped 64-byte
# inputs take at most 2·(Σ|p| + |q|) probes and tested bytes against a
# 60-byte query.
# A 20k-row UNION's duplicate elimination finishes, and on small inputs
# keeps exactly the rows the quadratic rule kept.
run_tests -p joza-nti --lib work_count_of_10k_skipped_inputs
run_tests -p joza-db --lib dedup_rows
# A 20k-row SELECT DISTINCT finishes through the same rule.
run_tests -p joza-db --lib distinct_a_20k_row_select_finishes

# Engine equivalence, explicitly: the bytecode VM and the tree-walking
# interpreter must produce bit-identical responses (body, queries,
# sql_error, blocked) and database state over the full lab corpus —
# benign, every exploit, and both second-order two-phase flows — plus the
# 404 and parse-error paths.
echo "==> cargo test -q -p joza-lab --test engine_differential"
run_tests -p joza-lab --test engine_differential

# Engine differential property test: seeded random phpsim programs
# (loops, compound assignment, indexed stores, host query calls,
# mid-program termination) diffed VM vs tree-walk on result, output, and
# the exact SQL sequence the host saw.
echo "==> cargo test -q -p joza-phpsim --test vm_differential"
run_tests -p joza-phpsim --test vm_differential

# Engine edge semantics: foreach snapshotting, break/continue depth,
# Terminated mid-expression, uninitialized reads, and string/number
# coercions pinned against both engines.
echo "==> cargo test -q -p joza-phpsim --test engine_edges"
run_tests -p joza-phpsim --test engine_edges

# The paper's claims: `paper` renders every untimed section (Tables
# I-IV, the threshold and policy ablations, the static report and its
# findings, static hardening, second-order defense), Figure 7 and the two
# timed serving sections, prints the claims table, and exits non-zero if
# any gated claim fails. It writes no files. Besides the paper's claims
# the run gates these floors:
# * harden: >= 50/57 routes rewritten to prepared statements, 0/61
#   response and 0/61 database-state mismatches over the benign corpus
#   after hardening, 52/52 ungated exploits on rewritten routes
#   neutralized, 0/53 exploits still effective behind the gate;
# * second_order: 4/4 trigger routes classified second-order-reachable,
#   8/8 two-phase exploits caught by the persistence-aware gate, 0/8
#   benign round trips blocked, and the first-order baseline missing at
#   least one evasive variant;
# * pipeline: >= 50k checked-q/s single-thread gate-direct, and >= 6x the
#   single-thread checked-query rate at 8 threads on the overlapped-wait
#   rows (the pipe waits overlap, so the run fails if the sharded core
#   serializes them);
# * vm: the VM serves the engine-bound render routes >= 3x faster end to
#   end than the tree-walker.
# The equality oracles stay hard asserts that abort the run: pipeline
# verdicts bit-identical to the single-thread reference at every thread
# count, that reference equal to the ground truth, the path counters
# partitioning the checked queries; VM responses bit-identical across
# engines and the soak's query count conserved; no benign request
# blocked in any section.
echo "==> paper claims (untimed sections, Fig. 7, harden, second_order, pipeline, vm)"
cargo run --quiet --release -p joza-bench --bin paper -- \
    table1 table2 table3 table4 ablation_threshold ablation_policy sast sast-findings \
    harden second_order fig7 pipeline vm

echo "==> CI green"
