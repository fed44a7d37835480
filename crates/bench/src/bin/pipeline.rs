//! Staged-pipeline benchmark in three sections:
//!
//! 1. **End-to-end serving** — checked-queries/sec with the full
//!    `CheckPipeline` live behind the PHP-simulator web server, against a
//!    dynamic-only baseline. This number includes the interpreter's cost.
//! 2. **Gate-direct replay** — the same workload's SQL stream captured
//!    once from an unprotected run (`joza_lab::serve::capture`) and
//!    replayed straight into `JozaSession::check_batch`
//!    (`joza_lab::serve::replay`), so the cell measures the *gate itself*
//!    (lexing, skeleton interning, automaton matching, NTI/PTI when a
//!    query falls through) with no application simulator in the loop.
//!    This is the number the allocation-free hot-path work targets; the
//!    per-request PTI daemon-spawn accounting of the serving front-end
//!    is outside the measured region, the per-query pipe latency of
//!    PTI-bound queries is inside it.
//! 3. **Thread scaling** — the gate-direct replay of fresh captured lab
//!    traffic into the dynamic-only engine (no models, so every check
//!    runs NTI and PTI). Every pass, the untimed warmup included, is its
//!    own capture: `--requests` comment posts with new text (so PTI
//!    query-cache misses and their daemon round trips stay inside the
//!    timed region) followed by every plugin's and CMS case's exploit.
//!    The thread sweep runs twice. The **overlapped modeled wait** rows
//!    apply the 400 µs modeled pipe wait per PTI round trip: workers
//!    overlap those sleeps, so their speedup measures how well the
//!    sharded core stays off the critical path, not compute scaling. The
//!    **CPU-bound** rows set the wait to zero, so they scale only as far
//!    as the host has cores. Every cell's verdicts must equal a fresh
//!    single-thread engine's bit for bit (decision, detector, stage
//!    trace, generation), and that reference must match the ground
//!    truth: no comment post has a flagged query, every exploit has one.
//!
//! The first two sections share one engine build per thread count, and
//! the per-stage latency/hit breakdown is reported for the single-thread
//! gate-direct pass (the least-diluted view of stage cost).
//!
//! Usage:
//!
//! ```text
//! pipeline [--requests N] [--repeat R] [--threads 1,4] [--min-qps F]
//!          [--min-speedup X] [--out results/BENCH_pipeline.json]
//! ```
//!
//! `--min-qps F` makes the run fail if the single-thread
//! gate-direct pipeline throughput lands below `F` checked-q/s — the
//! CI smoke floor against hot-path regressions. `--min-speedup X` makes
//! it fail unless the highest thread count of the overlapped scaling
//! rows reaches `X`× their single-thread checked-query throughput.

use joza_bench::report::{
    pct, percentile, provenance_json, render_table, serving_config, stage_breakdown_json,
    stage_breakdown_rows, write_json, SHARDS,
};
use joza_bench::workload::write_requests_pass;
use joza_core::{Joza, JozaStats, Verdict};
use joza_lab::serve::{capture, replay, serve_parallel, CapturedRequest};
use joza_lab::verify::request_for;
use joza_lab::{build_lab, Lab};
use joza_sast::{app_query_models, taint_free_routes};
use std::time::Duration;

#[derive(Debug)]
struct Args {
    requests: usize,
    repeat: usize,
    threads: Vec<usize>,
    min_qps: f64,
    min_speedup: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 96,
        repeat: 2,
        threads: vec![1, 4],
        min_qps: 0.0,
        min_speedup: 0.0,
        out: "results/BENCH_pipeline.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--requests" => args.requests = value().parse().expect("--requests"),
            "--repeat" => args.repeat = value().parse().expect("--repeat"),
            "--threads" => {
                args.threads = value().split(',').map(|t| t.parse().expect("--threads")).collect();
            }
            "--min-qps" => args.min_qps = value().parse().expect("--min-qps"),
            "--min-speedup" => args.min_speedup = value().parse().expect("--min-speedup"),
            "--out" => args.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.threads.contains(&1), "--threads must include 1 (the reference thread count)");
    args
}

/// `n` per second of `wall`; zero for an empty interval.
fn per_sec(n: usize, wall: Duration) -> f64 {
    if wall.is_zero() {
        0.0
    } else {
        n as f64 / wall.as_secs_f64()
    }
}

/// The fully-loaded engine: every pipeline stage assembled (query models
/// for the model fast path, statically-proven routes for the static one).
fn full_engine(lab: &Lab) -> Joza {
    Joza::installer(&lab.server.app, serving_config())
        .query_models(app_query_models(&lab.server.app))
        .taint_free_routes(taint_free_routes(&lab.server.app))
        .build()
}

/// One throughput cell: dynamic-only vs full pipeline at a thread count.
#[derive(Debug)]
struct Cell {
    threads: usize,
    dynamic_qps: f64,
    pipeline_qps: f64,
    fast_rate: f64,
}

/// The timed passes of a gate-direct replay, aggregated.
#[derive(Debug, Default)]
struct Replayed {
    wall: Duration,
    requests: usize,
    queries: usize,
    /// Per-request latencies of every timed pass, ascending.
    latencies: Vec<Duration>,
    /// Share of each timed pass's checks that missed the PTI query cache.
    cache_miss: Vec<f64>,
    /// Each timed pass's verdicts, in corpus order.
    verdicts: Vec<Vec<Vec<Verdict>>>,
    /// The engine's counters over the timed passes.
    stats: JozaStats,
}

/// Replays `passes[0]` untimed, then every later pass timed, into `joza`
/// from `threads` workers. Asserts that the query counter equals the
/// queries replayed and that the path counters partition it.
fn replay_passes(joza: &Joza, passes: &[Vec<CapturedRequest>], threads: usize) -> Replayed {
    replay(joza, &passes[0], threads);
    let base = joza.stats();
    let mut r = Replayed::default();
    for corpus in &passes[1..] {
        let misses = joza.query_cache_stats().misses;
        let run = replay(joza, corpus, threads);
        let missed = joza.query_cache_stats().misses - misses;
        r.cache_miss.push(missed as f64 / run.queries().max(1) as f64);
        r.wall += run.wall;
        r.requests += corpus.len();
        r.queries += run.queries();
        r.latencies.extend(run.latencies);
        r.verdicts.push(run.verdicts);
    }
    r.latencies.sort();
    r.stats = joza.stats().since(&base);
    assert_eq!(r.stats.queries, r.queries as u64, "stats lost queries at {threads} threads");
    assert_eq!(
        r.stats.model_fast_hits + r.stats.static_hits + r.stats.full_checks,
        r.stats.queries,
        "path partition broken at {threads} threads"
    );
    r
}

fn measure(factory: &Joza, threads: usize, args: &Args) -> f64 {
    let _ = serve_parallel(build_lab, factory, threads, &write_requests_pass(args.requests, 0));
    let base = factory.stats();
    let mut wall = Duration::ZERO;
    let mut queries = 0usize;
    for pass in 1..=args.repeat.max(1) {
        let run =
            serve_parallel(build_lab, factory, threads, &write_requests_pass(args.requests, pass));
        wall += run.wall;
        for resp in &run.responses {
            assert!(!resp.blocked, "benign comment workload was blocked");
            queries += resp.queries.len();
        }
    }
    let d = factory.stats().since(&base);
    assert_eq!(
        d.model_fast_hits + d.static_hits + d.full_checks,
        d.queries,
        "path counters must partition checked queries"
    );
    per_sec(queries, wall)
}

/// The two scaling sweeps: a row label and the pipe wait it runs with.
fn modes() -> [(&'static str, Duration); 2] {
    [("overlapped modeled wait", serving_config().pti.pipe_latency), ("CPU-bound", Duration::ZERO)]
}

/// One pass of scaling traffic, captured from a freshly reset database:
/// `n` comment posts with pass-unique text, then every plugin's and CMS
/// case's exploit request.
fn scaling_corpus(lab: &mut Lab, n: usize, pass: usize) -> Vec<CapturedRequest> {
    let mut requests = write_requests_pass(n, pass);
    let targets = lab.plugins.iter().chain(&lab.cms_cases);
    requests.extend(targets.map(|p| request_for(p, p.exploit.primary_payload())));
    lab.reset_database();
    capture(lab, &requests)
}

/// One thread-scaling cell: the dynamic-only engine at a thread count
/// under one sweep's pipe wait.
#[derive(Debug)]
struct ScalingCell {
    mode: &'static str,
    pipe_latency: Duration,
    threads: usize,
    run: Replayed,
    /// Checked-query throughput over the same sweep's 1-thread row.
    speedup: f64,
}

impl ScalingCell {
    /// Replays the passes through a fresh dynamic-only engine.
    fn measure(
        lab: &Lab,
        passes: &[Vec<CapturedRequest>],
        threads: usize,
        (mode, pipe_latency): (&'static str, Duration),
    ) -> ScalingCell {
        let mut cfg = serving_config();
        cfg.pti.pipe_latency = pipe_latency;
        let run = replay_passes(&Joza::install(&lab.server.app, cfg), passes, threads);
        ScalingCell { mode, pipe_latency, threads, run, speedup: 1.0 }
    }

    fn queries_per_sec(&self) -> f64 {
        per_sec(self.run.queries, self.run.wall)
    }
}

/// Both scaling sweeps over the same captured passes, each cell checked
/// bit for bit against a single-thread reference that is itself checked
/// against the ground truth.
fn thread_scaling(lab: &mut Lab, args: &Args) -> Vec<ScalingCell> {
    let corpora: Vec<_> =
        (0..=args.repeat.max(1)).map(|pass| scaling_corpus(lab, args.requests, pass)).collect();
    // The pipe wait only sleeps, so one reference serves both sweeps.
    let reference = ScalingCell::measure(lab, &corpora, 1, modes()[1]).run.verdicts;
    for (pass, batches) in reference.iter().enumerate() {
        for (i, batch) in batches.iter().enumerate() {
            let flagged = batch.iter().any(|v| !v.is_safe());
            assert_eq!(
                flagged,
                i >= args.requests,
                "pass {}: request {i} ({}) diverged from ground truth",
                pass + 1,
                corpora[pass + 1][i].route
            );
        }
    }
    let mut cells: Vec<ScalingCell> = Vec::new();
    for mode in modes() {
        let first = cells.len();
        for &t in &args.threads {
            let cell = ScalingCell::measure(lab, &corpora, t, mode);
            assert!(
                cell.run.verdicts == reference,
                "verdicts differ from the single-thread reference at {t} threads ({})",
                mode.0
            );
            cells.push(cell);
        }
        let sweep = &mut cells[first..];
        let base = sweep.iter().find(|c| c.threads == 1).map_or(0.0, ScalingCell::queries_per_sec);
        for c in sweep {
            c.speedup = if base > 0.0 { c.queries_per_sec() / base } else { 0.0 };
        }
    }
    cells
}

fn main() {
    let args = parse_args();
    let mut lab = build_lab();
    println!(
        "pipeline: {} requests x {} passes, threads {:?}, pipe latency {:?}",
        args.requests,
        args.repeat,
        args.threads,
        serving_config().pti.pipe_latency
    );

    let corpus = capture(&mut build_lab(), &write_requests_pass(args.requests, 0));
    let corpus_queries: usize = corpus.iter().map(|r| r.checks.len()).sum();
    println!("replay corpus: {} requests, {} queries", corpus.len(), corpus_queries);
    let replays = vec![corpus; args.repeat.max(1) + 1];
    let direct = |joza: &Joza, threads: usize| {
        let r = replay_passes(joza, &replays, threads);
        assert!(
            r.verdicts.iter().flatten().flatten().all(Verdict::is_safe),
            "benign replay flagged"
        );
        r
    };

    let mut cells = Vec::new();
    let mut direct_cells = Vec::new();
    let mut direct_single: Option<(f64, JozaStats)> = None;
    for &t in &args.threads {
        let dynamic_only = Joza::install(&lab.server.app, serving_config());
        let dynamic_qps = measure(&dynamic_only, t, &args);
        let pipeline = full_engine(&lab);
        let pipeline_qps = measure(&pipeline, t, &args);

        let direct_dynamic = direct(&dynamic_only, t);
        let direct_pipeline = direct(&pipeline, t);
        let direct_qps = per_sec(direct_pipeline.queries, direct_pipeline.wall);
        let d = direct_pipeline.stats;
        let fast_rate = (d.model_fast_hits + d.static_hits) as f64 / d.queries.max(1) as f64;
        if t == 1 {
            direct_single = Some((direct_qps, d));
        }
        cells.push(Cell { threads: t, dynamic_qps, pipeline_qps, fast_rate });
        direct_cells.push(Cell {
            threads: t,
            dynamic_qps: per_sec(direct_dynamic.queries, direct_dynamic.wall),
            pipeline_qps: direct_qps,
            fast_rate,
        });
    }

    let table = |cells: &[Cell]| {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.threads.to_string(),
                    format!("{:.1}", c.dynamic_qps),
                    format!("{:.1}", c.pipeline_qps),
                    format!(
                        "{:.2}x",
                        if c.dynamic_qps > 0.0 { c.pipeline_qps / c.dynamic_qps } else { 0.0 }
                    ),
                    pct(c.fast_rate),
                ]
            })
            .collect();
        render_table(
            &["Threads", "Dynamic-only q/s", "Pipeline q/s", "Improvement", "Fast rate"],
            &rows,
        )
    };
    println!("\n== end-to-end serving (fresh-content comment posts) ==\n{}", table(&cells));
    println!(
        "== gate-direct replay (same SQL stream, no interpreter) ==\n{}",
        table(&direct_cells)
    );

    let (direct_qps_1t, stage_stats) = direct_single.expect("--threads includes 1");
    println!(
        "== per-stage breakdown (single-thread gate-direct, full pipeline) ==\n{}",
        render_table(
            &["Stage", "Runs", "Hits", "Hit rate", "Total", "Mean/run"],
            &stage_breakdown_rows(&stage_stats)
        )
    );

    let scaling = thread_scaling(&mut lab, &args);
    let rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|c| {
            vec![
                c.mode.to_string(),
                c.threads.to_string(),
                format!("{:.1}", per_sec(c.run.requests, c.run.wall)),
                format!("{:.1}", c.queries_per_sec()),
                format!("{:?}", percentile(&c.run.latencies, 0.50)),
                format!("{:?}", percentile(&c.run.latencies, 0.99)),
                c.run.cache_miss.iter().map(|m| pct(*m)).collect::<Vec<_>>().join(" / "),
                format!("{:.2}x", c.speedup),
            ]
        })
        .collect();
    println!(
        "== thread scaling (captured comment posts + {} exploits per pass, dynamic-only) ==\n{}",
        lab.plugins.len() + lab.cms_cases.len(),
        render_table(
            &[
                "Mode",
                "Threads",
                "Req/s",
                "Checked q/s",
                "Batch p50",
                "Batch p99",
                "PTI cache miss/pass",
                "Speedup"
            ],
            &rows
        )
    );
    println!("every cell's verdicts are bit-identical to the single-thread reference\n");

    let json_cells = |cells: &[Cell]| {
        cells
            .iter()
            .map(|c| {
                format!(
                    "      {{\"threads\": {}, \"dynamic_qps\": {:.1}, \"pipeline_qps\": {:.1}, \
                     \"improvement\": {:.3}, \"fast_rate\": {:.4}}}",
                    c.threads,
                    c.dynamic_qps,
                    c.pipeline_qps,
                    if c.dynamic_qps > 0.0 { c.pipeline_qps / c.dynamic_qps } else { 0.0 },
                    c.fast_rate
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let scaling_cells = scaling
        .iter()
        .map(|c| {
            format!(
                "      {{\"mode\": \"{}\", \"pipe_latency_us\": {}, \"threads\": {}, \
                 \"requests_per_sec\": {:.1}, \"queries_per_sec\": {:.1}, \
                 \"batch_p50_us\": {}, \"batch_p99_us\": {}, \"pti_cache_miss_per_pass\": [{}], \
                 \"speedup_vs_1t\": {:.2}}}",
                c.mode,
                c.pipe_latency.as_micros(),
                c.threads,
                per_sec(c.run.requests, c.run.wall),
                c.queries_per_sec(),
                percentile(&c.run.latencies, 0.50).as_micros(),
                percentile(&c.run.latencies, 0.99).as_micros(),
                c.run.cache_miss.iter().map(|m| format!("{m:.4}")).collect::<Vec<_>>().join(", "),
                c.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"pipeline\",\n  \"provenance\": {},\n  \
         \"throughput\": {{\"workload\": \"fresh-content comment posts\", \"requests_per_pass\": {}, \
         \"passes\": {}, \"pipe_latency_us\": {}, \"cells\": [\n{}\n    ]}},\n  \
         \"gate_direct\": {{\"workload\": \"captured SQL stream, check_batch replay\", \
         \"corpus_queries\": {}, \"cells\": [\n{}\n    ]}},\n  \
         \"stages\": {},\n  \
         \"scaling\": {{\"workload\": \"captured comment posts + every exploit, fresh per pass, \
         dynamic-only engine\", \"requests_per_pass\": {}, \"exploits_per_pass\": {}, \
         \"passes\": {}, \"shards\": {}, \"cells\": [\n{}\n    ]}}\n}}\n",
        provenance_json(),
        args.requests,
        args.repeat,
        serving_config().pti.pipe_latency.as_micros(),
        json_cells(&cells),
        corpus_queries,
        json_cells(&direct_cells),
        stage_breakdown_json(&stage_stats),
        args.requests,
        lab.plugins.len() + lab.cms_cases.len(),
        args.repeat.max(1),
        SHARDS,
        scaling_cells
    );
    write_json(&args.out, &json);

    assert!(
        direct_qps_1t >= args.min_qps,
        "single-thread gate-direct throughput {direct_qps_1t:.1} q/s is below the --min-qps \
         floor {:.1}",
        args.min_qps
    );
    // The overlapped rows come first; only their top row is gated.
    let top = &scaling[args.threads.len() - 1];
    assert!(
        top.speedup >= args.min_speedup,
        "{:.2}x at {} threads ({}) is below the --min-speedup gate {:.2}x",
        top.speedup,
        top.threads,
        top.mode,
        args.min_speedup
    );
    println!(
        "floors ok: {direct_qps_1t:.1} q/s single-thread gate-direct (--min-qps {}), {:.2}x at \
         {} threads {} (--min-speedup {})",
        args.min_qps, top.speedup, top.threads, top.mode, args.min_speedup
    );
}
