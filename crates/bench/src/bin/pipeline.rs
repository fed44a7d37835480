//! Staged-pipeline benchmark in two sections:
//!
//! 1. **End-to-end serving** — checked-queries/sec with the full
//!    `CheckPipeline` live behind the PHP-simulator web server, against a
//!    dynamic-only baseline. This number includes the interpreter's cost.
//! 2. **Gate-direct replay** — the same workload's SQL stream captured
//!    once from an unprotected run and replayed straight into
//!    `JozaSession::check_batch`, so the cell measures the *gate itself*
//!    (lexing, skeleton interning, automaton matching, NTI/PTI when a
//!    query falls through) with no application simulator in the loop.
//!    This is the number the allocation-free hot-path work targets; the
//!    per-request PTI daemon-spawn accounting of the serving front-end
//!    is outside the measured region, the per-query pipe latency of
//!    PTI-bound queries is inside it.
//!
//! Both sections share one engine build per thread count, and the
//! per-stage latency/hit breakdown is reported for the single-thread
//! gate-direct pass (the least-diluted view of stage cost).
//!
//! Usage:
//!
//! ```text
//! pipeline [--requests N] [--repeat R] [--threads 1,4] [--min-qps F]
//!          [--out results/BENCH_pipeline.json]
//! ```
//!
//! `--min-qps F` makes the run fail (exit 1) if the single-thread
//! gate-direct pipeline throughput lands below `F` checked-q/s — the
//! CI smoke floor against hot-path regressions.

use joza_bench::report::{
    pct, provenance_json, render_table, serving_config, stage_breakdown_json, stage_breakdown_rows,
    write_json,
};
use joza_core::{Joza, JozaStats, QueryCheck, STAGE_COUNT};
use joza_lab::serve::serve_parallel;
use joza_lab::{build_lab, Lab};
use joza_sast::{app_query_models, taint_free_routes};
use joza_webapp::request::HttpRequest;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Args {
    requests: usize,
    repeat: usize,
    threads: Vec<usize>,
    min_qps: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 96,
        repeat: 2,
        threads: vec![1, 4],
        min_qps: 0.0,
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
            "--out" => args.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// The fully-loaded engine: every pipeline stage assembled (query models
/// for the model fast path, statically-proven routes for the static one).
fn full_engine(lab: &Lab) -> Joza {
    Joza::installer(&lab.server.app, serving_config())
        .query_models(app_query_models(&lab.server.app))
        .taint_free_routes(taint_free_routes(&lab.server.app))
        .build()
}

/// Counter deltas between two stats snapshots (the measured passes only,
/// excluding warmup).
fn delta(before: &JozaStats, after: &JozaStats) -> JozaStats {
    let mut d = *after;
    d.queries = after.queries - before.queries;
    d.model_fast_hits = after.model_fast_hits - before.model_fast_hits;
    d.static_hits = after.static_hits - before.static_hits;
    d.full_checks = after.full_checks - before.full_checks;
    for i in 0..STAGE_COUNT {
        d.stage_runs[i] = after.stage_runs[i] - before.stage_runs[i];
        d.stage_hits[i] = after.stage_hits[i] - before.stage_hits[i];
        d.stage_ns[i] = after.stage_ns[i] - before.stage_ns[i];
    }
    d
}

/// One throughput cell: dynamic-only vs full pipeline at a thread count.
#[derive(Debug)]
struct Cell {
    threads: usize,
    dynamic_qps: f64,
    pipeline_qps: f64,
    fast_rate: f64,
}

/// One request of the captured SQL stream: the route it hit, the raw
/// inputs it carried, and every query the unprotected application issued
/// while serving it.
struct ReplayRequest {
    route: String,
    inputs: Vec<(String, String)>,
    checks: Vec<QueryCheck>,
}

/// Serves the workload once, unprotected, and captures the SQL stream
/// per request — the gate-direct replay corpus.
fn replay_corpus(requests: &[HttpRequest]) -> Vec<ReplayRequest> {
    let mut lab = build_lab();
    requests
        .iter()
        .map(|req| {
            let resp = lab.server.handle(req);
            assert!(!resp.queries.is_empty(), "corpus request issued no SQL: {}", req.path);
            ReplayRequest {
                route: req.path.clone(),
                inputs: req.all_inputs().into_iter().map(|(_, n, v)| (n, v)).collect(),
                checks: resp.queries.iter().map(QueryCheck::new).collect(),
            }
        })
        .collect()
}

/// Replays the corpus straight through per-route sessions on `threads`
/// workers (same interleaving discipline as `serve_parallel`), returning
/// the number of checked queries.
fn replay_once(joza: &Joza, corpus: &[ReplayRequest], threads: usize) -> usize {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let mut n = 0usize;
                    for r in corpus.iter().skip(w).step_by(threads) {
                        let mut session = joza.session_for(&r.route);
                        for (name, value) in &r.inputs {
                            session.capture_input(name, value);
                        }
                        let verdicts = session.check_batch(&r.checks);
                        assert!(
                            verdicts.iter().all(joza_core::Verdict::is_safe),
                            "benign replay was flagged on route {}",
                            r.route
                        );
                        n += verdicts.len();
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay worker panicked")).sum()
    })
}

/// Gate-direct throughput at a thread count: one warmup replay, then
/// `repeat` timed replays.
fn measure_replay(
    joza: &Joza,
    corpus: &[ReplayRequest],
    threads: usize,
    repeat: usize,
) -> (f64, JozaStats) {
    replay_once(joza, corpus, threads);
    let base = joza.stats();
    let started = Instant::now();
    let mut queries = 0usize;
    for _ in 0..repeat.max(1) {
        queries += replay_once(joza, corpus, threads);
    }
    let secs = started.elapsed().as_secs_f64();
    let d = delta(&base, &joza.stats());
    assert_eq!(d.queries, queries as u64, "stats delta must match replayed query count");
    (if secs > 0.0 { queries as f64 / secs } else { 0.0 }, d)
}

fn measure(factory: &Joza, threads: usize, args: &Args) -> (f64, JozaStats) {
    let workload = |pass: usize| joza_bench::workload::write_requests_pass(args.requests, pass);
    let _ = serve_parallel(build_lab, factory, threads, &workload(0));
    let base = factory.stats();
    let mut wall = Duration::ZERO;
    let mut queries = 0usize;
    for pass in 1..=args.repeat.max(1) {
        let reqs = workload(pass);
        let run = serve_parallel(build_lab, factory, threads, &reqs);
        wall += run.wall;
        for resp in &run.responses {
            assert!(!resp.blocked, "benign comment workload was blocked");
            queries += resp.queries.len();
        }
    }
    let d = delta(&base, &factory.stats());
    assert_eq!(
        d.model_fast_hits + d.static_hits + d.full_checks,
        d.queries,
        "path counters must partition checked queries"
    );
    let secs = wall.as_secs_f64();
    (if secs > 0.0 { queries as f64 / secs } else { 0.0 }, d)
}

fn main() {
    let args = parse_args();
    let lab = build_lab();
    println!(
        "pipeline: {} requests x {} passes, threads {:?}, pipe latency {:?}",
        args.requests,
        args.repeat,
        args.threads,
        serving_config().pti.pipe_latency
    );

    let corpus = replay_corpus(&joza_bench::workload::write_requests_pass(args.requests, 0));
    let corpus_queries: usize = corpus.iter().map(|r| r.checks.len()).sum();
    println!("replay corpus: {} requests, {} queries", corpus.len(), corpus_queries);

    let mut cells = Vec::new();
    let mut direct_cells = Vec::new();
    let mut direct_single: Option<(f64, JozaStats)> = None;
    for &t in &args.threads {
        let dynamic_only = Joza::install(&lab.server.app, serving_config());
        let (dynamic_qps, _) = measure(&dynamic_only, t, &args);
        let pipeline = full_engine(&lab);
        let (pipeline_qps, _) = measure(&pipeline, t, &args);

        let (direct_dynamic_qps, _) = measure_replay(&dynamic_only, &corpus, t, args.repeat);
        let (direct_qps, direct_stats) = measure_replay(&pipeline, &corpus, t, args.repeat);
        let fast_rate = (direct_stats.model_fast_hits + direct_stats.static_hits) as f64
            / direct_stats.queries.max(1) as f64;
        if t == 1 {
            direct_single = Some((direct_qps, direct_stats));
        }
        cells.push(Cell { threads: t, dynamic_qps, pipeline_qps, fast_rate });
        direct_cells.push(Cell {
            threads: t,
            dynamic_qps: direct_dynamic_qps,
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

    let (direct_qps_1t, stage_stats) = direct_single.unwrap_or_else(|| {
        panic!("thread list {:?} must include 1 for the breakdown", args.threads)
    });
    println!(
        "== per-stage breakdown (single-thread gate-direct, full pipeline) ==\n{}",
        render_table(
            &["Stage", "Runs", "Hits", "Hit rate", "Total", "Mean/run"],
            &stage_breakdown_rows(&stage_stats)
        )
    );

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
    let json = format!(
        "{{\n  \"benchmark\": \"pipeline\",\n  \"provenance\": {},\n  \
         \"throughput\": {{\"workload\": \"fresh-content comment posts\", \"requests_per_pass\": {}, \
         \"passes\": {}, \"pipe_latency_us\": {}, \"cells\": [\n{}\n    ]}},\n  \
         \"gate_direct\": {{\"workload\": \"captured SQL stream, check_batch replay\", \
         \"corpus_queries\": {}, \"cells\": [\n{}\n    ]}},\n  \
         \"stages\": {}\n}}\n",
        provenance_json(),
        args.requests,
        args.repeat,
        serving_config().pti.pipe_latency.as_micros(),
        json_cells(&cells),
        corpus_queries,
        json_cells(&direct_cells),
        stage_breakdown_json(&stage_stats)
    );
    write_json(&args.out, &json);

    if args.min_qps > 0.0 && direct_qps_1t < args.min_qps {
        eprintln!(
            "FAIL: single-thread gate-direct throughput {direct_qps_1t:.1} q/s is below the \
             --min-qps floor {:.1}",
            args.min_qps
        );
        std::process::exit(1);
    }
    if args.min_qps > 0.0 {
        println!(
            "min-qps floor ok: {direct_qps_1t:.1} q/s >= {:.1} (single-thread gate-direct)",
            args.min_qps
        );
    }
}
