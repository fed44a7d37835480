//! Thread-scaling benchmark over the batch-first serving API: checked
//! queries/sec and per-request batch latency at 1/2/4/8 worker threads,
//! plus a deploy-under-load pass at the highest thread count.
//!
//! The paper deploys Joza on a production web server where many PHP
//! workers gate queries concurrently against one shared engine. Earlier
//! revisions of this benchmark measured that regime *through* the
//! simulated PHP application, whose interpreter dominated the profile and
//! capped the observable engine speedup. This revision drives the serving
//! seam directly, the way the redesigned API intends: each worker opens a
//! `JozaSession` per request and checks the request's whole query batch
//! with one `check_batch` call.
//!
//! The workload is `joza_lab::serve_live` traffic: Zipf-distributed route
//! popularity, globally unique query literals (no PTI query-cache hit
//! ever masks a daemon round trip), and periodic attack bursts, so both
//! verdict polarities are exercised at every thread count. The engine
//! runs model-free here — every check takes the full dynamic NTI/PTI
//! path, including the modeled off-CPU pipe round trip — which is what
//! makes the scaling headroom real: workers overlap their pipe waits
//! while the lock-sharded core (16 shards, per-worker stats cells) stays
//! off the critical path.
//!
//! The thread sweep runs twice. The **overlapped modeled wait** rows
//! apply the 400 µs modeled pipe wait per PTI round trip: workers
//! overlap those sleeps, so their speedup measures how well the core
//! stays off the critical path, not compute scaling. The **CPU-bound**
//! rows set the wait to zero, so they scale only as far as the host has
//! cores.
//!
//! Verdicts at every thread count of both sweeps are compared
//! **bit-for-bit** (full `Verdict` equality: decision, detector, stage
//! trace, generation) against a fresh single-threaded engine serving the
//! same corpus. The deploy-under-load pass then serves the same traffic
//! shape at the highest thread count, with the modeled wait, while a
//! deployer thread hot-swaps the static query models in and back out
//! mid-run, reporting the swap latency and the batch-latency percentiles
//! observed around it.
//!
//! Usage:
//!
//! ```text
//! scaling [--requests N] [--batch B] [--repeat R] [--threads 1,2,4,8]
//!         [--min-speedup X] [--out results/BENCH_scaling.json]
//! ```
//!
//! `--min-speedup X` makes the run fail unless the highest thread count
//! of the overlapped rows reaches `X`× their single-thread
//! checked-query throughput (0 disables the gate; CI uses it as a
//! regression tripwire).

use joza_bench::report::{
    percentile, provenance_json, render_table, serving_config, write_json, SHARDS,
};
use joza_core::{Joza, JozaConfig, ModelUpdate};
use joza_lab::serve_live::{
    live_corpus, live_engine, live_testbed, serve_live, serve_live_deploying, LiveReport,
    LiveRequest, LiveTestbed, LiveWorkload,
};
use std::time::Duration;

/// Routes in the synthetic testbed.
const ROUTES: usize = 24;

#[derive(Debug)]
struct Args {
    requests: usize,
    batch: usize,
    repeat: usize,
    threads: Vec<usize>,
    min_speedup: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 64,
        batch: 4,
        repeat: 3,
        threads: vec![1, 2, 4, 8],
        min_speedup: 0.0,
        out: "results/BENCH_scaling.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--requests" => args.requests = value().parse().expect("--requests"),
            "--batch" => args.batch = value().parse().expect("--batch"),
            "--repeat" => args.repeat = value().parse().expect("--repeat"),
            "--threads" => {
                args.threads =
                    value().split(',').map(|t| t.trim().parse().expect("--threads")).collect();
            }
            "--min-speedup" => args.min_speedup = value().parse().expect("--min-speedup"),
            "--out" => args.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(!args.threads.is_empty(), "--threads needs at least one entry");
    assert!(args.repeat >= 1, "--repeat needs at least one measured pass");
    args
}

/// The two sweeps: a row label and the pipe wait it runs with.
fn modes() -> [(&'static str, Duration); 2] {
    [("overlapped modeled wait", serving_config().pti.pipe_latency), ("CPU-bound", Duration::ZERO)]
}

fn config(pipe_latency: Duration) -> JozaConfig {
    let mut cfg = serving_config();
    cfg.pti.pipe_latency = pipe_latency;
    cfg
}

/// One measured cell: the engine at a thread count under one sweep's
/// pipe wait, aggregated over the measured passes.
#[derive(Debug, Clone)]
struct Cell {
    mode: &'static str,
    pipe_latency: Duration,
    threads: usize,
    requests_per_sec: f64,
    queries_per_sec: f64,
    batch_p50: Duration,
    batch_p99: Duration,
    /// Checked-query throughput over the same sweep's first row.
    speedup: f64,
    verdicts_match: bool,
}

/// Per-pass corpora with disjoint literal-id ranges, so no pass (warmup
/// included) ever re-checks query text an earlier pass put in a cache.
/// Pass 0 is the untimed warmup.
fn pass_corpora(testbed: &LiveTestbed, args: &Args) -> Vec<Vec<LiveRequest>> {
    (0..=args.repeat)
        .map(|pass| {
            live_corpus(
                testbed,
                &LiveWorkload {
                    requests: args.requests,
                    batch: args.batch,
                    seed: 0x4a5a + pass as u64,
                    id_base: (pass * args.requests * args.batch) as u64,
                    ..LiveWorkload::default()
                },
            )
        })
        .collect()
}

/// Serves every pass (warmup untimed, then the measured ones) through a
/// fresh engine at `threads` workers under the mode's pipe wait,
/// comparing each measured pass's verdicts bit-for-bit against
/// `reference` (one entry per measured pass; `None` skips comparison —
/// used when *producing* the reference).
fn measure(
    testbed: &LiveTestbed,
    args: &Args,
    corpora: &[Vec<LiveRequest>],
    threads: usize,
    (mode, pipe_latency): (&'static str, Duration),
    reference: Option<&[LiveReport]>,
) -> (Cell, Vec<LiveReport>) {
    let joza = live_engine(testbed, config(pipe_latency), false);
    let _ = serve_live(&joza, testbed, &corpora[0], threads);
    let mut wall = Duration::ZERO;
    let mut served = 0usize;
    let mut queries = 0usize;
    let mut latencies: Vec<Duration> = Vec::new();
    let mut verdicts_match = true;
    let mut reports = Vec::with_capacity(args.repeat);
    for pass in 1..=args.repeat {
        let report = serve_live(&joza, testbed, &corpora[pass], threads);
        wall += report.wall;
        served += report.verdicts.len();
        queries += report.queries();
        latencies.extend_from_slice(&report.request_latencies);
        if let Some(refs) = reference {
            if report.verdicts != refs[pass - 1].verdicts {
                verdicts_match = false;
            }
        }
        reports.push(report);
    }
    let stats = joza.stats();
    let expected = ((args.repeat + 1) * args.requests * args.batch) as u64;
    assert_eq!(stats.queries, expected, "stats lost queries at {threads} threads");
    assert_eq!(
        stats.model_fast_hits + stats.static_hits + stats.full_checks,
        stats.queries,
        "path partition broken at {threads} threads"
    );
    latencies.sort();
    let secs = wall.as_secs_f64();
    let cell = Cell {
        mode,
        pipe_latency,
        threads,
        requests_per_sec: if secs > 0.0 { served as f64 / secs } else { 0.0 },
        queries_per_sec: if secs > 0.0 { queries as f64 / secs } else { 0.0 },
        batch_p50: percentile(&latencies, 0.50),
        batch_p99: percentile(&latencies, 0.99),
        speedup: 1.0,
        verdicts_match,
    };
    (cell, reports)
}

/// The deploy-under-load pass: serves one corpus at `threads` workers
/// while a deployer thread swaps the static query models in (generation
/// 1) and back out (generation 2) halfway through the run.
#[derive(Debug)]
struct DeployRun {
    threads: usize,
    deploy_wall: Duration,
    batch_p50: Duration,
    batch_p99: Duration,
    final_generation: u64,
    max_worker_generation: u64,
    queries: usize,
}

fn deploy_under_load(testbed: &LiveTestbed, args: &Args, threads: usize) -> DeployRun {
    let joza = live_engine(testbed, serving_config(), false);
    // A dedicated id range far past every scaling pass keeps this corpus
    // cache-hostile too.
    let corpus = live_corpus(
        testbed,
        &LiveWorkload {
            requests: args.requests,
            batch: args.batch,
            seed: 0x5eed,
            id_base: 1_000_000,
            ..LiveWorkload::default()
        },
    );
    let report =
        serve_live_deploying(&joza, testbed, &corpus, threads, corpus.len() / 2, |j: &Joza| {
            j.deploy(ModelUpdate::new().query_models(testbed.models.clone()))
                .expect("mid-run model rollout");
            j.deploy(ModelUpdate::new().clear_query_models()).expect("mid-run rollback");
        });
    for (req, batch) in corpus.iter().zip(&report.verdicts) {
        for v in batch {
            assert_eq!(
                v.is_safe(),
                !req.attack,
                "deploy-under-load verdict diverged from ground truth"
            );
        }
    }
    let stats = joza.stats();
    assert_eq!(stats.queries as usize, report.queries(), "queries dropped across the swap");
    assert_eq!(
        stats.model_fast_hits + stats.static_hits + stats.full_checks,
        stats.queries,
        "path partition broken across the swap"
    );
    assert_eq!(joza.generation(), 2, "rollout + rollback must land at generation 2");
    DeployRun {
        threads,
        deploy_wall: report.deploy_wall.expect("deploy must have fired"),
        batch_p50: report.latency_percentile(0.50),
        batch_p99: report.latency_percentile(0.99),
        final_generation: joza.generation(),
        max_worker_generation: report.worker_generations.iter().copied().max().unwrap_or(0),
        queries: report.queries(),
    }
}

fn json_cells(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"mode\": \"{}\", \"pipe_latency_us\": {}, \"threads\": {}, \
                 \"requests_per_sec\": {:.1}, \"queries_per_sec\": {:.1}, \
                 \"batch_p50_us\": {}, \"batch_p99_us\": {}, \"speedup_vs_1t\": {:.2}, \
                 \"verdicts_bit_identical\": {}}}",
                c.mode,
                c.pipe_latency.as_micros(),
                c.threads,
                c.requests_per_sec,
                c.queries_per_sec,
                c.batch_p50.as_micros(),
                c.batch_p99.as_micros(),
                c.speedup,
                c.verdicts_match
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let args = parse_args();
    let testbed = live_testbed(ROUTES);
    println!(
        "scaling: {} requests x {} queries x {} passes, threads {:?}, {} routes",
        args.requests, args.batch, args.repeat, args.threads, ROUTES
    );
    let corpora = pass_corpora(&testbed, &args);

    // The bit-identity reference: a fresh engine serving every measured
    // pass single-threaded (the pipe wait only sleeps, so one reference
    // serves both sweeps). Benign requests must be allowed and attack
    // bursts blocked before any throughput number means anything.
    let (_, reference) = measure(&testbed, &args, &corpora, 1, modes()[1], None);
    for (pass, report) in reference.iter().enumerate() {
        for (req, batch) in corpora[pass + 1].iter().zip(&report.verdicts) {
            for v in batch {
                assert_eq!(
                    v.is_safe(),
                    !req.attack,
                    "single-thread reference diverged from ground truth"
                );
            }
        }
    }

    let mut cells: Vec<Cell> = Vec::new();
    for mode in modes() {
        let first = cells.len();
        for &t in &args.threads {
            cells.push(measure(&testbed, &args, &corpora, t, mode, Some(&reference)).0);
        }
        let base = cells[first].queries_per_sec;
        for c in &mut cells[first..] {
            c.speedup = if base > 0.0 { c.queries_per_sec / base } else { 0.0 };
        }
    }
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.mode.to_string(),
                c.threads.to_string(),
                format!("{:.1}", c.requests_per_sec),
                format!("{:.1}", c.queries_per_sec),
                format!("{:?}", c.batch_p50),
                format!("{:?}", c.batch_p99),
                format!("{:.2}x", c.speedup),
                if c.verdicts_match { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "Mode",
                "Threads",
                "Req/s",
                "Checked q/s",
                "Batch p50",
                "Batch p99",
                "Speedup",
                "Bit-identical"
            ],
            &rows
        )
    );
    for c in &cells {
        assert!(
            c.verdicts_match,
            "verdict mismatch vs single-thread at {} threads ({})",
            c.threads, c.mode
        );
    }
    // The overlapped rows come first; only they are gated.
    let top = &cells[args.threads.len() - 1];
    if args.min_speedup > 0.0 {
        assert!(
            top.speedup >= args.min_speedup,
            "speedup gate failed: {:.2}x at {} threads ({}) < required {:.2}x",
            top.speedup,
            top.threads,
            top.mode,
            args.min_speedup
        );
        println!(
            "speedup gate passed ({}): {:.2}x >= {:.2}x",
            top.mode, top.speedup, args.min_speedup
        );
    }

    let max_threads = args.threads.iter().copied().max().unwrap_or(1);
    let deploy = deploy_under_load(&testbed, &args, max_threads);
    println!(
        "\ndeploy under load ({} threads): rollout+rollback in {:?}, batch p50 {:?} / p99 {:?}, \
         final generation {}, {} queries conserved",
        deploy.threads,
        deploy.deploy_wall,
        deploy.batch_p50,
        deploy.batch_p99,
        deploy.final_generation,
        deploy.queries
    );

    let threads_list = args.threads.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
    let json = format!(
        "{{\n  \"benchmark\": \"scaling\",\n  \"provenance\": {},\n  \"threads\": [{}],\n  \
         \"requests_per_pass\": {},\n  \"batch\": {},\n  \"passes\": {},\n  \
         \"pipe_latency_us\": {},\n  \"shards\": {},\n  \"routes\": {},\n  \
         \"workload\": \"serve_live: zipf routes, unique literals, attack bursts\",\n  \
         \"cells\": [\n{}\n  ],\n  \"deploy_under_load\": {{\"threads\": {}, \"deploys\": 2, \
         \"deploy_wall_us\": {}, \"batch_p50_us\": {}, \"batch_p99_us\": {}, \
         \"final_generation\": {}, \"max_worker_generation\": {}, \"queries\": {}}}\n}}\n",
        provenance_json(),
        threads_list,
        args.requests,
        args.batch,
        args.repeat,
        serving_config().pti.pipe_latency.as_micros(),
        SHARDS,
        ROUTES,
        json_cells(&cells),
        deploy.threads,
        deploy.deploy_wall.as_micros(),
        deploy.batch_p50.as_micros(),
        deploy.batch_p99.as_micros(),
        deploy.final_generation,
        deploy.max_worker_generation,
        deploy.queries
    );
    write_json(&args.out, &json);
}
