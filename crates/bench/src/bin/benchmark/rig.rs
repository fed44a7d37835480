//! Deploys the engine, drives the worker crew through its phases, checks
//! the guards, and turns what the workers observed into metrics.
//!
//! Load is a closed loop from [`WORKERS`] threads, mirroring
//! `joza_lab::serve_parallel`: each worker owns its own lab server and all
//! share one `Joza`. Work proceeds in rounds of `ROUND` requests per
//! worker between barriers; between rounds, outside the timed window,
//! every worker resets its database and generates its next round's
//! requests. Phases run on the same threads, so the engine's per-worker
//! shards (PTI daemon, structure cache) stay warm from warm-up to timing.

use crate::measure::{self, Summary};
use crate::trace::{self, CheckedQuery, HostCounts, Layer, ReplayLog, Span, Tracer};
use crate::workloads::{Digest, Expect, Inputs, Item, Workload, WARMUP_BASE};
use joza_core::{Joza, JozaConfig, JozaStats, QueryCheck, StageId, Verdict, STAGE_COUNT};
use joza_lab::{build_lab, wordpress, Lab};
use joza_phpsim::fragments::FragmentSet;
use joza_pti::cache::CacheStats;
use joza_pti::{FragmentStore, PtiAnalyzer, PtiDaemon};
use joza_sast::{analyze_store_flow, app_query_models};
use joza_webapp::app::WebApp;
use joza_webapp::server::Response;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients: one per core of the 2-vCPU host the bounds were
/// fixed on.
pub const WORKERS: usize = 2;
/// Requests per worker per round; each worker's database is reset
/// between rounds.
const ROUND: usize = 200;
/// Deployments timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 11;
/// Synthetic WordPress core files, for a WordPress-plus-plugins-scale
/// PTI fragment vocabulary (the paper's §VI setting).
const SYNTHETIC_CORE_FILES: usize = 280;
/// Captured requests the gate-dynamic workload replays.
const POOL: usize = 3000;
/// App workloads warm up for this share of the timed length.
const WARMUP_SHARE: f64 = 0.05;
/// Opening requests served by both the traced and the plain path.
const FIDELITY_REQUESTS: u64 = 64;
/// Checked queries per worker replayed through NTI, PTI and sqlparse.
const REPLAY_CAP: usize = 1500;
/// Timed-stream requests the input digest covers.
const DIGEST_REQUESTS: u64 = 4096;
/// Round trips timed for the PTI daemon IPC estimate.
const IPC_ROUNDS: usize = 2000;
/// Units of reference work each worker times after each round.
const REFERENCE_REPS: usize = 2;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks run length, round size, pool and set-up samples (smoke
    /// runs); 1 is the benchmark proper.
    pub scale: f64,
    /// Where a traced run writes its spans (none: kept in memory only).
    pub spans_dir: Option<std::path::PathBuf>,
}

impl Options {
    /// Length of the timed phase. A traced run spends half of its seconds
    /// on it and about half on the traced replay of the same requests, so
    /// both kinds of run take about equally long.
    fn timed_seconds(&self) -> f64 {
        self.seconds * self.scale / if self.trace { 2.0 } else { 1.0 }
    }

    fn round_size(&self) -> usize {
        ((ROUND as f64 * self.scale.min(1.0)).round() as usize).max(4)
    }

    fn pool_size(&self) -> usize {
        ((POOL as f64 * self.scale.min(1.0)).round() as usize).max(64)
    }

    fn setup_samples(&self) -> usize {
        if self.scale < 1.0 {
            1
        } else {
            SETUP_SAMPLES
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Metrics printed and recorded but not part of the result line: the
    /// failure rate, the attack latency where the workload has attacks,
    /// and (untraced runs) every timing as measured, before adjustment.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

/// The end-to-end metrics, in report order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rps", "req/s"),
    ("cpu_us_per_req", "us"),
    ("benign_p50_us", "us"),
    ("benign_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// A timing taken per segment of the timed phase.
struct SegmentTiming {
    name: &'static str,
    unit: &'static str,
    /// A rate (requests per second) rather than a duration.
    is_rate: bool,
    read: fn(&Segment) -> f64,
}

const SEGMENT_TIMINGS: [SegmentTiming; 5] = [
    SegmentTiming { name: "rps", unit: "req/s", is_rate: true, read: Segment::rps },
    SegmentTiming {
        name: "cpu_us_per_req",
        unit: "us",
        is_rate: false,
        read: Segment::cpu_us_per_req,
    },
    SegmentTiming { name: "benign_p50_us", unit: "us", is_rate: false, read: |s| s.benign().p50 },
    SegmentTiming { name: "benign_p99_us", unit: "us", is_rate: false, read: |s| s.benign().p99 },
    SegmentTiming {
        name: "attack_p50_us",
        unit: "us",
        is_rate: false,
        read: |s| Summary::of(&s.attack_us).p50,
    },
];

/// The per-layer metrics of a traced run, in report order, with units.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("phpsim.vm_self_us_per_req", "us"),
        ("phpsim.host_calls_per_req", "count"),
        ("webapp.transform_us_per_req", "us"),
        ("webapp.host_us_per_req", "us"),
        ("db.exec_us_per_query", "us"),
        ("db.exec_p99_us", "us"),
        ("db.queries_per_req", "count"),
        ("db.write_share", "ratio"),
        ("db.errors_per_kreq", "count"),
        ("core.session_us_per_req", "us"),
        ("core.check_us_per_query", "us"),
        ("core.check_p99_us", "us"),
        ("core.capture_db_us_per_req", "us"),
        ("core.fast_rate", "ratio"),
        ("core.blocked_per_kreq", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for stage in StageId::ALL {
        let s = stage.name();
        out.push((format!("stage.{s}.runs_per_kq"), "count"));
        out.push((format!("stage.{s}.hit_rate"), "ratio"));
        out.push((format!("stage.{s}.ns_per_run"), "ns"));
    }
    out.extend(
        [
            ("nti.analyze_us_per_query", "us"),
            ("nti.input_bytes_per_query", "bytes"),
            ("pti.query_cache_hit_rate", "ratio"),
            ("pti.analyze_us_per_query", "us"),
            ("pti.ipc_us_per_run", "us"),
            ("sqlparse.lex_ns_per_query", "ns"),
            ("sqlparse.fingerprint_ns_per_query", "ns"),
            ("setup.sast_ms", "ms"),
            ("setup.install_ms", "ms"),
            ("setup.compile_ms", "ms"),
            ("attack.p50_us", "us"),
            ("trace.overhead_pct", "%"),
            ("trace.coverage", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// Runs one workload and reports its metrics. `Err` is a guard violation
/// (the run is aborted and reports nothing).
pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut report = Vec::new();
    let lab = build_lab();
    let plugins: Vec<_> = lab.plugins.iter().chain(&lab.cms_cases).cloned().collect();
    let mut app = lab.server.app;
    for src in wordpress::synthetic_core_sources(SYNTHETIC_CORE_FILES) {
        app.add_core_source(&src);
    }
    let config = JozaConfig::optimized();
    check_unmodeled(&config, &app)?;
    let inputs = Inputs::new(workload, opts.seed, plugins, config.nti.threshold);

    let mut samples = Vec::new();
    let mut deployed = None;
    for _ in 0..opts.setup_samples() {
        let (joza, times) = deploy(&app, &config, workload.serves_app())?;
        samples.push(times);
        deployed = Some(joza);
    }
    let joza = deployed.expect("at least one set-up sample");

    let pool = if workload.serves_app() { Vec::new() } else { capture_pool(&inputs, opts)? };
    let digest = input_digest(&inputs, &pool);
    report.push(format!(
        "workload {} seed {} digest {digest:016x} workers {WORKERS} threads-available {} \
         exploit-variants {}",
        workload.name(),
        opts.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs.attack_variants()
    ));
    fidelity_guard(&inputs, &pool, &joza)?;

    let traced_engine =
        if opts.trace { Some(deploy(&app, &config, workload.serves_app())?.0) } else { None };
    let engines: Vec<&Joza> = std::iter::once(&joza).chain(traced_engine.as_ref()).collect();
    let ctx = Ctx {
        inputs: &inputs,
        pool: &pool,
        engines,
        round: opts.round_size(),
        epoch: Instant::now(),
    };
    let run = drive(&ctx, opts)?;
    let peak_rss = measure::peak_rss_mb()?;

    let mut failed = 0u64;
    let mut attempted = 0u64;
    for logs in &run.logs {
        for log in logs {
            attempted += log.samples.len() as u64;
            failed += log.samples.iter().filter(|s| !s.ok).count() as u64;
        }
    }
    let timed: Vec<&Sample> =
        run.logs.iter().flat_map(|l| &l[Phase::Timed.index()].samples).collect();
    let benign = Summary::of(&latencies_us(&timed, false));
    let attack = Summary::of(&latencies_us(&timed, true));
    let timed_phase = &run.phases[Phase::Timed.index()];
    let segments = segments(&run, ctx.round);
    report.push(format!(
        "timed {:.3}s: {} requests ({} benign, {} attack) in {} rounds, {} segments; {} failed of \
         {attempted} attempted in all phases",
        timed_phase.wall().as_secs_f64(),
        timed.len(),
        benign.count,
        attack.count,
        timed_phase.rounds.len(),
        segments.len(),
        failed,
    ));
    report.push(format!(
        "whole timed phase: benign latency p50 {:.1}us p99 {:.1}us over {} samples; attack latency \
         p50 {:.1}us over {} samples",
        benign.p50, benign.p99, benign.count, attack.p50, attack.count
    ));
    if !benign.p99_supported() && opts.scale >= 1.0 {
        return Err(format!(
            "only {} benign samples: benign_p99_us needs at least 1000",
            benign.count
        ));
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut info = vec![Metric {
        name: "fail_rate".into(),
        unit: "ratio",
        value: failed as f64 / attempted.max(1) as f64,
    }];
    if opts.trace {
        per_layer(&joza, &run, &app, &samples, &attack, &mut values, &mut report);
        if let Some(dir) = &opts.spans_dir {
            let file = write_spans(dir, workload, opts.seed, &run)?;
            report.push(format!("spans written to {file}"));
        }
    } else {
        let over_segments = |f: &dyn Fn(&Segment) -> f64| {
            measure::median(&segments.iter().map(f).collect::<Vec<_>>())
        };
        report.push(format!(
            "host slowdown against the reference: {:.3} over the timed segments, {:.3} at set-up",
            over_segments(&Segment::slowdown),
            setup_median(&samples, |s| s.slowdown),
        ));
        // Every timing is reported adjusted to the reference speed, and
        // printed and recorded as measured too.
        let unadjusted =
            |name: &str, unit, value| Metric { name: format!("{name}.unadjusted"), unit, value };
        values.insert(
            "setup_s".into(),
            setup_median(&samples, |s| s.total() / measure::host_factor(s.slowdown)),
        );
        info.push(unadjusted("setup_s", "s", setup_median(&samples, SetupTimes::total)));
        for SegmentTiming { name, unit, is_rate, read } in SEGMENT_TIMINGS {
            if name == "attack_p50_us" && attack.count == 0 {
                continue;
            }
            let adjusted = over_segments(&|s| {
                let factor = measure::host_factor(s.slowdown());
                if is_rate {
                    read(s) * factor
                } else {
                    read(s) / factor
                }
            });
            info.push(unadjusted(name, unit, over_segments(&|s| read(s))));
            if name == "attack_p50_us" {
                info.push(Metric { name: name.into(), unit, value: adjusted });
            } else {
                values.insert(name.into(), adjusted);
            }
        }
        values.insert("peak_rss_mb".into(), peak_rss);
    }
    let declared: Vec<(String, &'static str)> = if opts.trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let metrics = declared
        .into_iter()
        .map(|(name, unit)| {
            let value =
                values.remove(&name).unwrap_or_else(|| panic!("metric {name} not computed"));
            Metric { name, unit, value }
        })
        .collect::<Vec<_>>();
    assert!(values.is_empty(), "undeclared metrics computed: {values:?}");
    if let Some(bad) = metrics.iter().chain(&info).find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok(Outcome { report, metrics, info, attempted, failed, digest })
}

/// Every modeled cost is zero: the benchmark measures real CPU only.
fn check_unmodeled(config: &JozaConfig, app: &WebApp) -> Result<(), String> {
    let pti = &config.pti;
    let costs = [
        ("wrapper_cost", config.wrapper_cost),
        ("pipe_cost", pti.pipe_cost),
        ("pipe_latency", pti.pipe_latency),
        ("response_parse_cost", pti.response_parse_cost),
        ("spawn_cost", pti.spawn_cost),
    ];
    if let Some((name, cost)) = costs.iter().find(|(_, c)| !c.is_zero()) {
        return Err(format!("modeled cost {name} is {cost:?}, not zero"));
    }
    match app.plugins().find(|p| !p.render_cost.is_zero()) {
        Some(p) => Err(format!("route {} has modeled render_cost {:?}", p.name, p.render_cost)),
        None => Ok(()),
    }
}

/// Set-up time split, in seconds, and the host's slowdown against the
/// reference around it.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    sast: f64,
    install: f64,
    compile: f64,
    slowdown: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.sast + self.install + self.compile
    }
}

/// The median over set-up samples of one of their times.
fn setup_median(samples: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    measure::median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// One deployment: static analysis (production engine only), the engine
/// build over every source file, and bytecode compilation of every route.
fn deploy(
    app: &WebApp,
    config: &JozaConfig,
    production: bool,
) -> Result<(Joza, SetupTimes), String> {
    let mut app = app.clone();
    let before = measure::reference_work();
    let t = Instant::now();
    let knowledge = production.then(|| (app_query_models(&app), analyze_store_flow(&app)));
    let sast = t.elapsed();
    let t = Instant::now();
    let mut builder = Joza::installer(&app, config.clone());
    if let Some((models, flow)) = knowledge {
        builder = builder
            .query_models(models)
            .taint_free_routes(flow.taint_free_routes())
            .dirty_cells(flow.dirty_cells());
    }
    let joza = builder.try_build().map_err(|e| format!("engine build failed: {e}"))?;
    let install = t.elapsed();
    let t = Instant::now();
    let routes: Vec<String> = app.plugins().map(|p| p.name.clone()).collect();
    for route in &routes {
        app.chunk(route).map_err(|e| format!("route {route} does not compile: {e}"))?;
    }
    let compile = t.elapsed();
    let reference = (before + measure::reference_work()) / 2;
    let secs = Duration::as_secs_f64;
    Ok((
        joza,
        SetupTimes {
            sast: secs(&sast),
            install: secs(&install),
            compile: secs(&compile),
            slowdown: secs(&reference) / secs(&measure::REFERENCE_WORK),
        },
    ))
}

/// One captured gate-dynamic request: its route, raw inputs, and the SQL
/// the unprotected application issued for it.
#[derive(Debug)]
struct PoolEntry {
    route: String,
    inputs: Vec<(String, String)>,
    checks: Vec<QueryCheck>,
    attack: bool,
}

/// Serves the pool unprotected once (untimed) and captures each
/// request's SQL batch.
fn capture_pool(inputs: &Inputs, opts: &Options) -> Result<Vec<PoolEntry>, String> {
    let mut lab = build_lab();
    inputs
        .pool(opts.pool_size())
        .into_iter()
        .enumerate()
        .map(|(j, Item { request, expect })| {
            if j % ROUND == 0 {
                lab.reset_database();
            }
            let response = lab.server.handle(&request);
            if response.queries.is_empty() {
                return Err(format!("pool request {j} ({}) issued no SQL", request.path));
            }
            if !expect.is_attack() && !judge(&expect, &response) {
                return Err(format!(
                    "benign pool request {j} ({}) failed unprotected",
                    request.path
                ));
            }
            Ok(PoolEntry {
                route: request.path.clone(),
                inputs: request.all_inputs().into_iter().map(|(_, n, v)| (n, v)).collect(),
                checks: response.queries.iter().map(QueryCheck::new).collect(),
                attack: expect.is_attack(),
            })
        })
        .collect()
}

/// A stable digest of the generated inputs: the first timed requests of
/// an app workload, or the whole pool with its captured batches.
fn input_digest(inputs: &Inputs, pool: &[PoolEntry]) -> u64 {
    let mut d = Digest::default();
    if inputs.workload().serves_app() {
        for i in 0..DIGEST_REQUESTS {
            d.request(&inputs.item(i).request);
        }
    } else {
        for e in pool {
            d.field(e.route.as_bytes());
            for (k, v) in &e.inputs {
                d.field(k.as_bytes());
                d.field(v.as_bytes());
            }
            d.checks(&e.checks);
        }
        for i in inputs.pass_order(0, pool.len()) {
            d.field(&i.to_le_bytes());
        }
    }
    d.value()
}

/// Whether a response is what the request should have produced.
fn judge(expect: &Expect, r: &Response) -> bool {
    let denied = r.blocked || r.executed < r.queries.len();
    match expect {
        Expect::Blocked => denied,
        _ if denied
            || r.sql_error.is_some()
            || r.body.starts_with("404")
            || r.body.contains("PHP Fatal error") =>
        {
            false
        }
        Expect::Contains(text) => r.body.contains(text.as_str()),
        Expect::Equals(text) => r.body == *text,
        Expect::Clean => true,
    }
}

fn judge_verdicts(attack: bool, verdicts: &[Verdict]) -> bool {
    verdicts.iter().any(|v| !v.is_safe()) == attack
}

/// A compact signature of a gate-direct outcome, for comparing runs.
fn verdict_signature(verdicts: &[Verdict]) -> u64 {
    let mut d = Digest::default();
    for v in verdicts {
        let bits = [
            u8::from(v.is_safe()),
            v.path() as u8,
            v.nti_attack().map_or(2, u8::from),
            v.pti_attack().map_or(2, u8::from),
            u8::from(v.structural_anomaly()),
        ];
        d.field(&bits);
    }
    d.value()
}

fn response_signature(r: &Response) -> u64 {
    (r.executed as u64) << 1 | u64::from(r.blocked)
}

/// Before timing, the traced path and the plain one serve the same
/// opening requests and must agree exactly.
fn fidelity_guard(inputs: &Inputs, pool: &[PoolEntry], joza: &Joza) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut replay = ReplayLog::new(0);
    if !inputs.workload().serves_app() {
        for (j, e) in pool.iter().enumerate().take(FIDELITY_REQUESTS as usize) {
            let plain = trace::replay_batch(joza, &e.route, &e.inputs, &e.checks);
            let traced = trace::replay_batch_traced(
                joza,
                &e.route,
                &e.inputs,
                &e.checks,
                &mut tracer,
                &mut replay,
            );
            if plain != traced {
                return Err(format!(
                    "fidelity: pool entry {j} ({}) verdicts differ when traced",
                    e.route
                ));
            }
        }
        return Ok(());
    }
    let mut plain_lab = build_lab();
    let mut traced_lab = build_lab();
    let mut counts = HostCounts::default();
    for i in 0..FIDELITY_REQUESTS {
        let request = inputs.item(i).request;
        let a = plain_lab.server.handle_with(&request, joza);
        let b = trace::serve_app(
            &mut traced_lab.server,
            &request,
            joza,
            &mut tracer,
            &mut replay,
            &mut counts,
        );
        let fields = [
            ("body", a.body == b.body),
            ("queries", a.queries == b.queries),
            ("executed", a.executed == b.executed),
            ("blocked", a.blocked == b.blocked),
            ("sql_error", a.sql_error == b.sql_error),
            ("db_time_ms", a.db_time_ms == b.db_time_ms),
        ];
        if let Some((field, _)) = fields.iter().find(|(_, same)| !same) {
            return Err(format!(
                "fidelity: request {i} ({}) differs in {field} between the traced path and \
                 Server::handle_with",
                request.path
            ));
        }
    }
    Ok(())
}

/// The phases of a run, in order. The traced pair repeats the untraced
/// pair on a second, identically deployed engine, so both see the same
/// cache history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Timed,
    TracedWarmup,
    Traced,
}

impl Phase {
    const ALL: [Phase; 4] = [Phase::Warmup, Phase::Timed, Phase::TracedWarmup, Phase::Traced];

    fn index(self) -> usize {
        self as usize
    }

    fn engine(self) -> usize {
        usize::from(matches!(self, Phase::TracedWarmup | Phase::Traced))
    }

    fn warmup(self) -> bool {
        matches!(self, Phase::Warmup | Phase::TracedWarmup)
    }
}

/// One served request as a worker observed it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency_ns: u64,
    attack: bool,
    ok: bool,
    /// The gate blocked at least one of the request's queries.
    denied: bool,
    /// Queries the request checked (sizes the traced phase's span buffer).
    queries: u32,
    /// Outcome signature, compared between the timed and traced phases.
    signature: u64,
}

/// What one worker observed in one phase.
#[derive(Debug, Default)]
struct PhaseLog {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    replay: Vec<CheckedQuery>,
    counts: HostCounts,
}

/// Times of one round.
#[derive(Debug, Clone, Copy)]
struct RoundTimes {
    /// From the first worker's start to the last worker's end.
    wall: Duration,
    /// Each worker's own serving time, without waiting for the other.
    busy: [Duration; WORKERS],
    /// Process CPU time (all threads) over the round.
    cpu: Duration,
    /// Time the workers took for the reference work after the round.
    reference: Duration,
}

/// What the main thread measured over one phase.
#[derive(Debug, Default, Clone)]
struct PhaseTotals {
    rounds: Vec<RoundTimes>,
    stats: JozaStats,
    cache: CacheStats,
}

impl PhaseTotals {
    fn wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall).sum()
    }

    /// The workers' busy time over the phase, adjusted to the reference
    /// host speed.
    fn adjusted_busy(&self) -> f64 {
        let busy: Duration = self.rounds.iter().flat_map(|r| r.busy).sum();
        let reference: Duration = self.rounds.iter().map(|r| r.reference).sum();
        let units = (self.rounds.len() * WORKERS * REFERENCE_REPS) as f64;
        let slowdown = reference.as_secs_f64() / units / measure::REFERENCE_WORK.as_secs_f64();
        busy.as_secs_f64() / measure::host_factor(slowdown)
    }
}

/// Benign samples a segment of the timed phase holds at least, so that
/// its 99th percentile has ten samples beyond it.
const SEGMENT_BENIGN: usize = 1000;

/// A run of consecutive timed rounds, the unit end-to-end timings are
/// computed over; a run reports the median across its segments, which
/// keeps transient slowdowns of the host out of the result.
#[derive(Debug, Default)]
struct Segment {
    /// Requests each worker served.
    per_worker: usize,
    busy: [Duration; WORKERS],
    cpu: Duration,
    /// Total time of the reference work timed after the segment's rounds,
    /// and how many units it was.
    reference: Duration,
    reference_units: u32,
    benign_us: Vec<f64>,
    attack_us: Vec<f64>,
}

impl Segment {
    fn absorb(&mut self, other: Segment) {
        self.per_worker += other.per_worker;
        for (b, o) in self.busy.iter_mut().zip(other.busy) {
            *b += o;
        }
        self.cpu += other.cpu;
        self.reference += other.reference;
        self.reference_units += other.reference_units;
        self.benign_us.extend(other.benign_us);
        self.attack_us.extend(other.attack_us);
    }

    /// Closed-loop throughput: each worker's requests over its own busy
    /// time, summed, so that waiting at the round barrier (an artefact of
    /// the benchmark's rounds, not of the system) does not count.
    fn rps(&self) -> f64 {
        self.busy.iter().map(|b| ratio(self.per_worker as f64, b.as_secs_f64())).sum()
    }

    fn cpu_us_per_req(&self) -> f64 {
        ratio(self.cpu.as_secs_f64() * 1e6, (self.per_worker * WORKERS) as f64)
    }

    fn benign(&self) -> Summary {
        Summary::of(&self.benign_us)
    }

    /// How much slower than the reference host the host ran during the
    /// segment: the mean time of one reference unit over
    /// [`measure::REFERENCE_WORK`].
    fn slowdown(&self) -> f64 {
        let unit = self.reference.as_secs_f64() / f64::from(self.reference_units.max(1));
        unit / measure::REFERENCE_WORK.as_secs_f64()
    }
}

/// Cuts the timed phase into segments of whole rounds holding at least
/// [`SEGMENT_BENIGN`] benign samples; a short remainder joins the last.
fn segments(run: &CrewRun, round: usize) -> Vec<Segment> {
    let mut done: Vec<Segment> = Vec::new();
    let mut open = Segment::default();
    for (r, times) in run.phases[Phase::Timed.index()].rounds.iter().enumerate() {
        let mut this = Segment {
            per_worker: round,
            busy: times.busy,
            cpu: times.cpu,
            reference: times.reference,
            reference_units: (WORKERS * REFERENCE_REPS) as u32,
            benign_us: Vec::new(),
            attack_us: Vec::new(),
        };
        for logs in &run.logs {
            for s in &logs[Phase::Timed.index()].samples[r * round..(r + 1) * round] {
                let us = s.latency_ns as f64 / 1e3;
                if s.attack {
                    this.attack_us.push(us);
                } else {
                    this.benign_us.push(us);
                }
            }
        }
        open.absorb(this);
        if open.benign_us.len() >= SEGMENT_BENIGN {
            done.push(std::mem::take(&mut open));
        }
    }
    match done.last_mut() {
        Some(last) if open.per_worker > 0 => last.absorb(open),
        Some(_) => {}
        None => done.push(open),
    }
    done
}

/// The raw results of a crew run.
struct CrewRun {
    logs: Vec<Vec<PhaseLog>>,
    phases: [PhaseTotals; 4],
}

struct Ctx<'a> {
    inputs: &'a Inputs,
    pool: &'a [PoolEntry],
    /// The timed engine, then (traced runs) the traced one.
    engines: Vec<&'a Joza>,
    round: usize,
    epoch: Instant,
}

/// One worker's start and end of a round, in wall and process CPU time.
#[derive(Debug, Clone, Copy)]
struct RoundClock {
    start: Instant,
    end: Instant,
    cpu_start: Duration,
    cpu_end: Duration,
    reference: Duration,
}

struct Crew {
    barrier: Barrier,
    step: Mutex<Option<(Phase, u64)>>,
    clocks: Mutex<Vec<Option<RoundClock>>>,
    panicked: AtomicBool,
}

/// Runs every phase on one crew of worker threads.
fn drive(ctx: &Ctx, opts: &Options) -> Result<CrewRun, String> {
    let crew = Crew {
        barrier: Barrier::new(WORKERS + 1),
        step: Mutex::new(None),
        clocks: Mutex::new(vec![None; WORKERS]),
        panicked: AtomicBool::new(false),
    };
    let phases: Vec<Phase> =
        if opts.trace { Phase::ALL.to_vec() } else { vec![Phase::Warmup, Phase::Timed] };
    let per_round = (WORKERS * ctx.round) as u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn({
                    let crew = &crew;
                    move || worker(w, crew, ctx)
                })
            })
            .collect();
        let mut totals: [PhaseTotals; 4] = Default::default();
        let mut failure = None;
        'phases: for &phase in &phases {
            let engine = ctx.engines[phase.engine()];
            let (stats0, cache0) = (engine.stats(), engine.query_cache_stats());
            // The traced pair replays exactly the untraced pair's rounds.
            let replayed_rounds = match phase {
                Phase::TracedWarmup => totals[Phase::Warmup.index()].rounds.len(),
                Phase::Traced => totals[Phase::Timed.index()].rounds.len(),
                _ => 0,
            };
            let t = &mut totals[phase.index()];
            loop {
                *crew.step.lock().expect("step lock") = Some((phase, t.rounds.len() as u64));
                crew.barrier.wait(); // step published
                crew.barrier.wait(); // round start
                crew.barrier.wait(); // round end
                crew.barrier.wait(); // reference done
                let clocks: Vec<RoundClock> = crew
                    .clocks
                    .lock()
                    .expect("clock lock")
                    .iter()
                    .map(|c| c.expect("clock"))
                    .collect();
                let start = clocks.iter().map(|c| c.start).min().expect("workers");
                let end = clocks.iter().map(|c| c.end).max().expect("workers");
                let cpu0 = clocks.iter().map(|c| c.cpu_start).min().expect("workers");
                let cpu1 = clocks.iter().map(|c| c.cpu_end).max().expect("workers");
                t.rounds.push(RoundTimes {
                    wall: end - start,
                    busy: std::array::from_fn(|w| clocks[w].end - clocks[w].start),
                    cpu: cpu1.saturating_sub(cpu0),
                    reference: clocks.iter().map(|c| c.reference).sum(),
                });
                if crew.panicked.load(Ordering::SeqCst) {
                    failure = Some("a worker panicked".to_string());
                    break 'phases;
                }
                let done = match phase {
                    Phase::Warmup if ctx.inputs.workload().serves_app() => {
                        t.wall().as_secs_f64() >= WARMUP_SHARE * opts.timed_seconds()
                    }
                    // Gate-dynamic warms up on one full pass of its pool,
                    // so every timed pass sees the same cache state.
                    Phase::Warmup => t.rounds.len() as u64 * per_round >= ctx.pool.len() as u64,
                    Phase::Timed => t.wall().as_secs_f64() >= opts.timed_seconds(),
                    Phase::TracedWarmup | Phase::Traced => t.rounds.len() == replayed_rounds,
                };
                if done {
                    break;
                }
            }
            let t = &mut totals[phase.index()];
            t.stats = stats_delta(&stats0, &engine.stats());
            t.cache = cache_delta(&cache0, &engine.query_cache_stats());
            let d = &t.stats;
            if d.model_fast_hits + d.static_hits + d.full_checks != d.queries {
                failure = Some(format!(
                    "{phase:?}: path counters do not partition the checked queries: {d:?}"
                ));
                break;
            }
        }
        *crew.step.lock().expect("step lock") = None;
        crew.barrier.wait();
        let logs: Vec<Vec<PhaseLog>> =
            handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
        if let Some(f) = failure {
            return Err(f);
        }
        if opts.trace {
            for (w, l) in logs.iter().enumerate() {
                let sig =
                    |p: Phase| l[p.index()].samples.iter().map(|s| s.signature).collect::<Vec<_>>();
                if sig(Phase::Timed) != sig(Phase::Traced) {
                    return Err(format!("worker {w}: traced outcomes differ from untraced ones"));
                }
            }
        }
        Ok(CrewRun { logs, phases: totals })
    })
}

/// A worker: owns its lab, and serves its share of each round.
fn worker(w: usize, crew: &Crew, ctx: &Ctx) -> Vec<PhaseLog> {
    let mut lab: Option<Lab> = ctx.inputs.workload().serves_app().then(build_lab);
    let mut logs: Vec<PhaseLog> = Phase::ALL.iter().map(|_| PhaseLog::default()).collect();
    let mut tracer: Option<Tracer> = None;
    let mut replay = ReplayLog::new(REPLAY_CAP);
    let mut counts = HostCounts::default();
    let mut order: (u64, Vec<u32>) = (u64::MAX, Vec::new());
    let mut items: Vec<Item> = Vec::with_capacity(ctx.round);
    let mut entries: Vec<u32> = Vec::with_capacity(ctx.round);
    loop {
        crew.barrier.wait(); // step published
        let Some((phase, round)) = *crew.step.lock().expect("step lock") else { break };
        if let Some(lab) = lab.as_mut() {
            lab.reset_database();
        }
        if phase == Phase::Traced && round == 0 {
            let spans: usize =
                logs[Phase::Timed.index()].samples.iter().map(|s| 4 + 4 * s.queries as usize).sum();
            tracer = Some(Tracer::new(ctx.epoch, spans + 64));
        }
        let base = round * (WORKERS * ctx.round) as u64;
        items.clear();
        entries.clear();
        for k in 0..ctx.round as u64 {
            let g = base + k * WORKERS as u64 + w as u64;
            if lab.is_some() {
                items.push(ctx.inputs.item(if phase.warmup() { WARMUP_BASE + g } else { g }));
            } else {
                let len = ctx.pool.len() as u64;
                let pass = if phase.warmup() { WARMUP_BASE + g / len } else { g / len };
                if order.0 != pass {
                    order = (pass, ctx.inputs.pass_order(pass, ctx.pool.len()));
                }
                entries.push(order.1[(g % len) as usize]);
            }
        }
        let joza = ctx.engines[phase.engine()];
        let log = &mut logs[phase.index()];

        crew.barrier.wait(); // round start
        let cpu_start = measure::process_cpu();
        let start = Instant::now();
        let served = std::panic::catch_unwind(AssertUnwindSafe(|| match lab.as_mut() {
            Some(lab) => {
                for item in &items {
                    let t = Instant::now();
                    let response = match tracer.as_mut() {
                        Some(tr) => trace::serve_app(
                            &mut lab.server,
                            &item.request,
                            joza,
                            tr,
                            &mut replay,
                            &mut counts,
                        ),
                        None => lab.server.handle_with(&item.request, joza),
                    };
                    log.samples.push(Sample {
                        latency_ns: t.elapsed().as_nanos() as u64,
                        attack: item.expect.is_attack(),
                        ok: judge(&item.expect, &response),
                        denied: response.blocked || response.executed < response.queries.len(),
                        queries: response.queries.len() as u32,
                        signature: response_signature(&response),
                    });
                }
            }
            None => {
                for &j in &entries {
                    let e = &ctx.pool[j as usize];
                    let t = Instant::now();
                    let verdicts = match tracer.as_mut() {
                        Some(tr) => trace::replay_batch_traced(
                            joza,
                            &e.route,
                            &e.inputs,
                            &e.checks,
                            tr,
                            &mut replay,
                        ),
                        None => trace::replay_batch(joza, &e.route, &e.inputs, &e.checks),
                    };
                    log.samples.push(Sample {
                        latency_ns: t.elapsed().as_nanos() as u64,
                        attack: e.attack,
                        ok: judge_verdicts(e.attack, &verdicts),
                        denied: verdicts.iter().any(|v| !v.is_safe()),
                        queries: verdicts.len() as u32,
                        signature: verdict_signature(&verdicts),
                    });
                }
            }
        }));
        let end = Instant::now();
        let cpu_end = measure::process_cpu();
        if served.is_err() {
            crew.panicked.store(true, Ordering::SeqCst);
        }
        crew.clocks.lock().expect("clock lock")[w] =
            Some(RoundClock { start, end, cpu_start, cpu_end, reference: Duration::ZERO });
        crew.barrier.wait(); // round end

        // Both workers time the reference together once neither serves:
        // it then sees the host's speed under two busy threads but not the
        // workload's own cache and memory pressure, and none of its CPU
        // falls inside a round's CPU window.
        let reference = (0..REFERENCE_REPS).map(|_| measure::reference_work()).sum();
        crew.clocks.lock().expect("clock lock")[w].as_mut().expect("clock").reference = reference;
        crew.barrier.wait(); // reference done
    }
    let traced = &mut logs[Phase::Traced.index()];
    traced.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    traced.replay = replay.checks;
    traced.counts = counts;
    logs
}

fn latencies_us(samples: &[&Sample], attack: bool) -> Vec<f64> {
    samples.iter().filter(|s| s.attack == attack).map(|s| s.latency_ns as f64 / 1e3).collect()
}

fn stats_delta(before: &JozaStats, after: &JozaStats) -> JozaStats {
    let array = |a: [u64; STAGE_COUNT], b: [u64; STAGE_COUNT]| std::array::from_fn(|i| a[i] - b[i]);
    JozaStats {
        queries: after.queries - before.queries,
        attacks: after.attacks - before.attacks,
        nti_detections: after.nti_detections - before.nti_detections,
        pti_detections: after.pti_detections - before.pti_detections,
        nti_time: after.nti_time - before.nti_time,
        pti_time: after.pti_time - before.pti_time,
        model_fast_hits: after.model_fast_hits - before.model_fast_hits,
        static_hits: after.static_hits - before.static_hits,
        full_checks: after.full_checks - before.full_checks,
        model_anomalies: after.model_anomalies - before.model_anomalies,
        route_misses_unknown: after.route_misses_unknown - before.route_misses_unknown,
        route_misses_incomplete: after.route_misses_incomplete - before.route_misses_incomplete,
        stage_runs: array(after.stage_runs, before.stage_runs),
        stage_hits: array(after.stage_hits, before.stage_hits),
        stage_ns: array(after.stage_ns, before.stage_ns),
    }
}

fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        inserts: after.inserts - before.inserts,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics: span self times from the traced phase, gate counters
/// from the timed phase, and the isolated NTI/PTI/sqlparse replay.
fn per_layer(
    joza: &Joza,
    run: &CrewRun,
    app: &WebApp,
    setup: &[SetupTimes],
    attack: &Summary,
    values: &mut BTreeMap<String, f64>,
    report: &mut Vec<String>,
) {
    let mut self_ns = [0u64; Layer::ALL.len()];
    let mut spans_of = [0u64; Layer::ALL.len()];
    let mut checked = 0u64;
    let mut check_us = Vec::new();
    let mut exec_us = Vec::new();
    let mut counts = HostCounts::default();
    let mut blocked = 0u64;
    let mut root_ns = 0u64;
    for logs in &run.logs {
        let log = &logs[Phase::Traced.index()];
        let st = trace::self_times(&log.spans);
        for (s, own) in log.spans.iter().zip(st) {
            let l = s.layer as usize;
            self_ns[l] += own;
            spans_of[l] += 1;
            let dur_us = (s.end - s.start) as f64 / 1e3;
            match s.layer {
                Layer::Request => root_ns += s.end - s.start,
                Layer::Check => {
                    checked += u64::from(s.n);
                    check_us.push(dur_us / f64::from(s.n.max(1)));
                }
                Layer::DbExec => exec_us.push(dur_us),
                _ => {}
            }
        }
        counts.executed += log.counts.executed;
        counts.writes += log.counts.writes;
        counts.db_errors += log.counts.db_errors;
        blocked += log.samples.iter().filter(|s| s.denied).count() as u64;
    }
    let requests = spans_of[Layer::Request as usize] as f64;
    let per_req = |l: Layer| ratio(self_ns[l as usize] as f64 / 1e3, requests);
    let covered: u64 = self_ns.iter().skip(1).sum();
    let timed = &run.phases[Phase::Timed.index()];
    let traced = &run.phases[Phase::Traced.index()];
    let stats = &timed.stats;

    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("phpsim.vm_self_us_per_req", per_req(Layer::Vm));
    put("phpsim.host_calls_per_req", ratio(spans_of[Layer::Host as usize] as f64, requests));
    put("webapp.transform_us_per_req", per_req(Layer::Transform));
    put("webapp.host_us_per_req", per_req(Layer::Host));
    put(
        "db.exec_us_per_query",
        ratio(self_ns[Layer::DbExec as usize] as f64 / 1e3, counts.executed as f64),
    );
    put("db.exec_p99_us", Summary::of(&exec_us).p99);
    put("db.queries_per_req", ratio(counts.executed as f64, requests));
    put("db.write_share", ratio(counts.writes as f64, counts.executed as f64));
    put("db.errors_per_kreq", ratio(counts.db_errors as f64 * 1e3, requests));
    put("core.session_us_per_req", per_req(Layer::Session));
    put(
        "core.check_us_per_query",
        ratio(self_ns[Layer::Check as usize] as f64 / 1e3, checked as f64),
    );
    put("core.check_p99_us", Summary::of(&check_us).p99);
    put("core.capture_db_us_per_req", per_req(Layer::CaptureDb));
    put(
        "core.fast_rate",
        ratio((stats.model_fast_hits + stats.static_hits) as f64, stats.queries as f64),
    );
    put("core.blocked_per_kreq", ratio(blocked as f64 * 1e3, requests));
    for stage in StageId::ALL {
        let i = stage.index();
        let runs = stats.stage_runs[i] as f64;
        put(
            &format!("stage.{}.runs_per_kq", stage.name()),
            ratio(runs * 1e3, stats.queries as f64),
        );
        put(&format!("stage.{}.hit_rate", stage.name()), ratio(stats.stage_hits[i] as f64, runs));
        put(&format!("stage.{}.ns_per_run", stage.name()), ratio(stats.stage_ns[i] as f64, runs));
    }
    put(
        "pti.query_cache_hit_rate",
        ratio(timed.cache.hits as f64, (timed.cache.hits + timed.cache.misses) as f64),
    );

    let replayed: Vec<&CheckedQuery> =
        run.logs.iter().flat_map(|l| &l[Phase::Traced.index()].replay).collect();
    let isolated = replay_in_isolation(joza, app, &replayed);
    put("nti.analyze_us_per_query", isolated.nti_us);
    put("nti.input_bytes_per_query", isolated.input_bytes);
    put("pti.analyze_us_per_query", isolated.pti_us);
    put("pti.ipc_us_per_run", isolated.ipc_us);
    put("sqlparse.lex_ns_per_query", isolated.lex_ns);
    put("sqlparse.fingerprint_ns_per_query", isolated.fingerprint_ns);
    put("setup.sast_ms", setup_median(setup, |s| s.sast) * 1e3);
    put("setup.install_ms", setup_median(setup, |s| s.install) * 1e3);
    put("setup.compile_ms", setup_median(setup, |s| s.compile) * 1e3);
    put("attack.p50_us", attack.p50);
    // Both phases serve the same requests on the same workers, so the
    // ratio of the workers' busy times is the ratio of their throughputs.
    let (untraced, traced) = (timed.adjusted_busy(), traced.adjusted_busy());
    put("trace.overhead_pct", (ratio(traced, untraced) - 1.0) * 100.0);
    put("trace.coverage", ratio(covered as f64, root_ns as f64));
    report.push(format!(
        "traced {requests} requests: workers busy {traced:.3}s traced vs {untraced:.3}s untraced \
         (adjusted to the reference speed); {} spans; {} checked queries replayed in isolation",
        spans_of.iter().sum::<u64>(),
        replayed.len()
    ));
}

/// Costs of the detectors and the parser measured outside the engine.
struct Isolated {
    nti_us: f64,
    input_bytes: f64,
    pti_us: f64,
    ipc_us: f64,
    lex_ns: f64,
    fingerprint_ns: f64,
}

/// Replays the sampled checked queries through `NtiAnalyzer::analyze`,
/// `PtiAnalyzer::analyze`, `lexer::lex` and `fingerprint::fingerprint`,
/// and times PTI daemon round trips against in-process analysis.
fn replay_in_isolation(joza: &Joza, app: &WebApp, checks: &[&CheckedQuery]) -> Isolated {
    let nti = joza_nti::NtiAnalyzer::new(joza.config().nti.clone());
    let pti_config = joza.config().pti.pti.clone();
    let mut set = FragmentSet::new();
    for src in app.all_sources() {
        set.add_source(src);
    }
    let store = Arc::new(FragmentStore::from_set(&set, pti_config.matcher));
    let pti = PtiAnalyzer::new(Arc::clone(&store), pti_config.clone());
    // The first analysis on a thread builds that thread's matcher stripe.
    if let Some(c) = checks.first() {
        std::hint::black_box(pti.analyze(&c.query));
    }
    let time_each = |f: &dyn Fn(&CheckedQuery)| -> f64 {
        let t = Instant::now();
        for c in checks {
            f(c);
        }
        ratio(t.elapsed().as_nanos() as f64, checks.len() as f64)
    };
    let nti_ns = time_each(&|c| {
        let inputs: Vec<&str> = c.inputs.iter().map(String::as_str).collect();
        std::hint::black_box(nti.analyze(&inputs, &c.query));
    });
    let pti_ns = time_each(&|c| {
        std::hint::black_box(pti.analyze(&c.query));
    });
    let lex_ns = time_each(&|c| {
        std::hint::black_box(joza_sqlparse::lexer::lex(&c.query));
    });
    let fingerprint_ns = time_each(&|c| {
        std::hint::black_box(joza_sqlparse::fingerprint::fingerprint(&c.query));
    });
    let input_bytes = ratio(
        checks.iter().map(|c| c.inputs.iter().map(String::len).sum::<usize>()).sum::<usize>()
            as f64,
        checks.len() as f64,
    );

    // IPC: the daemon round trip of an empty query (nothing to analyze)
    // minus its in-process analysis, medians over many repetitions.
    let probe = "";
    let client = PtiDaemon::spawn(Arc::clone(&store), pti_config, false);
    std::hint::black_box(client.check(probe));
    let median_ns = |f: &dyn Fn()| {
        let mut v: Vec<f64> = (0..IPC_ROUNDS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let round_trip = median_ns(&|| {
        std::hint::black_box(client.check(probe));
    });
    let local = median_ns(&|| {
        std::hint::black_box(pti.analyze(probe));
    });
    client.shutdown();
    Isolated {
        nti_us: nti_ns / 1e3,
        input_bytes,
        pti_us: pti_ns / 1e3,
        ipc_us: (round_trip - local) / 1e3,
        lex_ns,
        fingerprint_ns,
    }
}

/// Writes the traced phase's spans as tab-separated text into `dir`, and
/// returns the file's path.
fn write_spans(
    dir: &std::path::Path,
    workload: Workload,
    seed: u64,
    run: &CrewRun,
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.tsv", workload.name()));
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    writeln!(out, "worker\trequest\tspan\tparent\tlayer\tstart_ns\tend_ns\tn").map_err(io)?;
    for (w, logs) in run.logs.iter().enumerate() {
        for (i, s) in logs[Phase::Traced.index()].spans.iter().enumerate() {
            let parent = if s.parent == trace::NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{w}\t{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.layer.name(),
                s.start,
                s.end,
                s.n
            )
            .map_err(io)?;
        }
    }
    out.flush().map_err(io)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of about one second, long enough for an unoptimized build to
    /// serve a whole gate-dynamic pool pass, and so its exploits, in the
    /// timed phase.
    fn smoke(w: Workload, trace: bool) -> Outcome {
        let opts = Options { seed: 11, seconds: 100.0, trace, scale: 0.01, spans_dir: None };
        let out = run(w, &opts).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.report);
        assert!(out.attempted > 0);
        let fail_rate = out.info.iter().find(|m| m.name == "fail_rate").expect("fail_rate");
        assert_eq!(fail_rate.value, 0.0);
        out
    }

    /// The untraced path is the one the benchmark's command runs: every
    /// end-to-end metric is reported, in order, finite and positive, and
    /// each timing is also given as measured.
    #[test]
    fn untraced_smoke_run_reports_every_end_to_end_metric() {
        for w in Workload::ALL {
            let out = smoke(w, false);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, END_TO_END.map(|(n, _)| n), "{}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
            }
            for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
                let raw = format!("{name}.unadjusted");
                assert!(out.info.iter().any(|m| m.name == raw), "{}: no {raw}", w.name());
            }
            let attacks = out.info.iter().any(|m| m.name == "attack_p50_us");
            assert_eq!(
                attacks,
                matches!(w, Workload::LabUnderAttack | Workload::GateDynamic),
                "{}: {:?}",
                w.name(),
                out.report
            );
        }
    }

    #[test]
    fn traced_smoke_run_reports_every_per_layer_metric() {
        for w in Workload::ALL {
            let out = smoke(w, true);
            assert_eq!(out.metrics.len(), per_layer_metrics().len());
            let coverage =
                out.metrics.iter().find(|m| m.name == "trace.coverage").expect("coverage");
            assert!(coverage.value > 0.5 && coverage.value <= 1.0, "{}: {coverage:?}", w.name());
        }
    }
}
