//! The serving sections, both timed: the staged pipeline's throughput and
//! thread scaling, and the bytecode VM against the tree-walking
//! interpreter. Also the serve-and-time helper `harden` shares.

use super::{outln, Claim, Paper, Report, Test};
use crate::report::{pct, percentile, render_table, stage_breakdown_rows};
use crate::workload::write_requests_pass;
use joza_core::{Joza, JozaConfig, JozaStats, Verdict};
use joza_lab::harden::benign_corpus;
use joza_lab::serve::{capture, replay, serve_parallel, CapturedRequest};
use joza_lab::verify::request_for;
use joza_lab::{build_lab, Lab};
use joza_sast::{app_query_models, taint_free_routes};
use joza_webapp::request::HttpRequest;
use joza_webapp::server::{Engine, Response};
use std::time::{Duration, Instant};

/// Engine shard count of the serving sections (above the largest thread
/// count they sweep, so concurrent workers never share a PTI shard or
/// stats cell).
const SHARDS: usize = 16;

/// The engine configuration the serving sections (`pipeline`, `harden`)
/// measure: the paper's optimized deployment, [`SHARDS`] shards, and a
/// modeled 400 µs off-CPU PHP↔daemon pipe wait per PTI round trip.
pub(super) fn serving_config() -> JozaConfig {
    let mut cfg = JozaConfig::optimized();
    cfg.shards = SHARDS;
    cfg.pti.pipe_latency = Duration::from_micros(400);
    cfg
}

/// `num / den`; zero when `den` is not positive.
pub(super) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `n` per second of `wall`; zero for an empty interval.
fn per_sec(n: usize, wall: Duration) -> f64 {
    ratio(n as f64, wall.as_secs_f64())
}

/// A gate's timed passes through the PHP-simulator web server.
pub(super) struct Served {
    /// Checked queries per second over the timed passes.
    pub(super) queries_per_sec: f64,
    /// The gate's counters over the timed passes.
    pub(super) stats: JozaStats,
}

/// Serves `pass(0)` untimed to warm `gate`, then `pass(1)` through
/// `pass(passes)` timed, from `threads` workers that each serve a lab
/// from `build`. Every workload timed here is benign: asserts that no
/// request was blocked and that the path counters partition the checked
/// queries.
pub(super) fn serve_timed(
    build: impl Fn() -> Lab + Sync,
    gate: &Joza,
    threads: usize,
    passes: usize,
    pass: impl Fn(usize) -> Vec<HttpRequest>,
) -> Served {
    let _ = serve_parallel(&build, gate, threads, &pass(0));
    let base = gate.stats();
    let (mut wall, mut queries) = (Duration::ZERO, 0usize);
    for p in 1..=passes {
        let requests = pass(p);
        let run = serve_parallel(&build, gate, threads, &requests);
        wall += run.wall;
        for (req, resp) in requests.iter().zip(&run.responses) {
            assert!(!resp.blocked, "benign request to {} was blocked", req.path);
            queries += resp.queries.len();
        }
    }
    let stats = gate.stats().since(&base);
    assert_eq!(
        stats.model_fast_hits + stats.static_hits + stats.full_checks,
        stats.queries,
        "path counters must partition checked queries"
    );
    Served { queries_per_sec: per_sec(queries, wall), stats }
}

/// Comment posts per pass of the `pipeline` section.
const REQUESTS: usize = 96;
/// Timed passes per `pipeline` cell, after one untimed warmup pass.
const PASSES: usize = 3;
/// The thread counts `pipeline` sweeps; the first is the reference.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The fully-loaded engine: every stage live (query models for the model
/// fast path, statically-proven routes for the static one).
fn full_engine(lab: &Lab) -> Joza {
    Joza::installer(&lab.server.app, serving_config())
        .query_models(app_query_models(&lab.server.app))
        .taint_free_routes(taint_free_routes(&lab.server.app))
        .build()
}

/// The timed passes of a gate-direct replay, aggregated.
#[derive(Default)]
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

/// The two scaling sweeps: a row label and the pipe wait it runs with.
fn modes() -> [(&'static str, Duration); 2] {
    [("overlapped modeled wait", serving_config().pti.pipe_latency), ("CPU-bound", Duration::ZERO)]
}

/// One pass of scaling traffic, captured from a freshly reset database:
/// [`REQUESTS`] comment posts with pass-unique text, then every plugin's
/// and CMS case's exploit request.
fn scaling_corpus(lab: &mut Lab, pass: usize) -> Vec<CapturedRequest> {
    let mut requests = write_requests_pass(REQUESTS, pass);
    let targets = lab.plugins.iter().chain(&lab.cms_cases);
    requests.extend(targets.map(|p| request_for(p, p.exploit.primary_payload())));
    lab.reset_database();
    capture(lab, &requests)
}

/// One thread-scaling cell: the dynamic-only engine at a thread count
/// under one sweep's pipe wait.
struct ScalingCell {
    mode: &'static str,
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
        ScalingCell { mode, threads, run, speedup: 1.0 }
    }

    fn queries_per_sec(&self) -> f64 {
        per_sec(self.run.queries, self.run.wall)
    }
}

/// Both scaling sweeps over the same captured passes, each cell checked
/// bit for bit against a single-thread reference that is itself checked
/// against the ground truth.
fn thread_scaling(lab: &mut Lab) -> Vec<ScalingCell> {
    let corpora: Vec<_> = (0..=PASSES).map(|pass| scaling_corpus(lab, pass)).collect();
    // The pipe wait only sleeps, so one reference serves both sweeps.
    let reference = ScalingCell::measure(lab, &corpora, 1, modes()[1]).run.verdicts;
    for (pass, batches) in reference.iter().enumerate() {
        for (i, batch) in batches.iter().enumerate() {
            let flagged = batch.iter().any(|v| !v.is_safe());
            assert_eq!(
                flagged,
                i >= REQUESTS,
                "pass {}: request {i} ({}) diverged from ground truth",
                pass + 1,
                corpora[pass + 1][i].route
            );
        }
    }
    let mut cells: Vec<ScalingCell> = Vec::new();
    for mode in modes() {
        let first = cells.len();
        for t in THREADS {
            let cell = ScalingCell::measure(lab, &corpora, t, mode);
            assert!(
                cell.run.verdicts == reference,
                "verdicts differ from the single-thread reference at {t} threads ({})",
                mode.0
            );
            cells.push(cell);
        }
        let sweep = &mut cells[first..];
        let base = sweep[0].queries_per_sec();
        for c in sweep {
            c.speedup = ratio(c.queries_per_sec(), base);
        }
    }
    cells
}

/// The staged pipeline in three parts:
///
/// 1. **End-to-end serving**: checked-queries/sec with every check stage
///    live behind the PHP-simulator web server, against a
///    dynamic-only baseline. This number includes the interpreter's cost.
/// 2. **Gate-direct replay**: the same workload's SQL stream captured
///    once from an unprotected run (`joza_lab::serve::capture`) and
///    replayed straight into `JozaSession::check_batch`
///    (`joza_lab::serve::replay`), so the cell measures the *gate itself*
///    (lexing, skeleton interning, automaton matching, NTI/PTI when a
///    query falls through) with no application simulator in the loop.
///    This is the number the allocation-free hot-path work targets. The
///    replay opens its sessions with `Joza::session_for`, so the web
///    server's request handling is outside the measured region; the
///    per-query pipe latency of PTI-bound queries is inside it. The per-stage latency/hit breakdown
///    is reported for its single-thread pass, the least diluted view of
///    stage cost.
/// 3. **Thread scaling**: the gate-direct replay of fresh captured lab
///    traffic into the dynamic-only engine (no models, so every check
///    runs NTI and PTI). Every pass, the untimed warmup included, is its
///    own capture: comment posts with new text (so PTI query-cache misses
///    and their daemon round trips stay inside the timed region) followed
///    by every plugin's and CMS case's exploit. The thread sweep runs
///    twice. The **overlapped modeled wait** rows apply the 400 µs
///    modeled pipe wait per PTI round trip: workers overlap those sleeps,
///    so their speedup measures how well the sharded core stays off the
///    critical path, not compute scaling. The **CPU-bound** rows set the
///    wait to zero, so they scale only as far as the host has cores.
///    Every cell's verdicts must equal a fresh single-thread engine's bit
///    for bit (decision, detector, stage trace, generation), and that
///    reference must match the ground truth: no comment post has a
///    flagged query, every exploit has one.
pub(super) fn pipeline(_: &mut Paper) -> Report {
    let mut lab = build_lab();
    let mut r = Report::default();
    outln!(
        r,
        "pipeline: {REQUESTS} requests x {PASSES} passes, threads {THREADS:?}, pipe latency {:?}",
        serving_config().pti.pipe_latency
    );

    let corpus = capture(&mut build_lab(), &write_requests_pass(REQUESTS, 0));
    let corpus_queries: usize = corpus.iter().map(|r| r.checks.len()).sum();
    outln!(r, "replay corpus: {} requests, {corpus_queries} queries", corpus.len());
    let replays = vec![corpus; PASSES + 1];
    let direct = |joza: &Joza, threads: usize| {
        let run = replay_passes(joza, &replays, threads);
        let safe = run.verdicts.iter().flatten().flatten().all(Verdict::is_safe);
        assert!(safe, "benign replay flagged");
        run
    };
    let comments = |pass| write_requests_pass(REQUESTS, pass);
    let row = |t: usize, dynamic_qps: f64, pipeline_qps: f64, fast_rate: f64| {
        vec![
            t.to_string(),
            format!("{dynamic_qps:.1}"),
            format!("{pipeline_qps:.1}"),
            format!("{:.2}x", ratio(pipeline_qps, dynamic_qps)),
            pct(fast_rate),
        ]
    };

    let (mut served, mut direct_rows, mut single) = (Vec::new(), Vec::new(), None);
    for t in THREADS {
        let dynamic_only = Joza::install(&lab.server.app, serving_config());
        let dynamic_qps =
            serve_timed(build_lab, &dynamic_only, t, PASSES, comments).queries_per_sec;
        let pipeline = full_engine(&lab);
        let pipeline_qps = serve_timed(build_lab, &pipeline, t, PASSES, comments).queries_per_sec;

        let direct_dynamic = direct(&dynamic_only, t);
        let direct_pipeline = direct(&pipeline, t);
        let direct_qps = per_sec(direct_pipeline.queries, direct_pipeline.wall);
        let d = direct_pipeline.stats;
        let fast_rate = (d.model_fast_hits + d.static_hits) as f64 / d.queries.max(1) as f64;
        if t == 1 {
            single = Some((direct_qps, d));
        }
        served.push(row(t, dynamic_qps, pipeline_qps, fast_rate));
        let dynamic_direct_qps = per_sec(direct_dynamic.queries, direct_dynamic.wall);
        direct_rows.push(row(t, dynamic_direct_qps, direct_qps, fast_rate));
    }
    let headers = ["Threads", "Dynamic-only q/s", "Pipeline q/s", "Improvement", "Fast rate"];
    outln!(
        r,
        "\n== end-to-end serving (fresh-content comment posts) ==\n{}",
        render_table(&headers, &served)
    );
    outln!(
        r,
        "== gate-direct replay (same SQL stream, no interpreter) ==\n{}",
        render_table(&headers, &direct_rows)
    );
    let (direct_qps_1t, stage_stats) = single.expect("THREADS includes 1");
    outln!(
        r,
        "== per-stage breakdown (single-thread gate-direct, full pipeline) ==\n{}",
        render_table(
            &["Stage", "Runs", "Hits", "Hit rate", "Total", "Mean/run"],
            &stage_breakdown_rows(&stage_stats)
        )
    );

    let scaling = thread_scaling(&mut lab);
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
    outln!(
        r,
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
    outln!(r, "every cell's verdicts are bit-identical to the single-thread reference");

    // The overlapped rows come first; only their top row is gated.
    let top = &scaling[THREADS.len() - 1];
    r.claims = vec![
        Claim::new(
            "Single-thread gate-direct throughput (>= 50k q/s)",
            ">= 50000 q/s",
            format!("{direct_qps_1t:.0} q/s"),
            Test::AtLeast,
            direct_qps_1t >= 50_000.0,
        ),
        Claim::new(
            &format!("Speedup at {} threads, {} (>= 6x)", top.threads, top.mode),
            ">= 6x",
            format!("{:.2}x", top.speedup),
            Test::AtLeast,
            top.speedup >= 6.0,
        ),
    ];
    r
}

/// Interpreter-bound render routes: one query, then loops that build the
/// page string — the WordPress theme-loop shape where the engine (not
/// the database) dominates request time.
const RENDER_ROUTES: [(&str, &str); 3] = [
    (
        "vmb-render-table",
        r#"
        $cat = intval($_GET['cat']);
        $r = mysql_query("SELECT ID, post_title FROM wp_posts WHERE post_status = 'publish' ORDER BY ID");
        $html = "";
        $n = 0;
        while ($row = mysql_fetch_assoc($r)) {
            $n = $n + 1;
            $i = 0;
            while ($i < 24) {
                $i = $i + 1;
                $html .= "<td id='c" . $n . "_" . $i . "'>" . $row['post_title'] . ":" . ($i * 3 + $cat) . "</td>";
            }
            $html .= "</tr><tr>";
        }
        echo "<table><tr>" . $html . "</tr></table>";
        echo "<p>rows=" . $n . " cat=" . $cat . "</p>";
        "#,
    ),
    (
        "vmb-render-archive",
        r#"
        $page = intval($_GET['page']);
        $r = mysql_query("SELECT ID, post_title, post_date FROM wp_posts WHERE post_status = 'publish' ORDER BY post_date DESC");
        $out = "";
        while ($row = mysql_fetch_assoc($r)) {
            $title = strtoupper($row['post_title']);
            $j = 0;
            while ($j < 16) {
                $j = $j + 1;
                $out .= "<li data-p='" . $page . "'>" . $title . " / " . $row['post_date'] . " #" . ($j * $j % 7) . "</li>";
            }
        }
        echo "<ul>" . $out . "</ul>";
        "#,
    ),
    (
        "vmb-render-crumbs",
        r#"
        $s = trim($_GET['s']);
        $crumbs = "";
        $k = 0;
        while ($k < 220) {
            $k = $k + 1;
            $crumbs .= "<a href='/p/" . $k . "?q=" . $s . "'>" . ($k % 10) . "." . strlen($s) . "</a> &raquo; ";
        }
        echo "<nav>" . $crumbs . "</nav>";
        $r = mysql_query("SELECT COUNT(*) FROM wp_posts WHERE post_status = 'publish'");
        $row = mysql_fetch_row($r);
        echo "<span>" . $row[0] . "</span>";
        "#,
    ),
];

/// Registers the render routes on a lab and returns 24 requests cycling
/// over them.
fn render_corpus(lab: &mut Lab) -> Vec<HttpRequest> {
    for (slug, src) in RENDER_ROUTES {
        lab.server.app.add_plugin(joza_webapp::Plugin::new(slug, "1.0", src));
    }
    (0..24)
        .map(|i| match i % 3 {
            0 => HttpRequest::get("vmb-render-table").param("cat", &(i % 9).to_string()),
            1 => HttpRequest::get("vmb-render-archive").param("page", &(i % 5).to_string()),
            _ => HttpRequest::get("vmb-render-crumbs").param("s", "lorem ipsum"),
        })
        .collect()
}

/// Serves one pass, returning its wall time and responses.
fn serve_pass(lab: &mut Lab, requests: &[HttpRequest]) -> (Duration, Vec<Response>) {
    let started = Instant::now();
    let responses = requests.iter().map(|r| lab.server.handle(r)).collect();
    (started.elapsed(), responses)
}

/// One engine's throughput on a corpus: one warmup pass (fills the
/// parse/compile caches), then three timed passes with a database reset
/// before each so both engines serve identical content. Returns
/// requests/s, queries/s and the last pass's responses.
fn time_engine(lab: &mut Lab, requests: &[HttpRequest]) -> (f64, f64, Vec<Response>) {
    const PASSES: usize = 3;
    lab.reset_database();
    let _ = serve_pass(lab, requests);
    let (mut wall, mut queries, mut last) = (Duration::ZERO, 0usize, Vec::new());
    for _ in 0..PASSES {
        lab.reset_database();
        let (w, responses) = serve_pass(lab, requests);
        wall += w;
        queries += responses.iter().map(|r| r.queries.len()).sum::<usize>();
        last = responses;
    }
    (per_sec(requests.len() * PASSES, wall), per_sec(queries, wall), last)
}

/// Asserts that the two engines' responses are bit-identical: body,
/// query stream, SQL error and blocked flag.
fn assert_identical(label: &str, requests: &[HttpRequest], vm: &[Response], tw: &[Response]) {
    assert_eq!(vm.len(), tw.len(), "{label}: response counts differ");
    for (i, (v, t)) in vm.iter().zip(tw).enumerate() {
        assert_eq!(v.body, t.body, "{label} body diverged on request #{i} ({})", requests[i].path);
        assert_eq!(v.queries, t.queries, "{label} queries diverged on request #{i}");
        assert_eq!(v.sql_error, t.sql_error, "{label} sql_error diverged on request #{i}");
        assert_eq!(v.blocked, t.blocked, "{label} blocked diverged on request #{i}");
    }
}

/// The bytecode VM against the tree-walking oracle, end to end through
/// the web-application simulator, in four parts:
///
/// 1. **Compile-once amortization**: wall time to parse and compile every
///    routable source (the per-route cost paid once, cached as
///    `Arc<Chunk>`), against the steady-state wall of serving one corpus
///    pass from warm caches.
/// 2. **Testbed throughput**: the benign corpus (core routes and every
///    plugin's benign request) on both engines, asserting bit-identical
///    responses. These routes are database-bound, so the engine gap is
///    diluted.
/// 3. **Render-route throughput**: interpreter-bound page-render routes
///    (nested loops accumulating HTML with `.=`, per-cell arithmetic,
///    indexed row reads: the WordPress theme-loop idiom), where engine
///    cost dominates the request. The speedup claim rests on these;
///    responses are asserted bit-identical here too.
/// 4. **Soak**: 2,000 requests round-robin over both corpora on the VM
///    with per-request latency: steady-state p50/p90/p99/max, nothing
///    blocked, no SQL errors, and the query count conserved.
pub(super) fn vm(_: &mut Paper) -> Report {
    const SOAK: usize = 2000;
    let mut vm_lab = build_lab();
    let mut tw_lab = build_lab();
    tw_lab.server.set_engine(Engine::TreeWalk);
    let mut corpus = benign_corpus(&vm_lab);
    let plugins = vm_lab.plugins.iter().chain(&vm_lab.cms_cases);
    corpus.extend(plugins.map(|p| request_for(p, &p.benign_value)));
    let render = render_corpus(&mut vm_lab);
    render_corpus(&mut tw_lab);
    let mut r = Report::default();
    outln!(
        r,
        "vm: {} corpus + {} render requests x 3 passes, soak {SOAK}",
        corpus.len(),
        render.len()
    );

    // Cold: parse and compile every routable source on a fresh app.
    let mut cold_lab = build_lab();
    let mut unique: Vec<&str> = corpus.iter().map(|r| r.path.as_str()).collect();
    unique.sort_unstable();
    unique.dedup();
    let compile_start = Instant::now();
    for slug in &unique {
        cold_lab.server.app.chunk(slug).expect("route must compile");
    }
    let compile_wall = compile_start.elapsed();

    let (vm_rps, vm_qps, vm_responses) = time_engine(&mut vm_lab, &corpus);
    let (tw_rps, tw_qps, tw_responses) = time_engine(&mut tw_lab, &corpus);
    assert_identical("testbed", &corpus, &vm_responses, &tw_responses);
    let speedup = ratio(vm_rps, tw_rps);

    let (vm_render_rps, _, vm_render_responses) = time_engine(&mut vm_lab, &render);
    let (tw_render_rps, _, tw_render_responses) = time_engine(&mut tw_lab, &render);
    assert_identical("render", &render, &vm_render_responses, &tw_render_responses);
    let render_speedup = ratio(vm_render_rps, tw_render_rps);

    // How many steady-state VM corpus passes one cold compile costs.
    let compile_in_passes = ratio(compile_wall.as_secs_f64(), ratio(corpus.len() as f64, vm_rps));

    vm_lab.reset_database();
    let soak_corpus: Vec<&HttpRequest> = corpus.iter().chain(&render).collect();
    let per_request_queries: Vec<usize> =
        vm_responses.iter().chain(&vm_render_responses).map(|r| r.queries.len()).collect();
    let mut latencies = Vec::with_capacity(SOAK);
    let (mut soak_queries, mut expected_queries) = (0usize, 0usize);
    for i in 0..SOAK {
        let k = i % soak_corpus.len();
        if k == 0 {
            // Reset at every corpus boundary so steady-state latency is
            // not confounded by unbounded table growth from writes.
            vm_lab.reset_database();
        }
        let req = soak_corpus[k];
        let started = Instant::now();
        let resp = vm_lab.server.handle(req);
        latencies.push(started.elapsed());
        assert!(!resp.blocked, "soak: benign request blocked ({})", req.path);
        assert!(resp.sql_error.is_none(), "soak: benign request errored ({})", req.path);
        soak_queries += resp.queries.len();
        expected_queries += per_request_queries[k];
    }
    assert_eq!(soak_queries, expected_queries, "soak: query count not conserved");
    // Steady state only: drop the first 10% as warmup before ranking.
    let mut steady = latencies.split_off(latencies.len() / 10);
    steady.sort();
    let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|p| percentile(&steady, p));
    let max = steady.last().copied().unwrap_or_default();

    let rows = [
        ("routes compiled (cold)", unique.len().to_string()),
        ("compile wall (all routes)", format!("{compile_wall:?}")),
        ("compile cost in corpus passes", format!("{compile_in_passes:.2}")),
        ("testbed vm requests/s", format!("{vm_rps:.1}")),
        ("testbed tree-walk requests/s", format!("{tw_rps:.1}")),
        ("testbed vm queries/s", format!("{vm_qps:.1}")),
        ("testbed tree-walk queries/s", format!("{tw_qps:.1}")),
        ("testbed speedup (db-bound)", format!("{speedup:.2}x")),
        ("render vm requests/s", format!("{vm_render_rps:.1}")),
        ("render tree-walk requests/s", format!("{tw_render_rps:.1}")),
        ("render speedup (engine-bound)", format!("{render_speedup:.2}x")),
        ("soak requests", SOAK.to_string()),
        ("soak p50 / p90 / p99", format!("{p50:?} / {p90:?} / {p99:?}")),
        ("soak max", format!("{max:?}")),
        ("soak queries conserved", soak_queries.to_string()),
    ]
    .map(|(metric, value)| vec![metric.to_string(), value]);
    outln!(r, "\n{}", render_table(&["Metric", "Value"], &rows));
    outln!(
        r,
        "ok: {} responses bit-identical across engines",
        vm_responses.len() + vm_render_responses.len()
    );

    r.claims.push(Claim::new(
        "VM render-route speedup over the tree-walker (>= 3x)",
        ">= 3x",
        format!("{render_speedup:.2}x"),
        Test::AtLeast,
        render_speedup >= 3.0,
    ));
    r
}
