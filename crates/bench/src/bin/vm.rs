//! Bytecode-VM serving benchmark: the compile+VM engine against the
//! tree-walking oracle, end to end through the web-application simulator.
//!
//! Four sections:
//!
//! 1. **Compile-once amortization** — wall time to parse + compile every
//!    routable source (the per-route cost paid exactly once, cached as
//!    `Arc<Chunk>`), against the steady-state wall of serving one full
//!    corpus pass from warm caches. The ratio is how many *whole corpus
//!    passes* one cold compile of the entire application costs.
//! 2. **Testbed corpus throughput** — the benign corpus (core routes +
//!    every plugin's benign request) served by both engines, *asserting
//!    bit-identical responses* (body, query stream, SQL error, blocked
//!    flag) while timing. These routes are database-bound (table scans
//!    dominate), so the engine gap is diluted — the honest
//!    whole-testbed number.
//! 3. **Render routes throughput** — interpreter-bound page-render
//!    routes (fetch once, then nested loops accumulating HTML with `.=`,
//!    per-cell arithmetic, and indexed row reads — the WordPress theme-
//!    loop idiom). Here engine cost dominates the request, so this is
//!    the number that measures the VM itself end to end; the
//!    `--min-speedup` floor is enforced on it. Responses are asserted
//!    bit-identical across engines just like section 2.
//! 4. **Soak** (`--soak N`) — N requests round-robin over corpus +
//!    render routes on the VM engine with per-request latency sampling:
//!    steady-state p50/p90/p99/max and invariant checks (nothing
//!    blocked, no SQL errors, query count conserved across the run).
//!
//! Usage:
//!
//! ```text
//! vm [--requests N] [--repeat R] [--soak S] [--min-speedup F]
//!    [--out results/BENCH_vm.json]
//! ```
//!
//! `--min-speedup F` makes the run fail (exit 1) if the end-to-end
//! Vm/TreeWalk throughput ratio lands below `F` — the CI floor that
//! keeps the bytecode engine from regressing to tree-walk speed.

use joza_bench::report::{git_rev, percentile, provenance_json, render_table, write_json};
use joza_lab::harden::benign_corpus;
use joza_lab::verify::request_for;
use joza_lab::{build_lab, Lab};
use joza_webapp::request::HttpRequest;
use joza_webapp::server::{Engine, Response};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Args {
    requests: usize,
    repeat: usize,
    soak: usize,
    min_speedup: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 0, // 0 = the natural corpus size
        repeat: 3,
        soak: 2000,
        min_speedup: 0.0,
        out: "results/BENCH_vm.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--requests" => args.requests = value().parse().expect("--requests"),
            "--repeat" => args.repeat = value().parse().expect("--repeat"),
            "--soak" => args.soak = value().parse().expect("--soak"),
            "--min-speedup" => args.min_speedup = value().parse().expect("--min-speedup"),
            "--out" => args.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
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

/// Registers the render routes on a lab and returns their request mix.
fn render_corpus(lab: &mut Lab, n: usize) -> Vec<HttpRequest> {
    for (slug, src) in RENDER_ROUTES {
        lab.server.app.add_plugin(joza_webapp::Plugin::new(slug, "1.0", src));
    }
    let mut reqs = Vec::with_capacity(n.max(RENDER_ROUTES.len()));
    for i in 0..n.max(RENDER_ROUTES.len()) {
        reqs.push(match i % 3 {
            0 => HttpRequest::get("vmb-render-table").param("cat", &(i % 9).to_string()),
            1 => HttpRequest::get("vmb-render-archive").param("page", &(i % 5).to_string()),
            _ => HttpRequest::get("vmb-render-crumbs").param("s", "lorem ipsum"),
        });
    }
    reqs
}

/// The benchmark corpus: the benign performance corpus (core routes)
/// plus every plugin's benign request — all 57 routes exercised, no
/// attacks, truncated/cycled to `n` when requested.
fn corpus(lab: &Lab, n: usize) -> Vec<HttpRequest> {
    let mut reqs = benign_corpus(lab);
    for p in lab.plugins.iter().chain(lab.cms_cases.iter()) {
        reqs.push(request_for(p, &p.benign_value));
    }
    if n > 0 {
        let base = reqs.clone();
        while reqs.len() < n {
            reqs.push(base[reqs.len() % base.len()].clone());
        }
        reqs.truncate(n);
    }
    reqs
}

/// Serves one corpus pass, returning wall time, responses, and total
/// query count.
fn pass(lab: &mut Lab, corpus: &[HttpRequest]) -> (Duration, Vec<Response>, usize) {
    let started = Instant::now();
    let responses: Vec<Response> = corpus.iter().map(|r| lab.server.handle(r)).collect();
    let wall = started.elapsed();
    let queries = responses.iter().map(|r| r.queries.len()).sum();
    (wall, responses, queries)
}

/// Timed measurement: one warmup pass (fills parse/compile caches), then
/// `repeat` timed passes with a database reset before each so both
/// engines serve identical content.
fn measure(lab: &mut Lab, corpus: &[HttpRequest], repeat: usize) -> (f64, f64, Vec<Response>) {
    lab.reset_database();
    let _ = pass(lab, corpus);
    let mut wall = Duration::ZERO;
    let mut queries = 0usize;
    let mut last = Vec::new();
    for _ in 0..repeat.max(1) {
        lab.reset_database();
        let (w, responses, q) = pass(lab, corpus);
        wall += w;
        queries += q;
        last = responses;
    }
    let secs = wall.as_secs_f64();
    let n = (corpus.len() * repeat.max(1)) as f64;
    (
        if secs > 0.0 { n / secs } else { 0.0 },
        if secs > 0.0 { queries as f64 / secs } else { 0.0 },
        last,
    )
}

fn main() {
    let args = parse_args();
    let mut vm_lab = build_lab();
    let mut tw_lab = build_lab();
    tw_lab.server.set_engine(Engine::TreeWalk);
    let corpus = corpus(&vm_lab, args.requests);
    let render = render_corpus(&mut vm_lab, 24);
    let _ = render_corpus(&mut tw_lab, 24);
    println!(
        "vm bench @ {}: {} corpus + {} render requests x {} passes, soak {}",
        git_rev(),
        corpus.len(),
        render.len(),
        args.repeat,
        args.soak
    );

    // -- Section 1: compile-once amortization --------------------------
    // Cold: parse + compile every routable source on a fresh app.
    let mut cold_lab = build_lab();
    let routes: Vec<String> = corpus.iter().map(|r| r.path.clone()).collect();
    let mut unique: Vec<String> = routes.clone();
    unique.sort();
    unique.dedup();
    let compile_start = Instant::now();
    for slug in &unique {
        cold_lab.server.app.chunk(slug).expect("route must compile");
    }
    let compile_wall = compile_start.elapsed();

    // -- Section 2: end-to-end throughput, both engines ----------------
    let (vm_rps, vm_qps, vm_responses) = measure(&mut vm_lab, &corpus, args.repeat);
    let (tw_rps, tw_qps, tw_responses) = measure(&mut tw_lab, &corpus, args.repeat);
    assert_eq!(vm_responses.len(), tw_responses.len());
    for (i, (v, t)) in vm_responses.iter().zip(&tw_responses).enumerate() {
        assert_eq!(v.body, t.body, "body diverged on request #{i} ({})", corpus[i].path);
        assert_eq!(v.queries, t.queries, "queries diverged on request #{i}");
        assert_eq!(v.sql_error, t.sql_error, "sql_error diverged on request #{i}");
        assert_eq!(v.blocked, t.blocked, "blocked diverged on request #{i}");
    }
    let speedup = if tw_rps > 0.0 { vm_rps / tw_rps } else { 0.0 };

    // -- Section 3: interpreter-bound render routes --------------------
    let (vm_render_rps, _, vm_render_responses) = measure(&mut vm_lab, &render, args.repeat);
    let (tw_render_rps, _, tw_render_responses) = measure(&mut tw_lab, &render, args.repeat);
    for (i, (v, t)) in vm_render_responses.iter().zip(&tw_render_responses).enumerate() {
        assert_eq!(v.body, t.body, "render body diverged on request #{i} ({})", render[i].path);
        assert_eq!(v.queries, t.queries, "render queries diverged on request #{i}");
        assert_eq!(v.sql_error, t.sql_error, "render sql_error diverged on request #{i}");
        assert_eq!(v.blocked, t.blocked, "render blocked diverged on request #{i}");
    }
    let render_speedup = if tw_render_rps > 0.0 { vm_render_rps / tw_render_rps } else { 0.0 };

    // Steady-state corpus-pass wall on the VM engine, for the
    // amortization ratio.
    let steady_pass_wall = if vm_rps > 0.0 { corpus.len() as f64 / vm_rps } else { 0.0 };
    let compile_in_passes =
        if steady_pass_wall > 0.0 { compile_wall.as_secs_f64() / steady_pass_wall } else { 0.0 };

    // -- Section 4: soak ------------------------------------------------
    vm_lab.reset_database();
    let soak_corpus: Vec<&HttpRequest> = corpus.iter().chain(render.iter()).collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(args.soak);
    let mut soak_queries = 0usize;
    let mut expected_queries = 0usize;
    let per_request_queries: Vec<usize> =
        vm_responses.iter().chain(vm_render_responses.iter()).map(|r| r.queries.len()).collect();
    for i in 0..args.soak {
        let req = soak_corpus[i % soak_corpus.len()];
        if i % soak_corpus.len() == 0 {
            // Reset at every corpus boundary so steady-state latency is
            // not confounded by unbounded table growth from writes.
            vm_lab.reset_database();
        }
        let started = Instant::now();
        let resp = vm_lab.server.handle(req);
        latencies.push(started.elapsed());
        assert!(!resp.blocked, "soak: benign request blocked ({})", req.path);
        assert!(resp.sql_error.is_none(), "soak: benign request errored ({})", req.path);
        soak_queries += resp.queries.len();
        expected_queries += per_request_queries[i % soak_corpus.len()];
    }
    assert_eq!(soak_queries, expected_queries, "soak: query count not conserved");
    // Steady state only: drop the first 10% as warmup before ranking.
    let warm = latencies.len() / 10;
    let mut steady: Vec<Duration> = latencies[warm..].to_vec();
    steady.sort();
    let (p50, p90, p99) =
        (percentile(&steady, 0.50), percentile(&steady, 0.90), percentile(&steady, 0.99));
    let max = steady.last().copied().unwrap_or_default();

    let rows = vec![
        vec!["routes compiled (cold)".into(), unique.len().to_string()],
        vec!["compile wall (all routes)".into(), format!("{compile_wall:?}")],
        vec!["compile cost in corpus passes".into(), format!("{compile_in_passes:.2}")],
        vec!["testbed vm requests/s".into(), format!("{vm_rps:.1}")],
        vec!["testbed tree-walk requests/s".into(), format!("{tw_rps:.1}")],
        vec!["testbed vm queries/s".into(), format!("{vm_qps:.1}")],
        vec!["testbed tree-walk queries/s".into(), format!("{tw_qps:.1}")],
        vec!["testbed speedup (db-bound)".into(), format!("{speedup:.2}x")],
        vec!["render vm requests/s".into(), format!("{vm_render_rps:.1}")],
        vec!["render tree-walk requests/s".into(), format!("{tw_render_rps:.1}")],
        vec!["render speedup (engine-bound)".into(), format!("{render_speedup:.2}x")],
        vec!["soak requests".into(), args.soak.to_string()],
        vec!["soak p50 / p90 / p99".into(), format!("{p50:?} / {p90:?} / {p99:?}")],
        vec!["soak max".into(), format!("{max:?}")],
        vec!["soak queries conserved".into(), soak_queries.to_string()],
    ];
    println!("\n{}", render_table(&["Metric", "Value"], &rows));
    println!(
        "ok: {} responses bit-identical across engines",
        vm_responses.len() + vm_render_responses.len()
    );

    let json = format!(
        "{{\n  \"benchmark\": \"vm\",\n  \"provenance\": {},\n  \
         \"corpus\": {{\"requests\": {}, \"passes\": {}, \"routes\": {}}},\n  \
         \"compile\": {{\"routes\": {}, \"wall_us\": {}, \"cost_in_corpus_passes\": {:.3}}},\n  \
         \"testbed\": {{\"workload\": \"benign corpus, db-bound\", \"vm_rps\": {:.1}, \
         \"tree_walk_rps\": {:.1}, \"vm_qps\": {:.1}, \"tree_walk_qps\": {:.1}, \
         \"speedup\": {:.3}, \"responses_identical\": true}},\n  \
         \"render\": {{\"workload\": \"page-render loops, engine-bound\", \"requests\": {}, \
         \"vm_rps\": {:.1}, \"tree_walk_rps\": {:.1}, \"speedup\": {:.3}, \
         \"responses_identical\": true}},\n  \
         \"soak\": {{\"requests\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \
         \"max_us\": {}, \"queries\": {}, \"blocked\": 0, \"sql_errors\": 0}}\n}}\n",
        provenance_json(),
        corpus.len(),
        args.repeat,
        unique.len(),
        unique.len(),
        compile_wall.as_micros(),
        compile_in_passes,
        vm_rps,
        tw_rps,
        vm_qps,
        tw_qps,
        speedup,
        render.len(),
        vm_render_rps,
        tw_render_rps,
        render_speedup,
        args.soak,
        p50.as_micros(),
        p90.as_micros(),
        p99.as_micros(),
        max.as_micros(),
        soak_queries,
    );
    write_json(&args.out, &json);

    if args.min_speedup > 0.0 && render_speedup < args.min_speedup {
        eprintln!(
            "FAIL: vm/tree-walk render-route speedup {render_speedup:.2}x is below the \
             --min-speedup floor {:.2}x",
            args.min_speedup
        );
        std::process::exit(1);
    }
    if args.min_speedup > 0.0 {
        println!(
            "min-speedup floor ok: {render_speedup:.2}x >= {:.2}x (engine-bound render routes)",
            args.min_speedup
        );
    }
}
