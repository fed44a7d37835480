//! Static query-model evaluation: coverage, verdict parity, fast-path
//! hit rate, and end-to-end gate throughput with models compiled in.
//!
//! `joza_sast::app_query_models` infers, per route, the set of legal
//! query skeletons each sink can emit; `joza_core` compiles them into
//! the gate as a whitelist fast path (matching queries skip NTI/PTI)
//! plus a structural-anomaly signal (a query outside a *complete* model
//! deformed the statically known structure). This benchmark measures
//! that pipeline over the full WP-SQLI-LAB:
//!
//! * **coverage** — routes/sites/templates modeled, checked against the
//!   lab's ground-truth completeness labels;
//! * **parity** — blocking verdicts with models on must be identical to
//!   the model-off baseline over benign *and* exploit traffic, attacks
//!   must never ride the fast path, and ≥ 50% of benign queries must;
//! * **throughput** — multi-worker checked-queries/sec, model-off vs
//!   model-on, over the benign-heavy fresh-content comment workload
//!   with the modeled daemon pipe latency applied (the fast path skips
//!   the daemon round trip entirely, which is where the win comes from).
//!
//! Usage:
//!
//! ```text
//! querymodel [--requests N] [--repeat R] [--threads 1,4]
//!            [--pipe-latency-us US] [--out results/BENCH_querymodel.json]
//! ```

use joza_bench::report::{pct, provenance_json, render_table};
use joza_core::{Joza, JozaConfig, MatchKernel};
use joza_lab::serve::serve_parallel;
use joza_lab::verify::request_for;
use joza_lab::{build_lab, model_ground_truth, Lab};
use joza_sast::app_query_models;
use joza_webapp::request::HttpRequest;
use std::time::Duration;

/// Engine shard count for the throughput cells (above the largest thread
/// count so workers never share a shard).
const SHARDS: usize = 16;

#[derive(Debug)]
struct Args {
    requests: usize,
    repeat: usize,
    threads: Vec<usize>,
    pipe_latency: Duration,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 96,
        repeat: 2,
        threads: vec![1, 4],
        pipe_latency: Duration::from_micros(400),
        out: "results/BENCH_querymodel.json".to_string(),
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
            "--pipe-latency-us" => {
                args.pipe_latency =
                    Duration::from_micros(value().parse().expect("--pipe-latency-us"));
            }
            "--out" => args.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn scaled_config(pipe_latency: Duration) -> JozaConfig {
    let mut cfg = JozaConfig::optimized();
    cfg.shards = SHARDS;
    cfg.pti.pipe_latency = pipe_latency;
    cfg
}

/// Aggregate model coverage over every route, scored against the lab's
/// ground-truth completeness labels.
#[derive(Debug, Default)]
struct Coverage {
    routes: usize,
    complete_routes: usize,
    sites: usize,
    modeled_sites: usize,
    compiled: usize,
    rejected: usize,
    ground_truth_mismatches: usize,
}

fn coverage(lab: &Lab) -> Coverage {
    let models = app_query_models(&lab.server.app);
    let mut cov = Coverage::default();
    for (route, expected_complete) in model_ground_truth(lab) {
        let m = models.get(&route).unwrap_or_else(|| panic!("no model for route {route}"));
        cov.routes += 1;
        cov.complete_routes += usize::from(m.complete);
        cov.sites += m.sites;
        cov.modeled_sites += m.modeled_sites;
        cov.compiled += m.compiled;
        cov.rejected += m.rejected;
        if m.complete != expected_complete {
            cov.ground_truth_mismatches += 1;
            eprintln!(
                "coverage: route {route} inferred complete={}, ground truth {}",
                m.complete, expected_complete
            );
        }
    }
    cov
}

fn benign_requests(lab: &Lab) -> Vec<HttpRequest> {
    let mut reqs = vec![HttpRequest::get("index")];
    for p in 1..=5 {
        reqs.push(HttpRequest::get("single-post").param("p", &p.to_string()));
    }
    reqs.push(HttpRequest::get("search").param("s", "lorem"));
    reqs.push(
        HttpRequest::post("post-comment")
            .param("comment_post_ID", "2")
            .param("author", "alice")
            .param("comment", "nice post"),
    );
    for p in lab.plugins.iter().chain(lab.cms_cases.iter()) {
        reqs.push(request_for(p, &p.benign_value));
    }
    reqs
}

fn attack_requests(lab: &Lab) -> Vec<HttpRequest> {
    lab.plugins
        .iter()
        .chain(lab.cms_cases.iter())
        .map(|p| request_for(p, p.exploit.primary_payload()))
        .collect()
}

/// Verdict parity + fast-path accounting over the full corpus.
#[derive(Debug, Default)]
struct Parity {
    benign_requests: usize,
    attack_requests: usize,
    verdict_deltas: usize,
    benign_queries: u64,
    benign_fast_hits: u64,
    attack_fast_hits: u64,
}

impl Parity {
    fn benign_fast_rate(&self) -> f64 {
        if self.benign_queries == 0 {
            return 0.0;
        }
        self.benign_fast_hits as f64 / self.benign_queries as f64
    }
}

fn parity(lab: &mut Lab) -> Parity {
    let models = app_query_models(&lab.server.app);
    let baseline = Joza::install(&lab.server.app, JozaConfig::optimized());
    let modeled =
        Joza::installer(&lab.server.app, JozaConfig::optimized()).query_models(models).build();
    let mut out = Parity::default();

    let run = |req: &HttpRequest, lab: &mut Lab| -> (bool, bool) {
        lab.reset_database();
        let off = lab.server.handle_with(req, &baseline);
        lab.reset_database();
        let on = lab.server.handle_with(req, &modeled);
        (off.blocked, on.blocked)
    };

    for req in &benign_requests(lab) {
        let before = modeled.stats();
        let (off, on) = run(req, lab);
        let after = modeled.stats();
        out.benign_requests += 1;
        out.benign_queries += after.queries - before.queries;
        out.benign_fast_hits += after.model_fast_hits - before.model_fast_hits;
        if on != off {
            out.verdict_deltas += 1;
            eprintln!("parity: benign verdict delta on {req:?}");
        }
    }
    for req in &attack_requests(lab) {
        let before = modeled.stats().model_fast_hits;
        let (off, on) = run(req, lab);
        let after = modeled.stats().model_fast_hits;
        out.attack_requests += 1;
        out.attack_fast_hits += after - before;
        if on != off {
            out.verdict_deltas += 1;
            eprintln!("parity: attack verdict delta on {req:?}");
        }
    }
    out
}

/// One throughput cell: model-off vs model-on at a thread count.
#[derive(Debug)]
struct Cell {
    threads: usize,
    off_qps: f64,
    on_qps: f64,
    fast_rate: f64,
}

fn throughput(lab: &Lab, args: &Args) -> Vec<Cell> {
    let workload = |pass: usize| joza_bench::workload::write_requests_pass(args.requests, pass);
    let measure = |factory: &Joza, threads: usize| -> (f64, f64) {
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
        let delta = factory.stats();
        let fast = (delta.model_fast_hits - base.model_fast_hits) as f64
            / (delta.queries - base.queries).max(1) as f64;
        let secs = wall.as_secs_f64();
        (if secs > 0.0 { queries as f64 / secs } else { 0.0 }, fast)
    };

    let mut cells = Vec::new();
    for &t in &args.threads {
        let off_engine = Joza::install(&lab.server.app, scaled_config(args.pipe_latency));
        let (off_qps, _) = measure(&off_engine, t);
        let on_engine = Joza::installer(&lab.server.app, scaled_config(args.pipe_latency))
            .query_models(app_query_models(&lab.server.app))
            .build();
        let (on_qps, fast_rate) = measure(&on_engine, t);
        cells.push(Cell { threads: t, off_qps, on_qps, fast_rate });
    }
    cells
}

fn main() {
    let args = parse_args();
    let mut lab = build_lab();
    println!(
        "querymodel: {} requests x {} passes, threads {:?}, pipe latency {:?}",
        args.requests, args.repeat, args.threads, args.pipe_latency
    );

    let cov = coverage(&lab);
    println!(
        "\n== model coverage ==\n{}",
        render_table(
            &["Routes", "Complete", "Sites", "Modeled", "Compiled", "Rejected", "GT mismatches"],
            &[vec![
                cov.routes.to_string(),
                cov.complete_routes.to_string(),
                cov.sites.to_string(),
                cov.modeled_sites.to_string(),
                cov.compiled.to_string(),
                cov.rejected.to_string(),
                cov.ground_truth_mismatches.to_string(),
            ]],
        )
    );
    assert_eq!(cov.ground_truth_mismatches, 0, "model completeness diverged from ground truth");

    let par = parity(&mut lab);
    println!(
        "== verdict parity ==\n{}",
        render_table(
            &[
                "Benign reqs",
                "Attack reqs",
                "Verdict deltas",
                "Benign fast rate",
                "Attack fast hits"
            ],
            &[vec![
                par.benign_requests.to_string(),
                par.attack_requests.to_string(),
                par.verdict_deltas.to_string(),
                pct(par.benign_fast_rate()),
                par.attack_fast_hits.to_string(),
            ]],
        )
    );
    assert_eq!(par.verdict_deltas, 0, "models changed a blocking verdict");
    assert_eq!(par.attack_fast_hits, 0, "an attack query rode the fast path");
    assert!(
        par.benign_fast_rate() >= 0.5,
        "benign fast-path rate {} below 50%",
        pct(par.benign_fast_rate())
    );

    let cells = throughput(&lab, &args);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.threads.to_string(),
                format!("{:.1}", c.off_qps),
                format!("{:.1}", c.on_qps),
                format!("{:.2}x", if c.off_qps > 0.0 { c.on_qps / c.off_qps } else { 0.0 }),
                pct(c.fast_rate),
            ]
        })
        .collect();
    println!(
        "== gate throughput (fresh-content comment posts) ==\n{}",
        render_table(
            &["Threads", "Model-off q/s", "Model-on q/s", "Improvement", "Fast rate"],
            &rows
        )
    );

    let json_cells = cells
        .iter()
        .map(|c| {
            format!(
                "      {{\"threads\": {}, \"model_off_qps\": {:.1}, \"model_on_qps\": {:.1}, \
                 \"improvement\": {:.3}, \"fast_rate\": {:.4}}}",
                c.threads,
                c.off_qps,
                c.on_qps,
                if c.off_qps > 0.0 { c.on_qps / c.off_qps } else { 0.0 },
                c.fast_rate
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"querymodel\",\n  \"provenance\": {},\n  \
         \"coverage\": {{\"routes\": {}, \"complete_routes\": {}, \"sites\": {}, \
         \"modeled_sites\": {}, \"compiled_templates\": {}, \"rejected_templates\": {}, \
         \"ground_truth_mismatches\": {}}},\n  \
         \"parity\": {{\"benign_requests\": {}, \"attack_requests\": {}, \"verdict_deltas\": {}, \
         \"benign_queries\": {}, \"benign_fast_hits\": {}, \"benign_fast_rate\": {:.4}, \
         \"attack_fast_hits\": {}}},\n  \
         \"throughput\": {{\"workload\": \"fresh-content comment posts\", \"requests_per_pass\": {}, \
         \"passes\": {}, \"pipe_latency_us\": {}, \"cells\": [\n{}\n    ]}}\n}}\n",
        provenance_json(&MatchKernel::default().to_string()),
        cov.routes,
        cov.complete_routes,
        cov.sites,
        cov.modeled_sites,
        cov.compiled,
        cov.rejected,
        cov.ground_truth_mismatches,
        par.benign_requests,
        par.attack_requests,
        par.verdict_deltas,
        par.benign_queries,
        par.benign_fast_hits,
        par.benign_fast_rate(),
        par.attack_fast_hits,
        args.requests,
        args.repeat,
        args.pipe_latency.as_micros(),
        json_cells
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&args.out, &json).expect("write querymodel results");
    println!("wrote {}", args.out);
}
