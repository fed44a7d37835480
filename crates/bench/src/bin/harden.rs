//! Static hardening evaluation: rewrite coverage, differential
//! verification, gated attack outcomes, and end-to-end gate throughput
//! over the hardened application.
//!
//! `joza_sast::harden_app` rewrites every completely-modeled route into
//! prepared-statement form; `joza_lab::harden` verifies the rewrite
//! differentially. This benchmark runs the whole pipeline over the full
//! WP-SQLI-LAB and reports:
//!
//! * **coverage** — routes rewritten vs skipped, per-route skip reasons,
//!   sink and placeholder counts (the paper's repair-coverage story);
//! * **differential** — benign corpus bit-identity (responses and full
//!   database state) and ungated exploit neutralization on every
//!   rewritten route;
//! * **lint** — the unparameterized-sink worklist: tainted sinks whose
//!   route the rewriter had to skip;
//! * **gated attacks** — the hardened application behind a Joza gate
//!   whose static fast path covers the rewritten routes: every exploit
//!   must stay ineffective (neutralized by the rewrite or blocked by the
//!   dynamic pipeline on the one unrewritten route);
//! * **throughput** — checked-queries/sec over the benign corpus for the
//!   dynamic baseline, the model fast path, and the gate-on-hardened
//!   configuration (rewritten routes ride the static fast path).
//!
//! Usage:
//!
//! ```text
//! harden [--requests N] [--repeat R] [--threads 1,4]
//!        [--out results/BENCH_harden.json]
//! ```

use joza_bench::report::{
    json_escape, pct, provenance_json, render_table, serving_config, write_json,
};
use joza_core::{Joza, JozaConfig};
use joza_lab::harden::{benign_corpus, differential, harden_lab, Differential};
use joza_lab::serve::serve_parallel;
use joza_lab::verify::exploit_effect_observed;
use joza_lab::{build_lab, Lab};
use joza_sast::{app_query_models, taint_free_routes, unparameterized_sink_lint, HardenReport};
use joza_webapp::request::HttpRequest;
use std::time::Duration;

#[derive(Debug)]
struct Args {
    requests: usize,
    repeat: usize,
    threads: Vec<usize>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 96,
        repeat: 2,
        threads: vec![1, 4],
        out: "results/BENCH_harden.json".to_string(),
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
            "--out" => args.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Builds the gate for the hardened application: the static fast path
/// covers every rewritten route (its statement text is a source literal
/// and its bound parameters are data by contract) plus everything the
/// taint analysis already proved clean; the one unrewritten route stays
/// on the full dynamic pipeline.
fn hardened_gate(hardened: &Lab, report: &HardenReport, cfg: JozaConfig) -> Joza {
    let proven = taint_free_routes(&hardened.server.app);
    Joza::installer(&hardened.server.app, cfg)
        .taint_free_routes(report.rewritten_routes())
        .taint_free_routes(proven)
        .build()
}

/// Gated attack outcomes over the hardened application.
#[derive(Debug, Default)]
struct GatedAttacks {
    attacks: usize,
    effective: Vec<String>,
}

fn gated_attacks(hardened: &mut Lab, report: &HardenReport) -> GatedAttacks {
    let gate = hardened_gate(hardened, report, JozaConfig::optimized());
    let mut out = GatedAttacks::default();
    let plugins: Vec<_> =
        hardened.plugins.iter().chain(hardened.cms_cases.iter()).cloned().collect();
    for p in &plugins {
        hardened.reset_database();
        out.attacks += 1;
        if exploit_effect_observed(&mut hardened.server, p, &p.exploit, Some(&gate)) {
            out.effective.push(p.slug.clone());
        }
    }
    out
}

/// One throughput cell over the benign corpus.
#[derive(Debug)]
struct Cell {
    threads: usize,
    dynamic_qps: f64,
    model_qps: f64,
    hardened_qps: f64,
    hardened_static_rate: f64,
}

/// The benign corpus repeated to `n` requests, rotated so every worker
/// partition mixes routes.
fn corpus_workload(lab: &Lab, n: usize) -> Vec<HttpRequest> {
    let base = benign_corpus(lab);
    (0..n).map(|i| base[i % base.len()].clone()).collect()
}

fn throughput(original: &Lab, report: &HardenReport, args: &Args) -> Vec<Cell> {
    let requests = corpus_workload(original, args.requests);
    let build_hardened = || {
        let lab = build_lab();
        harden_lab(&lab).0
    };
    let measure = |factory: &Joza, threads: usize, hardened: bool| -> (f64, f64) {
        let build: &(dyn Fn() -> Lab + Sync) = if hardened { &build_hardened } else { &build_lab };
        let _ = serve_parallel(build, factory, threads, &requests);
        let base = factory.stats();
        let mut wall = Duration::ZERO;
        let mut queries = 0usize;
        for _ in 0..args.repeat.max(1) {
            let run = serve_parallel(build, factory, threads, &requests);
            wall += run.wall;
            for resp in &run.responses {
                assert!(!resp.blocked, "benign corpus request was blocked");
                queries += resp.queries.len();
            }
        }
        let delta = factory.stats().since(&base);
        let static_rate = delta.static_hits as f64 / delta.queries.max(1) as f64;
        let secs = wall.as_secs_f64();
        (if secs > 0.0 { queries as f64 / secs } else { 0.0 }, static_rate)
    };

    let hardened = build_hardened();
    let mut cells = Vec::new();
    for &t in &args.threads {
        let dynamic = Joza::install(&original.server.app, serving_config());
        let (dynamic_qps, _) = measure(&dynamic, t, false);
        let model = Joza::installer(&original.server.app, serving_config())
            .query_models(app_query_models(&original.server.app))
            .build();
        let (model_qps, _) = measure(&model, t, false);
        let gate = hardened_gate(&hardened, report, serving_config());
        let (hardened_qps, hardened_static_rate) = measure(&gate, t, true);
        cells.push(Cell { threads: t, dynamic_qps, model_qps, hardened_qps, hardened_static_rate });
    }
    cells
}

fn main() {
    let args = parse_args();
    let mut original = build_lab();
    println!(
        "harden: {} requests x {} passes, threads {:?}, pipe latency {:?}",
        args.requests,
        args.repeat,
        args.threads,
        serving_config().pti.pipe_latency
    );

    // -- coverage --------------------------------------------------------
    let (mut hardened, report) = harden_lab(&original);
    let total = report.routes.len();
    let rewritten = report.rewritten_count();
    let sinks: usize = report.routes.iter().map(|r| r.sinks).sum();
    let sinks_rewritten: usize = report.routes.iter().map(|r| r.sinks_rewritten).sum();
    let placeholders: usize = report.routes.iter().map(|r| r.placeholders).sum();
    println!(
        "\n== rewrite coverage ==\n{}",
        render_table(
            &["Routes", "Rewritten", "Skipped", "Sinks", "Sinks rewritten", "Placeholders"],
            &[vec![
                total.to_string(),
                rewritten.to_string(),
                (total - rewritten).to_string(),
                sinks.to_string(),
                sinks_rewritten.to_string(),
                placeholders.to_string(),
            ]],
        )
    );
    let skipped: Vec<_> = report.routes.iter().filter(|r| !r.rewritten()).collect();
    if !skipped.is_empty() {
        let rows: Vec<Vec<String>> = skipped
            .iter()
            .map(|r| {
                let reason = r.skip.expect("skipped route has a reason");
                vec![r.route.clone(), reason.code().to_string(), reason.detail().to_string()]
            })
            .collect();
        println!("== skipped routes ==\n{}", render_table(&["Route", "Code", "Why"], &rows));
    }
    assert!(rewritten >= 50, "rewrite coverage {rewritten}/{total} below the 50-route floor");

    // -- differential ----------------------------------------------------
    let diff: Differential = differential(&mut original, &mut hardened, &report);
    println!(
        "== differential ==\n{}",
        render_table(
            &["Benign reqs", "Resp mismatches", "DB mismatches", "Exploits", "Neutralized"],
            &[vec![
                diff.benign_requests.to_string(),
                diff.response_mismatches.len().to_string(),
                diff.db_mismatches.len().to_string(),
                diff.exploits_checked.to_string(),
                (diff.exploits_checked - diff.exploits_surviving.len()).to_string(),
            ]],
        )
    );
    assert!(
        diff.passed(),
        "differential failed\nresponses: {:?}\ndb: {:?}\nexploits: {:?}",
        diff.response_mismatches,
        diff.db_mismatches,
        diff.exploits_surviving
    );

    // -- unparameterized-sink lint --------------------------------------
    let lint = unparameterized_sink_lint(&original.server.app);
    let lint_rows: Vec<Vec<String>> = lint
        .iter()
        .map(|s| {
            vec![
                s.route.clone(),
                s.stmt_id.to_string(),
                s.sink.clone(),
                s.sources.join(" "),
                s.dirty_cell.as_ref().map_or("-".to_string(), |(t, c)| format!("{t}.{c}")),
            ]
        })
        .collect();
    println!(
        "== unparameterized-sink worklist ==\n{}",
        if lint_rows.is_empty() {
            "(empty)\n".to_string()
        } else {
            render_table(&["Route", "Stmt", "Sink", "Sources", "Dirty cell"], &lint_rows)
        }
    );

    // -- gated attacks ---------------------------------------------------
    let gated = gated_attacks(&mut hardened, &report);
    println!(
        "== gated attacks on hardened app ==\n{}",
        render_table(
            &["Attacks", "Still effective"],
            &[vec![gated.attacks.to_string(), gated.effective.len().to_string()]],
        )
    );
    assert!(
        gated.effective.is_empty(),
        "exploits still effective behind the gate: {:?}",
        gated.effective
    );

    // -- throughput ------------------------------------------------------
    let cells = throughput(&original, &report, &args);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.threads.to_string(),
                format!("{:.1}", c.dynamic_qps),
                format!("{:.1}", c.model_qps),
                format!("{:.1}", c.hardened_qps),
                format!(
                    "{:.2}x",
                    if c.dynamic_qps > 0.0 { c.hardened_qps / c.dynamic_qps } else { 0.0 }
                ),
                pct(c.hardened_static_rate),
            ]
        })
        .collect();
    println!(
        "== gate throughput (benign corpus) ==\n{}",
        render_table(
            &["Threads", "Dynamic q/s", "Model q/s", "Hardened q/s", "vs dynamic", "Static rate"],
            &rows
        )
    );

    // -- JSON ------------------------------------------------------------
    let route_rows = report
        .routes
        .iter()
        .map(|r| {
            let skip = match r.skip {
                Some(reason) => format!(
                    ", \"skip\": {{\"code\": \"{}\", \"detail\": \"{}\"}}",
                    reason.code(),
                    json_escape(reason.detail())
                ),
                None => String::new(),
            };
            format!(
                "      {{\"route\": \"{}\", \"rewritten\": {}, \"sinks\": {}, \
                 \"placeholders\": {}{}}}",
                json_escape(&r.route),
                r.rewritten(),
                r.sinks,
                r.placeholders,
                skip
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let lint_json = lint
        .iter()
        .map(|s| {
            let cell = s
                .dirty_cell
                .as_ref()
                .map_or("null".to_string(), |(t, c)| format!("\"{}.{}\"", json_escape(t), json_escape(c)));
            format!(
                "      {{\"route\": \"{}\", \"stmt_id\": {}, \"sink\": \"{}\", \"dirty_cell\": {}}}",
                json_escape(&s.route),
                s.stmt_id,
                json_escape(&s.sink),
                cell
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json_cells = cells
        .iter()
        .map(|c| {
            format!(
                "      {{\"threads\": {}, \"dynamic_qps\": {:.1}, \"model_qps\": {:.1}, \
                 \"hardened_qps\": {:.1}, \"hardened_static_rate\": {:.4}}}",
                c.threads, c.dynamic_qps, c.model_qps, c.hardened_qps, c.hardened_static_rate
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"harden\",\n  \"provenance\": {},\n  \
         \"coverage\": {{\"routes\": {}, \"rewritten\": {}, \"skipped\": {}, \"sinks\": {}, \
         \"sinks_rewritten\": {}, \"placeholders\": {}, \"by_route\": [\n{}\n    ]}},\n  \
         \"differential\": {{\"benign_requests\": {}, \"response_mismatches\": {}, \
         \"db_mismatches\": {}, \"exploits_checked\": {}, \"exploits_neutralized\": {}}},\n  \
         \"lint\": {{\"unparameterized_sinks\": [\n{}\n    ]}},\n  \
         \"gated\": {{\"attacks\": {}, \"still_effective\": {}}},\n  \
         \"throughput\": {{\"workload\": \"benign corpus\", \"requests_per_pass\": {}, \
         \"passes\": {}, \"pipe_latency_us\": {}, \"cells\": [\n{}\n    ]}}\n}}\n",
        provenance_json(),
        total,
        rewritten,
        total - rewritten,
        sinks,
        sinks_rewritten,
        placeholders,
        route_rows,
        diff.benign_requests,
        diff.response_mismatches.len(),
        diff.db_mismatches.len(),
        diff.exploits_checked,
        diff.exploits_checked - diff.exploits_surviving.len(),
        if lint_json.is_empty() { "".to_string() } else { lint_json },
        gated.attacks,
        gated.effective.len(),
        args.requests,
        args.repeat,
        serving_config().pti.pipe_latency.as_micros(),
        json_cells
    );
    write_json(&args.out, &json);
}
