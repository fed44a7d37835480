//! The beyond-paper defenses, both untimed: the static hardening pass
//! (routes rewritten to prepared statements, verified differentially)
//! and the persistence-aware gate against second-order injection.

use super::serving::{ratio, serve_timed, serving_config};
use super::{outln, Claim, Paper, Report, Test};
use crate::report::{pct, percentile, render_table};
use crate::workload::crawl_requests;
use joza_core::{Joza, JozaConfig};
use joza_lab::harden::{benign_corpus, differential, harden_lab};
use joza_lab::second_order::{
    build_second_order_lab, run_two_phase_gated, verify_benign_round_trip,
    verify_second_order_exploit, SecondOrderCase, SecondOrderClass, SecondOrderLab,
};
use joza_lab::verify::exploit_effect_observed;
use joza_lab::{build_lab, Lab};
use joza_sast::{
    analyze_store_flow, app_query_models, taint_free_routes, unparameterized_sink_lint,
    HardenReport, RouteClass,
};
use joza_webapp::request::HttpRequest;
use std::time::{Duration, Instant};

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

/// Static hardening: `joza_sast::harden_app` rewrites every
/// completely-modeled route into prepared-statement form and
/// `joza_lab::harden` verifies the rewrite differentially. Reports rewrite
/// coverage with per-route skip reasons, the differential (benign
/// bit-identity of responses and database state, ungated exploits
/// neutralized on rewritten routes), the unparameterized-sink worklist,
/// every exploit against the hardened application behind a gate whose
/// static fast path covers the rewritten routes, and checked-queries/sec
/// over the benign corpus for the dynamic baseline, the model fast path
/// and the gate on the hardened application.
pub(super) fn harden(_: &mut Paper) -> Report {
    const REQUESTS: usize = 96;
    const PASSES: usize = 2;
    const THREADS: [usize; 2] = [1, 4];
    let mut original = build_lab();
    let mut r = Report::default();
    outln!(
        r,
        "harden: {REQUESTS} requests x {PASSES} passes, threads {THREADS:?}, pipe latency {:?}",
        serving_config().pti.pipe_latency
    );

    let (mut hardened, report) = harden_lab(&original);
    let total = report.routes.len();
    let rewritten = report.rewritten_count();
    let sinks: usize = report.routes.iter().map(|r| r.sinks).sum();
    let sinks_rewritten: usize = report.routes.iter().map(|r| r.sinks_rewritten).sum();
    let placeholders: usize = report.routes.iter().map(|r| r.placeholders).sum();
    outln!(
        r,
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
    let skipped: Vec<Vec<String>> = report
        .routes
        .iter()
        .filter_map(|route| {
            let reason = route.skip?;
            Some(vec![route.route.clone(), reason.code().into(), reason.detail().into()])
        })
        .collect();
    if !skipped.is_empty() {
        outln!(r, "== skipped routes ==\n{}", render_table(&["Route", "Code", "Why"], &skipped));
    }

    let diff = differential(&mut original, &mut hardened, &report);
    let neutralized = diff.exploits_checked - diff.exploits_surviving.len();
    outln!(
        r,
        "== differential ==\n{}",
        render_table(
            &["Benign reqs", "Resp mismatches", "DB mismatches", "Exploits", "Neutralized"],
            &[vec![
                diff.benign_requests.to_string(),
                diff.response_mismatches.len().to_string(),
                diff.db_mismatches.len().to_string(),
                diff.exploits_checked.to_string(),
                neutralized.to_string(),
            ]],
        )
    );

    let lint: Vec<Vec<String>> = unparameterized_sink_lint(&original.server.app)
        .into_iter()
        .map(|s| {
            vec![
                s.route,
                s.stmt_id.to_string(),
                s.sink,
                s.sources.join(" "),
                s.dirty_cell.map_or("-".to_string(), |(t, c)| format!("{t}.{c}")),
            ]
        })
        .collect();
    outln!(
        r,
        "== unparameterized-sink worklist ==\n{}",
        if lint.is_empty() {
            "(empty)\n".to_string()
        } else {
            render_table(&["Route", "Stmt", "Sink", "Sources", "Dirty cell"], &lint)
        }
    );

    let gate = hardened_gate(&hardened, &report, JozaConfig::optimized());
    let targets: Vec<_> = hardened.plugins.iter().chain(&hardened.cms_cases).cloned().collect();
    let effective = targets
        .iter()
        .filter(|p| {
            hardened.reset_database();
            exploit_effect_observed(&mut hardened.server, p, &p.exploit, Some(&gate))
        })
        .count();
    outln!(
        r,
        "== gated attacks on hardened app ==\n{}",
        render_table(
            &["Attacks", "Still effective"],
            &[vec![targets.len().to_string(), effective.to_string()]],
        )
    );

    let requests: Vec<HttpRequest> =
        benign_corpus(&original).into_iter().cycle().take(REQUESTS).collect();
    let corpus = |_| requests.clone();
    let build_hardened = || harden_lab(&build_lab()).0;
    let mut rows = Vec::new();
    for t in THREADS {
        let dynamic = Joza::install(&original.server.app, serving_config());
        let dynamic = serve_timed(build_lab, &dynamic, t, PASSES, corpus);
        let model = Joza::installer(&original.server.app, serving_config())
            .query_models(app_query_models(&original.server.app))
            .build();
        let model = serve_timed(build_lab, &model, t, PASSES, corpus);
        let gate = hardened_gate(&hardened, &report, serving_config());
        let gate = serve_timed(build_hardened, &gate, t, PASSES, corpus);
        let static_rate = gate.stats.static_hits as f64 / gate.stats.queries.max(1) as f64;
        rows.push(vec![
            t.to_string(),
            format!("{:.1}", dynamic.queries_per_sec),
            format!("{:.1}", model.queries_per_sec),
            format!("{:.1}", gate.queries_per_sec),
            format!("{:.2}x", ratio(gate.queries_per_sec, dynamic.queries_per_sec)),
            pct(static_rate),
        ]);
    }
    outln!(
        r,
        "== gate throughput (benign corpus) ==\n{}",
        render_table(
            &["Threads", "Dynamic q/s", "Model q/s", "Hardened q/s", "vs dynamic", "Static rate"],
            &rows
        )
    );

    let benign = diff.benign_requests;
    r.claims = vec![
        Claim::new(
            "Routes rewritten to prepared statements (>= 50)",
            ">= 50/57",
            format!("{rewritten}/{total}"),
            Test::AtLeast,
            rewritten >= 50,
        ),
        Claim::exact(
            "Benign-corpus response mismatches after hardening",
            "0/61",
            format!("{}/{benign}", diff.response_mismatches.len()),
        ),
        Claim::exact(
            "Benign-corpus database-state mismatches after hardening",
            "0/61",
            format!("{}/{benign}", diff.db_mismatches.len()),
        ),
        Claim::exact(
            "Ungated exploits on rewritten routes neutralized",
            "52/52",
            format!("{neutralized}/{}", diff.exploits_checked),
        ),
        Claim::exact(
            "Exploits still effective against the gated hardened app",
            "0/53",
            format!("{effective}/{}", targets.len()),
        ),
    ];
    r
}

/// Detection outcome of one (case, variant) two-phase exploit.
struct Detection {
    class: SecondOrderClass,
    variant: &'static str,
    /// Exploit caught (trigger denied, nothing leaked) by each gate.
    baseline_caught: bool,
    defended_caught: bool,
    /// Benign round trip blocked by the defended gate (a false positive).
    benign_blocked: bool,
}

fn benign_two_phase_allowed(so: &mut SecondOrderLab, case: &SecondOrderCase, gate: &Joza) -> bool {
    so.reset_database();
    let plant = so.lab.server.handle_with(&case.benign_plant_request(), gate);
    let trigger = so.lab.server.handle_with(&case.trigger_request(), gate);
    !plant.denied() && !trigger.denied() && trigger.body.contains(&case.benign_echo)
}

/// Every case in its original and evasive variant through both gates,
/// after checking that the exploit works and the benign round trip is
/// served without a gate.
fn detections(so: &mut SecondOrderLab, baseline: &Joza, defended: &Joza) -> Vec<Detection> {
    let mut out = Vec::new();
    for case in so.cases.clone() {
        for (variant, c) in [("original", case.clone()), ("evasive", case.evasive_variant())] {
            so.reset_database();
            assert!(
                verify_second_order_exploit(&mut so.lab.server, &c),
                "{} {variant} exploit does not work ungated",
                case.class
            );
            so.reset_database();
            let b = run_two_phase_gated(&mut so.lab.server, &c, baseline);
            so.reset_database();
            let d = run_two_phase_gated(&mut so.lab.server, &c, defended);
            so.reset_database();
            assert!(
                verify_benign_round_trip(&mut so.lab.server, &c),
                "{} benign round trip broken ungated",
                case.class
            );
            let benign_ok = benign_two_phase_allowed(so, &c, defended);
            out.push(Detection {
                class: case.class,
                variant,
                baseline_caught: b.trigger_denied && !b.leaked,
                defended_caught: d.trigger_denied && !d.leaked,
                benign_blocked: !benign_ok,
            });
        }
    }
    out
}

/// Static fast-path rate over the benign crawl for one taint-free set.
fn fast_path_rate(so: &mut SecondOrderLab, gate: &Joza, requests: &[HttpRequest]) -> f64 {
    so.reset_database();
    let base = gate.stats();
    for req in requests {
        let resp = so.lab.server.handle_with(req, gate);
        assert!(!resp.blocked, "benign crawl request blocked: {req:?}");
    }
    let d = gate.stats().since(&base);
    d.static_hits as f64 / d.queries.max(1) as f64
}

/// Mean gate time per pass over the benign corpus for one gate.
fn gate_time(so: &mut SecondOrderLab, gate: &Joza, passes: usize) -> Duration {
    let corpus = benign_corpus(&so.lab);
    let mut total = Duration::ZERO;
    for _ in 0..passes {
        so.reset_database();
        for req in &corpus {
            let resp = so.lab.server.handle_with(req, gate);
            assert!(!resp.blocked, "benign corpus request blocked: {req:?}");
            total += resp.gate_time;
        }
    }
    total / passes as u32
}

/// Second-order injection over the extended lab: the two-phase (plant,
/// then trigger) exploit corpus, each case in its original and its
/// PTI-evading variant, through the first-order baseline gate (no
/// store/load knowledge) and the persistence-aware gate (the static stage
/// skips only fixpoint-clean routes; values read from dirty cells are
/// taint sources for NTI). Also reports the fast-path rate each gate's
/// taint-free set leaves benign crawl traffic, and the gate-time cost of
/// dirty-cell capture on the benign corpus.
pub(super) fn second_order(_: &mut Paper) -> Report {
    const CRAWL: usize = 120;
    const PASSES: usize = 3;
    const FIXPOINT_RUNS: usize = 11;
    let mut so = build_second_order_lab();
    let mut r = Report::default();
    outln!(
        r,
        "second_order: {} cases x 2 variants, {CRAWL} crawl requests, {PASSES} corpus passes",
        so.cases.len()
    );

    // One cold run is mostly host noise, so the fixpoint is timed over
    // several runs. Each analyzes a clone taken before any analysis, so
    // it pays its route parses as a deployment does.
    let pristine = so.lab.server.app.clone();
    let mut times: Vec<Duration> = (0..FIXPOINT_RUNS)
        .map(|_| {
            let app = pristine.clone();
            let t0 = Instant::now();
            std::hint::black_box(analyze_store_flow(&app));
            t0.elapsed()
        })
        .collect();
    times.sort();
    let [q1, median, q3] = [0.25, 0.5, 0.75].map(|p| percentile(&times, p));
    let report = analyze_store_flow(&so.lab.server.app);
    let persistence_fast = report.taint_free_routes();
    let first_order_fast: Vec<String> = report
        .routes
        .iter()
        .filter(|r| r.first_order_taint_free)
        .map(|r| r.route.clone())
        .collect();
    outln!(
        r,
        "\n== store/load fixpoint ==\n{}",
        render_table(
            &[
                "Routes",
                "Dirty cells",
                "Second-order",
                "Fast (1st-order)",
                "Fast (persistent)",
                "Rounds",
                "Time"
            ],
            &[vec![
                report.routes.len().to_string(),
                report.dirty.len().to_string(),
                report.second_order_routes().len().to_string(),
                first_order_fast.len().to_string(),
                persistence_fast.len().to_string(),
                report.iterations.to_string(),
                format!("{median:.2?} (q1 {q1:.2?}, q3 {q3:.2?}; {FIXPOINT_RUNS} runs)"),
            ]],
        )
    );
    let reachable = so
        .cases
        .iter()
        .filter(|case| {
            report.get(&case.trigger_route).map(|r| r.class)
                == Some(RouteClass::SecondOrderReachable)
        })
        .count();

    let baseline = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
        .taint_free_routes(first_order_fast.iter().cloned())
        .build();
    let defended = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
        .taint_free_routes(persistence_fast.iter().cloned())
        .dirty_cells(report.dirty_cells())
        .build();

    let dets = detections(&mut so, &baseline, &defended);
    let caught = |c: bool| if c { "caught" } else { "MISSED" }.to_string();
    let rows: Vec<Vec<String>> = dets
        .iter()
        .map(|d| {
            vec![
                d.class.to_string(),
                d.variant.to_string(),
                caught(d.baseline_caught),
                caught(d.defended_caught),
                if d.benign_blocked { "BLOCKED" } else { "clean" }.to_string(),
            ]
        })
        .collect();
    outln!(
        r,
        "== detection (two-phase exploits) ==\n{}",
        render_table(&["Class", "Variant", "Baseline", "Defended", "Benign"], &rows)
    );
    let n = dets.len();
    let baseline_tp = dets.iter().filter(|d| d.baseline_caught).count();
    let defended_tp = dets.iter().filter(|d| d.defended_caught).count();
    let fps = dets.iter().filter(|d| d.benign_blocked).count();
    outln!(r, "baseline {baseline_tp}/{n} | defended {defended_tp}/{n} | benign FPs {fps}");
    let evasive: Vec<&Detection> = dets.iter().filter(|d| d.variant == "evasive").collect();
    let evasive_missed = evasive.iter().filter(|d| !d.baseline_caught).count();

    let crawl = crawl_requests(CRAWL);
    let rate_first = fast_path_rate(&mut so, &baseline, &crawl);
    let rate_persistent = fast_path_rate(&mut so, &defended, &crawl);
    outln!(
        r,
        "== fast-path rate (benign crawl, {} requests) ==\n{}",
        crawl.len(),
        render_table(
            &["Taint-free set", "Routes", "Static rate"],
            &[
                vec!["first-order".into(), first_order_fast.len().to_string(), pct(rate_first)],
                vec![
                    "persistence-aware".into(),
                    persistence_fast.len().to_string(),
                    pct(rate_persistent)
                ],
            ],
        )
    );

    let no_capture = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
        .taint_free_routes(persistence_fast.iter().cloned())
        .build();
    let t_plain = gate_time(&mut so, &no_capture, PASSES);
    let t_capture = gate_time(&mut so, &defended, PASSES);
    let overhead = ratio(t_capture.as_secs_f64(), t_plain.as_secs_f64());
    outln!(
        r,
        "== dirty-cell capture overhead (benign corpus) ==\n{}",
        render_table(
            &["Gate", "Gate time/pass", "vs no capture"],
            &[
                vec!["no capture".into(), format!("{t_plain:?}"), "1.00x".into()],
                vec![
                    "dirty-cell capture".into(),
                    format!("{t_capture:?}"),
                    format!("{overhead:.2}x")
                ],
            ],
        )
    );

    r.claims = vec![
        Claim::exact(
            "Trigger routes classified second-order-reachable",
            "4/4",
            format!("{reachable}/{}", so.cases.len()),
        ),
        Claim::exact(
            "Two-phase exploits the defended gate catches",
            "8/8",
            format!("{defended_tp}/{n}"),
        ),
        Claim::exact("Benign round trips the defended gate blocks", "0/8", format!("{fps}/{n}")),
        Claim::new(
            "Evasive variants the first-order baseline misses (>= 1)",
            ">= 1",
            format!("{evasive_missed}/{}", evasive.len()),
            Test::AtLeast,
            evasive_missed >= 1,
        ),
    ];
    r
}
