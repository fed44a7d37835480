//! Second-order SQL-injection evaluation over the extended WP-SQLI-LAB.
//!
//! Drives the two-phase (plant → trigger) exploit corpus — each case in
//! its original and its PTI-evading variant — through three gates:
//!
//! * **baseline** — first-order Joza (no store/load knowledge): the
//!   pre-persistence engine, expected to miss the evasive variants;
//! * **defended** — the persistence-aware gate: the static stage skips
//!   only fixpoint-clean routes and the dynamic stage treats values read
//!   from dirty cells as taint sources (`db:` capture into NTI);
//! * **ungated** — no gate, to confirm every labeled exploit works.
//!
//! Reported per class: detection TP/FN (exploit caught/missed) and FP
//! (benign round trip blocked), the fast-path-rate delta between the
//! first-order and persistence-aware taint-free sets on benign crawl
//! traffic, and the throughput cost of dirty-cell capture on the benign
//! corpus. Hard floors asserted: the defended gate catches every labeled
//! exploit (original and evasive) with zero benign regressions.
//!
//! Usage:
//!
//! ```text
//! second_order [--requests N] [--repeat R]
//!              [--out results/BENCH_secondorder.json]
//! ```

use joza_bench::report::{json_escape, pct, provenance_json, render_table, write_json};
use joza_bench::workload::crawl_requests;
use joza_core::{Joza, JozaConfig};
use joza_lab::harden::benign_corpus;
use joza_lab::second_order::{
    build_second_order_lab, run_two_phase_gated, verify_benign_round_trip,
    verify_second_order_exploit, SecondOrderCase, SecondOrderLab,
};
use joza_sast::{analyze_store_flow, RouteClass, StoreFlowReport};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Args {
    requests: usize,
    repeat: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args =
        Args { requests: 120, repeat: 3, out: "results/BENCH_secondorder.json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--requests" => args.requests = value().parse().expect("--requests"),
            "--repeat" => args.repeat = value().parse().expect("--repeat"),
            "--out" => args.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Detection outcome of one (case, variant, gate) run.
#[derive(Debug, Clone)]
struct Detection {
    class: String,
    variant: &'static str,
    /// Exploit caught: trigger denied, nothing leaked.
    baseline_caught: bool,
    defended_caught: bool,
    /// Benign round trip blocked by the defended gate (a false positive).
    benign_blocked: bool,
}

fn benign_two_phase_allowed(so: &mut SecondOrderLab, case: &SecondOrderCase, gate: &Joza) -> bool {
    so.reset_database();
    let plant = so.lab.server.handle_with(&case.benign_plant_request(), gate);
    let trigger = so.lab.server.handle_with(&case.trigger_request(), gate);
    !plant.blocked
        && plant.executed == plant.queries.len()
        && !trigger.blocked
        && trigger.executed == trigger.queries.len()
        && trigger.body.contains(&case.benign_echo)
}

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
                class: case.class.to_string(),
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
fn fast_path_rate(
    so: &mut SecondOrderLab,
    gate: &Joza,
    requests: &[joza_webapp::request::HttpRequest],
) -> f64 {
    so.reset_database();
    let base = gate.stats();
    for req in requests {
        let resp = so.lab.server.handle_with(req, gate);
        assert!(!resp.blocked, "benign crawl request blocked: {req:?}");
    }
    let d = gate.stats().since(&base);
    d.static_hits as f64 / d.queries.max(1) as f64
}

/// Mean gate time over the benign corpus for one gate (capture-overhead
/// probe: same pipeline, with vs without dirty cells installed).
fn gate_time(so: &mut SecondOrderLab, gate: &Joza, repeat: usize) -> Duration {
    let corpus = benign_corpus(&so.lab);
    let mut total = Duration::ZERO;
    for _ in 0..repeat.max(1) {
        so.reset_database();
        for req in &corpus {
            let resp = so.lab.server.handle_with(req, gate);
            assert!(!resp.blocked, "benign corpus request blocked: {req:?}");
            total += resp.gate_time;
        }
    }
    total / repeat.max(1) as u32
}

fn main() {
    let args = parse_args();
    let mut so = build_second_order_lab();
    println!(
        "second_order: {} cases x 2 variants, {} crawl requests, {} corpus passes",
        so.cases.len(),
        args.requests,
        args.repeat
    );

    // -- static classification ------------------------------------------
    let t0 = Instant::now();
    let report: StoreFlowReport = analyze_store_flow(&so.lab.server.app);
    let analysis_time = t0.elapsed();
    let second_order_routes = report.second_order_routes();
    let persistence_fast = report.taint_free_routes();
    let first_order_fast: Vec<String> = report
        .routes
        .iter()
        .filter(|r| r.first_order_taint_free)
        .map(|r| r.route.clone())
        .collect();
    println!(
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
                second_order_routes.len().to_string(),
                first_order_fast.len().to_string(),
                persistence_fast.len().to_string(),
                report.iterations.to_string(),
                format!("{analysis_time:?}"),
            ]],
        )
    );
    for case in &so.cases {
        let class = report.get(&case.trigger_route).map_or(RouteClass::Clean, |r| r.class);
        assert_eq!(
            class,
            RouteClass::SecondOrderReachable,
            "{} not classified second-order-reachable",
            case.trigger_route
        );
    }

    // -- gates -----------------------------------------------------------
    let baseline = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
        .taint_free_routes(first_order_fast.iter().cloned())
        .build();
    let defended = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
        .taint_free_routes(persistence_fast.iter().cloned())
        .dirty_cells(report.dirty_cells())
        .build();

    // -- detection -------------------------------------------------------
    let dets = detections(&mut so, &baseline, &defended);
    let rows: Vec<Vec<String>> = dets
        .iter()
        .map(|d| {
            vec![
                d.class.clone(),
                d.variant.to_string(),
                if d.baseline_caught { "caught" } else { "MISSED" }.to_string(),
                if d.defended_caught { "caught" } else { "MISSED" }.to_string(),
                if d.benign_blocked { "BLOCKED" } else { "clean" }.to_string(),
            ]
        })
        .collect();
    println!(
        "== detection (two-phase exploits) ==\n{}",
        render_table(&["Class", "Variant", "Baseline", "Defended", "Benign"], &rows)
    );
    let baseline_tp = dets.iter().filter(|d| d.baseline_caught).count();
    let defended_tp = dets.iter().filter(|d| d.defended_caught).count();
    let fps = dets.iter().filter(|d| d.benign_blocked).count();
    println!(
        "baseline {}/{} | defended {}/{} | benign FPs {}",
        baseline_tp,
        dets.len(),
        defended_tp,
        dets.len(),
        fps
    );
    assert_eq!(defended_tp, dets.len(), "defended gate missed a labeled second-order exploit");
    assert_eq!(fps, 0, "defended gate blocked a benign round trip");
    let evasive_missed =
        dets.iter().filter(|d| d.variant == "evasive" && !d.baseline_caught).count();
    assert!(
        evasive_missed > 0,
        "every evasive variant caught by the first-order baseline — corpus lost its gap"
    );

    // -- fast-path-rate delta -------------------------------------------
    let crawl = crawl_requests(args.requests);
    let rate_first = fast_path_rate(&mut so, &baseline, &crawl);
    let rate_persistent = fast_path_rate(&mut so, &defended, &crawl);
    println!(
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

    // -- throughput cost of capture -------------------------------------
    let no_capture = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
        .taint_free_routes(persistence_fast.iter().cloned())
        .build();
    let t_plain = gate_time(&mut so, &no_capture, args.repeat);
    let t_capture = gate_time(&mut so, &defended, args.repeat);
    let overhead =
        if t_plain.as_nanos() > 0 { t_capture.as_secs_f64() / t_plain.as_secs_f64() } else { 0.0 };
    println!(
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

    // -- JSON ------------------------------------------------------------
    let det_json = dets
        .iter()
        .map(|d| {
            format!(
                "      {{\"class\": \"{}\", \"variant\": \"{}\", \"baseline_caught\": {}, \
                 \"defended_caught\": {}, \"benign_blocked\": {}}}",
                json_escape(&d.class),
                d.variant,
                d.baseline_caught,
                d.defended_caught,
                d.benign_blocked
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let cells_json = report
        .dirty
        .iter()
        .map(|(t, c)| format!("\"{}.{}\"", json_escape(t), json_escape(c)))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"benchmark\": \"second_order\",\n  \"provenance\": {},\n  \
         \"static\": {{\"routes\": {}, \"dirty_cells\": [{}], \"second_order_routes\": {}, \
         \"first_order_fast_routes\": {}, \"persistence_fast_routes\": {}, \
         \"fixpoint_rounds\": {}, \"top_poisoned\": {}, \"analysis_ms\": {:.3}}},\n  \
         \"detection\": {{\"exploits\": {}, \"baseline_caught\": {}, \"defended_caught\": {}, \
         \"defended_missed\": {}, \"benign_false_positives\": {}, \"per_case\": [\n{}\n    ]}},\n  \
         \"fast_path\": {{\"crawl_requests\": {}, \"first_order_rate\": {:.4}, \
         \"persistence_rate\": {:.4}, \"rate_delta\": {:.4}}},\n  \
         \"throughput\": {{\"corpus_requests\": {}, \"passes\": {}, \
         \"gate_time_no_capture_us\": {:.1}, \"gate_time_capture_us\": {:.1}, \
         \"capture_overhead\": {:.4}}}\n}}\n",
        provenance_json(),
        report.routes.len(),
        cells_json,
        second_order_routes.len(),
        first_order_fast.len(),
        persistence_fast.len(),
        report.iterations,
        report.top_poisoned,
        analysis_time.as_secs_f64() * 1e3,
        dets.len(),
        baseline_tp,
        defended_tp,
        dets.len() - defended_tp,
        fps,
        det_json,
        crawl.len(),
        rate_first,
        rate_persistent,
        rate_first - rate_persistent,
        benign_corpus(&so.lab).len(),
        args.repeat,
        t_plain.as_secs_f64() * 1e6,
        t_capture.as_secs_f64() * 1e6,
        overhead,
    );
    write_json(&args.out, &json);
}
