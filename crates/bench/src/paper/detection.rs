//! The deterministic sections: the §V security tables (I-IV), the
//! threshold and critical-token-policy ablations, and the static taint
//! report.

use super::{outln, Claim, Paper, Report, Test};
use crate::report::{pct, render_table, yn};
use crate::security::{detected, sqlmap_sweep, PluginOutcome};
use crate::workload::{crawl_requests, Setup};
use joza_core::{Joza, JozaConfig};
use joza_db::{Database, Value};
use joza_lab::corpus::{corpus, AttackType};
use joza_lab::nti_evasion::mutate_for_nti;
use joza_lab::{build_lab, ground_truth};
use joza_nti::{NtiAnalyzer, NtiConfig};
use joza_phpsim::fragments::FragmentSet;
use joza_sast::{
    analyze_app, render_summary, taint_free_routes, unparameterized_sink_lint, TaintSummary,
};
use joza_sqlparse::critical::CriticalPolicy;
use joza_webapp::app::{Plugin, WebApp};
use joza_webapp::request::HttpRequest;
use joza_webapp::server::Server;
use std::collections::BTreeMap;
use std::time::Duration;

/// Table I: classification of WP-SQLI-LAB attack types.
pub(super) fn table1(_: &mut Paper) -> Report {
    let plugins = corpus();
    let count = |t: AttackType| plugins.iter().filter(|p| p.attack_type == t).count();
    let types = [
        ("Union Based", AttackType::UnionBased, 15),
        ("Standard Blind", AttackType::StandardBlind, 17),
        ("Double Blind", AttackType::DoubleBlind, 14),
        ("Tautology", AttackType::Tautology, 4),
    ];
    let mut r = Report::default();
    let rows: Vec<Vec<String>> =
        types.iter().map(|&(label, t, _)| vec![label.to_string(), count(t).to_string()]).collect();
    outln!(r, "TABLE I: Classification of WP-SQLI-LAB attack types\n");
    outln!(r, "{}", render_table(&["Attack Type", "NO. of Plugins"], &rows));
    for (label, t, paper) in types {
        r.claims.push(Claim::exact(&format!("{label} plugins"), paper, count(t)));
    }
    r
}

/// Table II: baseline effectiveness of NTI and PTI.
///
/// Row 1: original exploits across the 50-plugin testbed. Row 2:
/// SQLMap-generated valid payload variants on one plugin per attack type
/// (~40 each in the paper; 160 total).
pub(super) fn table2(paper: &mut Paper) -> Report {
    let eval = paper.security();
    let n = eval.plugins.len();
    let nti = eval.plugins.iter().filter(|p| p.nti_original).count();
    let pti = eval.plugins.iter().filter(|p| p.pti_original).count();
    let missed: Vec<&str> =
        eval.plugins.iter().filter(|p| !p.nti_original).map(|p| p.plugin.name.as_str()).collect();

    let sweep = sqlmap_sweep(40);
    let gen: usize = sweep.iter().map(|s| s.generated).sum();
    let nti_g: usize = sweep.iter().map(|s| s.nti_detected).sum();
    let pti_g: usize = sweep.iter().map(|s| s.pti_detected).sum();

    let mut r = Report::default();
    outln!(r, "TABLE II: Baseline effectiveness of NTI and PTI\n");
    let rows = vec![
        vec!["Testbed".to_string(), format!("{nti}/{n}"), format!("{pti}/{n}")],
        vec!["Generated by SQLMap".to_string(), format!("{nti_g}/{gen}"), format!("{pti_g}/{gen}")],
    ];
    outln!(r, "{}", render_table(&["Exploits", "NTI", "PTI"], &rows));

    outln!(r, "SQLMap sweep detail:");
    let detail: Vec<Vec<String>> = sweep
        .iter()
        .map(|s| {
            vec![
                s.plugin.clone(),
                s.attack_type.to_string(),
                s.generated.to_string(),
                s.nti_detected.to_string(),
                s.pti_detected.to_string(),
            ]
        })
        .collect();
    outln!(
        r,
        "{}",
        render_table(&["Plugin", "Attack Type", "Valid payloads", "NTI", "PTI"], &detail)
    );
    outln!(r, "NTI missed original exploit(s): {missed:?}");
    r.claims = vec![
        Claim::exact("NTI detects original testbed exploits", "49/50", format!("{nti}/{n}")),
        Claim::exact("PTI detects original testbed exploits", "50/50", format!("{pti}/{n}")),
        Claim::exact("NTI detects SQLMap payloads", "160/160", format!("{nti_g}/{gen}")),
        Claim::exact("PTI detects SQLMap payloads", "160/160", format!("{pti_g}/{gen}")),
        Claim::exact(
            "NTI's only testbed miss (base64-decoding plugin)",
            "[\"AdRotate\"]",
            format!("{missed:?}"),
        ),
    ];
    r
}

/// Table III: sample fragments extracted from WordPress (and plugins).
pub(super) fn table3(_: &mut Paper) -> Report {
    let lab = build_lab();
    let set = FragmentSet::from_sources(&lab.server.app.all_sources());
    let mut r = Report::default();
    outln!(r, "TABLE III: Sample fragments in WordPress\n");
    outln!(r, "Fragment vocabulary size: {}\n", set.len());

    // The paper's sampled fragments — report whether each is available to
    // an attacker (present verbatim or inside a larger fragment).
    let samples = [
        "UNION", "AND", "OR", "SELECT", "CHAR", "#", "\"", "'", "`", "GROUP BY", "ORDER BY",
        "CAST", "WHERE 1",
    ];
    outln!(r, "| {:<10} | {:<9} |", "Fragment", "Available");
    outln!(r, "|{}|{}|", "-".repeat(12), "-".repeat(11));
    let mut available = 0;
    for s in samples {
        let found = set.iter().any(|f| f.contains(s));
        available += usize::from(found);
        outln!(r, "| {:<10} | {:<9} |", s, if found { "yes" } else { "no" });
    }

    outln!(r, "\nShortest 20 fragments (the PTI attack surface):");
    let mut frags: Vec<&str> = set.iter().collect();
    frags.sort_by_key(|f| f.len());
    for f in frags.iter().take(20) {
        outln!(r, "  {f:?}");
    }
    r.claims.push(Claim::exact(
        "Sampled fragments available to an attacker",
        "13/13",
        format!("{available}/{}", samples.len()),
    ));
    r
}

/// Table IV: the full per-plugin security grid — NTI/PTI against original
/// and mutated exploits, and Joza against everything.
pub(super) fn table4(paper: &mut Paper) -> Report {
    let eval = paper.security();
    let mut r = Report::default();
    outln!(r, "TABLE IV: Joza security effectiveness (original + mutated exploits)\n");
    let headers = [
        "Plugin / Application",
        "Version",
        "CVE/OSVDB",
        "SQL Vulnerability",
        "NTI Orig",
        "NTI Mut",
        "PTI Orig",
        "PTI Mut",
        "Joza",
    ];
    let rows: Vec<Vec<String>> = eval
        .plugins
        .iter()
        .chain(eval.cms.iter())
        .map(|o| {
            vec![
                o.plugin.name.clone(),
                o.plugin.version.clone(),
                o.plugin.cve.clone(),
                o.plugin.attack_type.to_string(),
                yn(o.nti_original),
                yn(o.nti_mutated),
                yn(o.pti_original),
                yn(o.pti_mutated),
                yn(o.joza_all),
            ]
        })
        .collect();
    outln!(r, "{}", render_table(&headers, &rows));

    // The summary is the claim rows: the testbed against the paper's
    // 50-plugin figures, the three CMS cases apart.
    let testbed: Vec<&PluginOutcome> = eval.plugins.iter().collect();
    let cms: Vec<&PluginOutcome> = eval.cms.iter().collect();
    let all: Vec<&PluginOutcome> = testbed.iter().chain(&cms).copied().collect();
    let frac = |set: &[&PluginOutcome], pred: fn(&PluginOutcome) -> bool| {
        let k = set.iter().filter(|o| pred(o)).count();
        (k, format!("{k}/{}", set.len()))
    };
    let claim =
        |claim, paper, set: &[&PluginOutcome], pred| Claim::exact(claim, paper, frac(set, pred).1);
    let (evaded, ours) = frac(&all, |o| !o.nti_mutated);
    r.claims = vec![
        claim("Exploits work against the unprotected app", "53/53", &all, |o| o.exploit_works),
        claim("Joza stops original and both mutated exploits", "53/53", &all, |o| o.joza_all),
        claim("NTI detects original testbed exploits", "49/50", &testbed, |o| o.nti_original)
            .informational(),
        claim("PTI detects original testbed exploits", "50/50", &testbed, |o| o.pti_original)
            .informational(),
        claim("NTI detects original CMS exploits", "2/3", &cms, |o| o.nti_original).informational(),
        claim("PTI detects original CMS exploits", "3/3", &cms, |o| o.pti_original).informational(),
        Claim::new("NTI evaded by mutation", "51/53", ours, Test::AtLeast, evaded >= 51)
            .informational(),
        claim("Taintless adapts exploits to evade PTI", "14/53", &all, |o| o.taintless_adapted)
            .informational(),
    ];
    r
}

/// Benign (input, query) pairs where the input *approximately* matches a
/// critical region of the query without ever flowing into it — the
/// false-positive fuel for loose thresholds. Each pair is annotated with
/// the edit distance / match length so the FP onset threshold is visible.
fn coincidental_benign() -> Vec<(&'static str, String)> {
    vec![
        // sort column `orders` vs the ORDER keyword: distance 1 over 5.
        ("orders", "SELECT id FROM wp_posts ORDER BY post_date DESC".to_string()),
        // `selects` vs SELECT: distance 1 over 6.
        ("selects", "SELECT id FROM wp_posts WHERE post_status = 'publish'".to_string()),
        // `groupe` (a user-supplied slug) vs GROUP: distance 1 over 5.
        ("groupe", "SELECT post_author FROM wp_posts GROUP BY post_author".to_string()),
        // `limite` vs LIMIT.
        ("limite", "SELECT id FROM wp_posts LIMIT 10".to_string()),
        // `wheres` vs WHERE.
        ("wheres", "SELECT id FROM wp_posts WHERE 1".to_string()),
        // `unionx` vs UNION in a legitimate two-part query.
        ("unionx", "SELECT a FROM t UNION SELECT a FROM u".to_string()),
    ]
}

/// Ablation: NTI threshold sensitivity (§III-A).
///
/// "Setting the threshold value too high yields the inference of too many
/// taint markings, which causes false positives. On the other hand,
/// setting the threshold value too low yields too few taint markings,
/// which causes false negatives. Selecting an optimum threshold value for
/// an application or across a set of applications is not straightforward."
///
/// For each threshold this sweep measures, NTI-only:
///  * detection of the 53 original testbed exploits;
///  * evasion rate of quote-stuffing/whitespace mutants *sized for that
///    threshold* (the paper's point: evasion works at every threshold);
///  * false positives on benign inputs that coincidentally resemble query
///    structure (sort columns like `orders` vs the `ORDER` keyword).
pub(super) fn ablation_threshold(_: &mut Paper) -> Report {
    let mut lab = build_lab();
    let all: Vec<_> = lab.plugins.iter().chain(lab.cms_cases.iter()).cloned().collect();

    let mut r = Report::default();
    outln!(r, "ABLATION: NTI threshold sensitivity (NTI-only detection)\n");
    let mut rows = Vec::new();
    let mut fewest_evading = usize::MAX;
    for threshold in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40] {
        let mut cfg = JozaConfig::nti_only();
        cfg.nti.threshold = threshold;
        let joza = Joza::install(&lab.server.app, cfg);

        let mut orig_detected = 0;
        let mut mutants_evaded = 0;
        for p in &all {
            if detected(&mut lab, &joza, p, p.exploit.primary_payload()) {
                orig_detected += 1;
            }
            let mutant = mutate_for_nti(p, threshold);
            if !detected(&mut lab, &joza, p, mutant.primary_payload()) {
                mutants_evaded += 1;
            }
        }
        fewest_evading = fewest_evading.min(mutants_evaded);

        // Analyzer-level false positives on coincidental benign inputs.
        let nti = NtiAnalyzer::new(NtiConfig { threshold, ..NtiConfig::default() });
        let fps = coincidental_benign()
            .iter()
            .filter(|(input, query)| nti.analyze(&[input], query).is_attack())
            .count();

        rows.push(vec![
            format!("{threshold:.2}"),
            format!("{orig_detected}/{}", all.len()),
            format!("{mutants_evaded}/{}", all.len()),
            format!("{fps}/{}", coincidental_benign().len()),
        ]);
    }
    outln!(
        r,
        "{}",
        render_table(
            &[
                "Threshold",
                "Originals detected",
                "Sized mutants evading",
                "Coincidental-benign FPs"
            ],
            &rows
        )
    );
    outln!(r, "\nReading: mutants sized for the threshold evade at *every* setting (raising");
    outln!(r, "the threshold is not a remedy, §V-A), while loose thresholds start flagging");
    outln!(r, "benign near-keyword inputs — the no-good-setting dilemma of §III-A that");
    outln!(r, "motivates the hybrid.");
    r.claims.push(Claim::new(
        "Sized NTI mutants evading, fewest over 7 thresholds",
        "51/53",
        format!("{fewest_evading}/{}", all.len()),
        Test::AtLeast,
        fewest_evading >= 51,
    ));
    r
}

/// Joza under `policy` for both components.
fn joza_with(app: &WebApp, policy: CriticalPolicy) -> Joza {
    let mut cfg = JozaConfig::optimized();
    cfg.nti.critical = policy;
    cfg.pti.pti.critical = policy;
    Joza::install(app, cfg)
}

/// An advanced-search application: column names, sort order, and IN-lists
/// all come from user input — legitimate under the paper's threat model.
fn advanced_search_app() -> Server {
    let mut app = WebApp::wordpress_style("advanced-search");
    app.add_plugin(Plugin::new(
        "find",
        "1.0",
        r#"
        $col = $_GET['orderby'];
        $ids = $_GET['ids'];
        $r = mysql_query("SELECT title FROM posts WHERE id IN (" . $ids . ") ORDER BY " . $col);
        if ($r) { while ($row = mysql_fetch_assoc($r)) { echo $row['title'], ";"; } }
        else { echo "err: ", mysql_error(); }
        "#,
    ));
    let mut db = Database::new();
    db.create_table("posts", &["id", "title", "views", "created"]);
    for i in 1..=5i64 {
        db.insert_row(
            "posts",
            vec![Value::Int(i), format!("post {i}").into(), Value::Int(i * 10), Value::Int(i)],
        );
    }
    Server::new(app, db)
}

/// Ablation: critical-token policy (§II threat model).
///
/// The paper considered the strict Ray & Ligatti definition but rejected
/// it: "many programs, such as those that incorporate advanced search
/// functionality, would break as they allow field and table names to be
/// specified through user inputs." This sweep compares the pragmatic
/// default policy against the strict one on (a) the 53 exploits and
/// (b) advanced-search-style benign traffic that passes identifiers and
/// value lists through inputs.
pub(super) fn ablation_policy(_: &mut Paper) -> Report {
    let mut lab = build_lab();
    let all: Vec<_> = lab.plugins.iter().chain(lab.cms_cases.iter()).cloned().collect();

    let mut r = Report::default();
    outln!(r, "ABLATION: pragmatic vs strict critical-token policy\n");
    let mut rows = Vec::new();
    for (name, short, policy, strict) in [
        ("pragmatic (paper §II)", "pragmatic", CriticalPolicy::Pragmatic, false),
        ("strict (Ray & Ligatti)", "strict", CriticalPolicy::Strict, true),
    ] {
        let joza = joza_with(&lab.server.app, policy);
        let exploits_detected = all
            .iter()
            .filter(|p| detected(&mut lab, &joza, p, p.exploit.primary_payload()))
            .count();

        // Advanced-search benign traffic under the same policy.
        let mut server = advanced_search_app();
        let search_joza = joza_with(&server.app, policy);
        let benign = [
            HttpRequest::get("find").param("orderby", "views").param("ids", "1,2,3"),
            HttpRequest::get("find").param("orderby", "created").param("ids", "4,5"),
            HttpRequest::get("find").param("orderby", "title").param("ids", "2"),
        ];
        let broken =
            benign.iter().filter(|req| server.handle_with(req, &search_joza).denied()).count();

        let detected = format!("{exploits_detected}/{}", all.len());
        r.claims.push(Claim::exact(
            &format!("{short} policy detects every exploit"),
            "53/53",
            &detected,
        ));
        r.claims.push(if strict {
            Claim::new(
                "strict policy breaks advanced search (>= 1)",
                "breaks it",
                broken,
                Test::AtLeast,
                broken >= 1,
            )
        } else {
            Claim::exact("pragmatic policy breaks no advanced-search request", 0, broken)
        });
        rows.push(vec![name.to_string(), detected, format!("{broken}/{}", benign.len())]);
    }
    outln!(
        r,
        "{}",
        render_table(&["Policy", "Exploits detected", "Advanced-search requests broken"], &rows)
    );
    outln!(r, "\nReading: the strict policy buys no detection on this testbed (the pragmatic");
    outln!(r, "policy already catches every exploit) but breaks legitimate advanced-search");
    outln!(r, "traffic — the exact trade-off that led the paper to its pragmatic stance.");
    r
}

/// Static taint-analysis report over the full WP-SQLI-LAB corpus.
///
/// Runs `joza-sast` over every routable endpoint (4 WordPress core routes,
/// the 50 vulnerable plugins of Table IV, the 3 CMS case studies), scores
/// the verdicts against the testbed's ground-truth labels (TP/FP/FN/TN),
/// and finishes with a throughput ablation: the plain Joza gate vs. the
/// same engine built with the statically-proven taint-free routes, on
/// benign core-route traffic, where those routes' queries take the static
/// fast-path stage and skip NTI/PTI entirely.
pub(super) fn sast(_: &mut Paper) -> Report {
    let mut lab = build_lab();
    let mut r = Report::default();

    outln!(r, "STATIC TAINT ANALYSIS over WP-SQLI-LAB ({} routes)\n", ground_truth(&lab).len());
    let summaries = analyze_app(&lab.server.app);
    let by_route: BTreeMap<&str, &TaintSummary> =
        summaries.iter().map(|s| (s.endpoint.as_str(), s)).collect();

    // --- Score verdicts against ground truth ---------------------------
    let mut score: BTreeMap<&str, usize> = BTreeMap::new();
    let mut rows = Vec::new();
    for (route, vulnerable) in ground_truth(&lab) {
        let summary =
            by_route.get(route.as_str()).unwrap_or_else(|| panic!("no analysis for route {route}"));
        let flagged = !summary.taint_free;
        let verdict = match (flagged, vulnerable) {
            (true, true) => "TP",
            (true, false) => "FP",
            (false, true) => "FN",
            (false, false) => "TN",
        };
        *score.entry(verdict).or_default() += 1;
        let worst = summary
            .findings
            .iter()
            .map(|f| f.taint)
            .max()
            .map_or("-".to_string(), |t| t.label().to_string());
        rows.push(vec![
            route,
            if vulnerable { "vulnerable" } else { "clean" }.to_string(),
            if flagged { "flagged" } else { "taint-free" }.to_string(),
            verdict.to_string(),
            summary.sink_count.to_string(),
            summary.findings.len().to_string(),
            worst,
        ]);
    }
    outln!(
        r,
        "{}",
        render_table(
            &[
                "Route",
                "Ground truth",
                "Static verdict",
                "Score",
                "Sinks",
                "Findings",
                "Worst taint"
            ],
            &rows
        )
    );
    let [tp, fp, fneg, tn] = ["TP", "FP", "FN", "TN"].map(|k| score.get(k).copied().unwrap_or(0));
    let total = tp + fp + fneg + tn;
    outln!(
        r,
        "totals: {total} routes | TP {tp}  FP {fp}  FN {fneg}  TN {tn} | recall {} | precision {}",
        pct(tp as f64 / (tp + fneg).max(1) as f64),
        pct(tp as f64 / (tp + fp).max(1) as f64),
    );
    // Soundness: no vulnerable route may be proven taint-free.
    r.claims.push(Claim::exact(
        &format!("Vulnerable routes proven taint-free, of {total}"),
        0,
        fneg,
    ));
    let n: usize = summaries.iter().map(|s| s.findings.len()).sum();
    outln!(r, "({n} findings total; the sast-findings section lists the source→sink traces)");

    // --- Unparameterized-sink lint: the manual-remediation worklist ----
    let lint = unparameterized_sink_lint(&lab.server.app);
    outln!(
        r,
        "\nUNPARAMETERIZED SINKS ({} tainted sinks the hardening pass cannot repair)\n",
        lint.len()
    );
    if lint.is_empty() {
        outln!(r, "(none — every tainted sink sits in a completely-modeled route)");
    } else {
        let lint_rows: Vec<Vec<String>> = lint
            .iter()
            .map(|u| {
                vec![
                    u.route.clone(),
                    u.stmt_id.to_string(),
                    u.sink.clone(),
                    u.sources.join(", "),
                    u.dirty_cell.as_ref().map_or("-".to_string(), |(t, c)| format!("{t}.{c}")),
                ]
            })
            .collect();
        outln!(
            r,
            "{}",
            render_table(&["Route", "Stmt", "Sink", "Tainted sources", "Dirty cell"], &lint_rows)
        );
    }

    // --- Persistence-aware store/load fixpoint -------------------------
    let flow = joza_sast::analyze_store_flow(&lab.server.app);
    let second_order = flow.second_order_routes();
    outln!(
        r,
        "\nSTORE/LOAD FIXPOINT ({} dirty cells, {} second-order routes, {} rounds{})\n",
        flow.dirty.len(),
        second_order.len(),
        flow.iterations,
        if flow.top_poisoned {
            format!(", top-poisoned by {:?}", flow.poisoned_by)
        } else {
            String::new()
        }
    );
    let worklist = flow.remediation_worklist();
    let cell_rows: Vec<Vec<String>> = worklist
        .iter()
        .map(|e| {
            vec![
                format!("{}.{}", e.cell.0, e.cell.1),
                e.writers
                    .iter()
                    .map(|w| format!("{}:{}", w.route, w.line))
                    .collect::<Vec<_>>()
                    .join(", "),
                e.readers.join(", "),
            ]
        })
        .collect();
    if cell_rows.is_empty() {
        outln!(r, "(no attacker-reachable cells)");
    } else {
        outln!(
            r,
            "{}",
            render_table(&["Cell", "Tainted writers", "Second-order readers"], &cell_rows)
        );
    }
    for route in &second_order {
        if let Some(rf) = flow.get(route) {
            for chain in rf.chains.iter().take(1) {
                outln!(r, "  {}", chain.render());
            }
        }
    }

    // --- Throughput ablation: fast path on benign core-route reads -----
    let fast_routes = taint_free_routes(&lab.server.app);
    outln!(
        r,
        "\nFAST-PATH ABLATION (benign core-route crawl, {} taint-free routes)\n",
        fast_routes.len()
    );
    let requests = crawl_requests(120);
    let config = Setup::ExtensionEstimate.joza_config();
    let joza_plain = Joza::install(&lab.server.app, config.clone());
    let joza_fast = Joza::installer(&lab.server.app, config)
        .taint_free_routes(fast_routes.iter().cloned())
        .build();
    let mut gate_time = |joza: &Joza| {
        lab.reset_database();
        let mut total = Duration::ZERO;
        for req in &requests {
            let resp = lab.server.handle_with(req, joza);
            assert!(!resp.denied(), "benign request denied: {req:?}");
            total += resp.gate_time;
        }
        total
    };
    let (plain_gate_time, fast_gate_time) = (gate_time(&joza_plain), gate_time(&joza_fast));
    let stats = joza_fast.stats();

    outln!(
        r,
        "{}",
        render_table(
            &["Gate", "Requests", "Gate time", "Fast queries", "Dynamic queries"],
            &[
                vec![
                    "Joza (dynamic only)".into(),
                    requests.len().to_string(),
                    format!("{plain_gate_time:?}"),
                    "0".into(),
                    "all".into(),
                ],
                vec![
                    "Joza + static fast path".into(),
                    requests.len().to_string(),
                    format!("{fast_gate_time:?}"),
                    stats.static_hits.to_string(),
                    (stats.queries - stats.static_hits).to_string(),
                ],
            ]
        )
    );
    outln!(
        r,
        "fast path served {}/{} queries statically; gate time {} of dynamic-only",
        stats.static_hits,
        stats.queries,
        pct(fast_gate_time.as_secs_f64() / plain_gate_time.as_secs_f64().max(f64::EPSILON)),
    );
    r
}

/// The static analysis's source→sink traces, one block per route with
/// findings (deterministic order: endpoint, span, sink).
pub(super) fn sast_findings(_: &mut Paper) -> Report {
    let lab = build_lab();
    let mut r = Report::default();
    outln!(
        r,
        "STATIC TAINT FINDINGS over WP-SQLI-LAB (deterministic order: endpoint, span, sink)\n"
    );
    for s in &analyze_app(&lab.server.app) {
        if !s.findings.is_empty() || s.parse_error.is_some() {
            r.text.push_str(&render_summary(s));
        }
    }
    r
}
