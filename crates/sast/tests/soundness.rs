//! Soundness of the static fast path against the full WP-SQLI-LAB corpus.
//!
//! The contract under test: whenever the pipeline's static fast-path
//! stage short-circuits a query to `Allow` without running the dynamic
//! detectors, a dynamic-only engine would also have allowed it — the fast
//! path may only skip work, never change a decision. And attack traffic
//! must always fall through to full dynamic analysis, because no
//! vulnerable route may ever be proven taint-free.

use joza_core::{Joza, JozaConfig};
use joza_lab::{build_lab, verify::request_for, Lab, CLEAN_CORE_ROUTES};
use joza_sast::{analyze_source, infer_source, taint_free_routes, AnalyzerConfig};
use joza_sqlparse::template::TemplatePart;
use joza_webapp::request::HttpRequest;

fn benign_core_requests() -> Vec<HttpRequest> {
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
    reqs
}

fn proven_routes(lab: &Lab) -> Vec<String> {
    // Persistence-aware: also excludes routes the store/load fixpoint
    // marks second-order-reachable.
    taint_free_routes(&lab.server.app)
}

/// Every statically-proven route must be a clean core route: the analysis
/// may never certify a plugin that ships a working exploit.
#[test]
fn no_vulnerable_route_is_proven_taint_free() {
    let lab = build_lab();
    let proven = proven_routes(&lab);
    assert!(!proven.is_empty(), "the analysis should prove at least one core route");
    for route in &proven {
        assert!(
            CLEAN_CORE_ROUTES.contains(&route.as_str()),
            "vulnerable route {route} was proven taint-free"
        );
    }
}

/// Allow ⟹ Allow: on benign traffic, every query the fast path
/// short-circuits would also have been allowed by the dynamic gate, so
/// the two configurations produce identical responses.
#[test]
fn fast_path_allow_implies_dynamic_allow_on_benign_traffic() {
    let mut lab = build_lab();
    let proven = proven_routes(&lab);
    let dynamic_only = Joza::install(&lab.server.app, JozaConfig::optimized());
    let fast = Joza::installer(&lab.server.app, JozaConfig::optimized())
        .taint_free_routes(proven.iter().cloned())
        .build();

    let mut benign = benign_core_requests();
    for p in lab.plugins.clone() {
        benign.push(request_for(&p, &p.benign_value));
    }

    for req in &benign {
        lab.reset_database();
        let dynamic = lab.server.handle_with(req, &dynamic_only);

        let static_before = fast.stats().static_hits;
        lab.reset_database();
        let fast_resp = lab.server.handle_with(req, &fast);
        let static_after = fast.stats().static_hits;

        assert!(!dynamic.blocked, "dynamic gate blocked benign request {req:?}");
        assert!(!fast_resp.blocked, "fast path blocked benign request {req:?}");
        assert_eq!(fast_resp.body, dynamic.body, "fast path changed the response for {req:?}");
        if static_after > static_before {
            // The short-circuit only fired on statically-proven routes —
            // where the dynamic gate allowed everything anyway (checked
            // above via !dynamic.blocked).
            assert!(proven.contains(&req.path), "static fast path fired off-route on {req:?}");
        }
    }
    let stats = fast.stats();
    assert!(stats.static_hits > 0, "the fast path never fired on benign core traffic");
    assert_eq!(
        stats.model_fast_hits + stats.static_hits + stats.full_checks,
        stats.queries,
        "path counters must partition checked queries"
    );
}

/// Attacks always fall through: exploit traffic targets flagged routes,
/// so the fast path forwards every query to the dynamic gate and the
/// protection outcome is identical to running Joza alone.
#[test]
fn attacks_always_fall_through_to_the_dynamic_gate() {
    let mut lab = build_lab();
    let proven = proven_routes(&lab);
    let dynamic_only = Joza::install(&lab.server.app, JozaConfig::optimized());
    let fast = Joza::installer(&lab.server.app, JozaConfig::optimized())
        .taint_free_routes(proven.iter().cloned())
        .build();

    for p in lab.plugins.clone().iter().chain(lab.cms_cases.clone().iter()) {
        let req = request_for(p, p.exploit.primary_payload());
        assert!(
            !proven.contains(&p.slug),
            "exploitable route {} must not be on the fast path",
            p.slug
        );

        lab.reset_database();
        let dynamic = lab.server.handle_with(&req, &dynamic_only);

        let before = fast.stats();
        lab.reset_database();
        let fast_resp = lab.server.handle_with(&req, &fast);
        let after = fast.stats();

        assert_eq!(after.static_hits, before.static_hits, "attack on {} hit the fast path", p.slug);
        assert!(after.full_checks > before.full_checks || fast_resp.queries.is_empty());
        assert_eq!(fast_resp.blocked, dynamic.blocked, "{}", p.slug);
        assert_eq!(fast_resp.body, dynamic.body, "{}", p.slug);
    }
}

#[test]
fn break_mid_loop_state_escapes() {
    let s = analyze_source(
        "t",
        r#"
        $x = '';
        while ($c) {
            $x = $_GET['x'];
            break;
            $x = '';
        }
        mysql_query("SELECT * FROM t WHERE a='$x'");
    "#,
        &AnalyzerConfig::default(),
    );
    // Concretely $x can be tainted at the sink (break exits mid-body).
    assert!(!s.taint_free, "UNSOUND: break mid-body state not joined");
}

/// A loop whose taint needs more passes to settle than the fixpoint
/// allows: `$v60` is tainted in the first pass and reaches `$v1` one link
/// per pass. When the pass cap is hit, every variable the body assigns
/// must go to the domain's top — keeping the last pass's environment
/// would leave `$v1` untainted and the query model a complete literal.
#[test]
fn loop_chain_longer_than_the_pass_cap_goes_to_top() {
    let links: String = (1..60).map(|i| format!("$v{i} = $v{};\n", i + 1)).collect();
    let src = format!(
        "$c = 0;\nwhile ($c < 100) {{\n{links}$v60 = $_GET['x'];\n$c = $c + 1;\n}}\n\
         mysql_query(\"SELECT * FROM t WHERE id=\" . $v1);\n"
    );
    let s = analyze_source("t", &src, &AnalyzerConfig::default());
    assert!(!s.taint_free, "UNSOUND: loop-carried taint dropped at the pass cap");
    // Every link goes to top with the provenance the loop mixes in, so
    // the finding still names the input that reaches the sink.
    assert_eq!(s.findings[0].sources, vec!["$_GET['x']".to_string()], "{:?}", s.findings[0]);
    let m = infer_source("t", &src);
    assert_eq!(m.sites.len(), 1);
    assert_eq!(m.sites[0].templates, None, "UNSOUND: loop-carried hole dropped at the pass cap");
}

/// An assignment inside an operand that may not run — a ternary arm, the
/// right side of `&&`/`||`, the `?:` fallback — must not scrub the value
/// the variable keeps when the operand is skipped.
#[test]
fn assignments_in_skippable_operands_join() {
    for guarded in [
        "$x = ''; $t = $c ? ($x = 1) : ($x = $_GET['y']);",
        "$x = $_GET['y']; $t = $c ? ($x = 1) : 2;",
        "$x = $_GET['y']; $t = $c && ($x = 1);",
        "$x = $_GET['y']; $t = $c || ($x = 1);",
        "$x = $_GET['y']; $t = $c ?: ($x = 1);",
    ] {
        let src = format!("{guarded} mysql_query(\"SELECT * FROM t WHERE a='$x'\");");
        let s = analyze_source("t", &src, &AnalyzerConfig::default());
        assert!(!s.taint_free, "UNSOUND: {guarded} scrubbed the request value");
        let m = infer_source("t", &src);
        let templates = m.sites[0].templates.as_ref().expect("modeled");
        assert!(
            templates.iter().any(|t| t.parts.contains(&TemplatePart::Hole)),
            "UNSOUND: {guarded} left no hole in {templates:?}"
        );
    }
}

#[test]
fn indexed_write_key_taint() {
    let s = analyze_source(
        "t",
        r#"
        $m = array();
        $m[$_GET['k']] = 1;
        $frag = '';
        foreach ($m as $k => $v) {
            $frag .= $k;
        }
        mysql_query("SELECT * FROM t WHERE id IN ($frag)");
    "#,
        &AnalyzerConfig::default(),
    );
    assert!(!s.taint_free, "UNSOUND: tainted array key dropped on indexed write");
}
