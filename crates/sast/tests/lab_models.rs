//! The statically inferred query models against the full WP-SQLI-LAB.
//!
//! Three contracts:
//!
//! * **Completeness labels.** `app_query_models` must agree with the
//!   lab's ground-truth labels (`joza_lab::model_ground_truth`): every
//!   route is expected complete except the Drupal case study, whose
//!   `db_query` placeholder-array rewrite is not derivable statically.
//! * **Benign parity + fast path.** With models installed, benign
//!   traffic produces byte-identical responses to the model-off
//!   baseline, and at least half of the benign queries ride the
//!   skeleton fast path.
//! * **Attack parity.** Exploit traffic never takes the fast path (the
//!   payload deforms the skeleton), so blocking decisions are identical
//!   to the model-off baseline.

use joza_core::{Joza, JozaConfig};
use joza_lab::{build_lab, model_ground_truth, verify::request_for};
use joza_sast::app_query_models;
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

#[test]
fn inferred_completeness_matches_ground_truth() {
    let lab = build_lab();
    let models = app_query_models(&lab.server.app);
    for (route, expected_complete) in model_ground_truth(&lab) {
        let m = models.get(&route).unwrap_or_else(|| panic!("no model for route {route}"));
        assert_eq!(
            m.complete, expected_complete,
            "route {route}: inferred complete={}, ground truth says {}",
            m.complete, expected_complete
        );
        if expected_complete {
            assert!(m.compiled > 0, "complete route {route} compiled no templates");
        }
    }
}

#[test]
fn benign_traffic_fast_paths_with_identical_responses() {
    let mut lab = build_lab();
    let models = app_query_models(&lab.server.app);
    let baseline = Joza::install(&lab.server.app, JozaConfig::optimized());
    let modeled =
        Joza::installer(&lab.server.app, JozaConfig::optimized()).query_models(models).build();

    let mut reqs = benign_core_requests();
    for p in lab.plugins.iter().chain(&lab.cms_cases) {
        reqs.push(request_for(p, &p.benign_value));
    }

    for req in &reqs {
        lab.reset_database();
        let off = lab.server.handle_with(req, &baseline);

        lab.reset_database();
        let on = lab.server.handle_with(req, &modeled);

        assert!(!off.blocked, "model-off baseline blocked benign request {req:?}");
        assert!(!on.blocked, "model-on gate blocked benign request {req:?}");
        assert_eq!(on.body, off.body, "models changed the response for {req:?}");
    }

    let stats = modeled.stats();
    assert!(stats.queries > 0);
    assert!(
        stats.model_fast_hits * 2 >= stats.queries,
        "only {}/{} benign queries took the fast path",
        stats.model_fast_hits,
        stats.queries
    );
    assert_eq!(stats.attacks, 0);
}

#[test]
fn exploits_never_take_the_fast_path_and_verdicts_match_baseline() {
    let mut lab = build_lab();
    let models = app_query_models(&lab.server.app);
    let baseline = Joza::install(&lab.server.app, JozaConfig::optimized());
    let modeled =
        Joza::installer(&lab.server.app, JozaConfig::optimized()).query_models(models).build();

    for p in lab.plugins.clone().iter().chain(lab.cms_cases.clone().iter()) {
        let req = request_for(p, p.exploit.primary_payload());

        lab.reset_database();
        let off = lab.server.handle_with(&req, &baseline);

        let fast_before = modeled.stats().model_fast_hits;
        lab.reset_database();
        let on = lab.server.handle_with(&req, &modeled);
        let fast_after = modeled.stats().model_fast_hits;

        assert_eq!(
            fast_after - fast_before,
            0,
            "exploit against {} rode the model fast path",
            p.slug
        );
        assert_eq!(on.blocked, off.blocked, "verdict delta on {}", p.slug);
        assert_eq!(on.body, off.body, "response delta on {}", p.slug);
    }
}
