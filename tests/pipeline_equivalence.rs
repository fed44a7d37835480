//! Pipeline equivalence: the three engine entry points that drive the
//! staged `CheckPipeline` — a route session's `check`, the same session's
//! `check_batch`, and the engine-level `Joza::check_query_on_route` — must
//! be observationally identical over the entire WP-SQLI-LAB corpus, benign
//! and exploit traffic alike: same verdicts, same detector attribution,
//! same anomaly flags, same stage traces. The server seam on top of them,
//! `Server::handle_with`, must block exactly the requests that issue a
//! flagged query. And PTI caches filled far past their capacity must not
//! change any verdict: an eviction only costs a repeat analysis.

use joza::core::{Joza, JozaConfig, JozaSession, QueryCheck, Verdict};
use joza::lab::verify::request_for;
use joza::lab::{build_lab, Lab};
use joza::pti::cache::CAPACITY;
use joza::pti::daemon::PtiComponentConfig;
use joza::sast::{app_query_models, taint_free_routes};
use joza::webapp::request::HttpRequest;

/// Every kind of corpus traffic: benign core crawl, benign plugin
/// requests, and every shipped exploit (plugins + CMS case studies).
fn corpus_requests(lab: &Lab) -> Vec<HttpRequest> {
    let mut reqs = vec![HttpRequest::get("index")];
    for p in 1..=5 {
        reqs.push(HttpRequest::get("single-post").param("p", &p.to_string()));
    }
    reqs.push(HttpRequest::get("search").param("s", "lorem"));
    reqs.push(
        HttpRequest::post("post-comment")
            .param("comment_post_ID", "2")
            .param("author", "alice")
            .param("comment", "it's a nice post"),
    );
    for p in lab.plugins.iter().chain(lab.cms_cases.iter()) {
        reqs.push(request_for(p, &p.benign_value));
        reqs.push(request_for(p, p.exploit.primary_payload()));
    }
    reqs
}

/// Fully-loaded engine: query models for the model fast path plus the
/// statically-proven taint-free routes, so every pipeline stage is live.
fn full_engine(lab: &Lab) -> Joza {
    Joza::installer(&lab.server.app, JozaConfig::optimized())
        .query_models(app_query_models(&lab.server.app))
        .taint_free_routes(taint_free_routes(&lab.server.app))
        .build()
}

/// A route session for `req` with the request's raw inputs captured —
/// what `Server::handle_with` opens through the engine's `GateFactory`.
fn route_session<'a>(joza: &'a Joza, req: &HttpRequest) -> JozaSession<'a> {
    let mut session = joza.session_for(&req.path);
    for (_, name, value) in req.all_inputs() {
        session.capture_input(&name, &value);
    }
    session
}

/// Per-query equivalence: replay every SQL statement the unprotected
/// application issues for the full corpus through all three entry points
/// and require bit-identical verdicts.
#[test]
fn session_batch_and_route_checks_agree_on_every_corpus_query() {
    let mut lab = build_lab();
    let joza = full_engine(&lab);

    let mut checked = 0usize;
    for req in &corpus_requests(&lab) {
        lab.reset_database();
        let plain = lab.server.handle(req);
        let inputs: Vec<String> = req.all_inputs().into_iter().map(|(_, _, v)| v).collect();
        let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();

        let session = route_session(&joza, req);
        let single: Vec<Verdict> = plain.queries.iter().map(|sql| session.check(sql)).collect();
        let batch: Vec<QueryCheck> = plain.queries.iter().map(QueryCheck::new).collect();
        let batched = session.check_batch(&batch);
        assert_eq!(batched.len(), single.len());

        for ((sql, one), batched) in plain.queries.iter().zip(&single).zip(&batched) {
            let routed = joza.check_query_on_route(&req.path, &input_refs, sql);
            for other in [batched, &routed] {
                assert_eq!(
                    one.is_safe(),
                    other.is_safe(),
                    "verdict drift on route {} for query {sql}",
                    req.path
                );
                assert_eq!(one.detector(), other.detector(), "{}: {sql}", req.path);
                assert_eq!(
                    one.structural_anomaly(),
                    other.structural_anomaly(),
                    "{}: {sql}",
                    req.path
                );
                assert_eq!(one.trace(), other.trace(), "{}: {sql}", req.path);
                assert_eq!(one, other, "{}: {sql}", req.path);
            }
            checked += 1;
        }
    }
    assert!(checked > 150, "corpus too small to be meaningful: {checked} queries");

    // All three entry points feed the same accounting, which must
    // partition.
    let stats = joza.stats();
    assert_eq!(stats.queries, 3 * checked as u64);
    assert_eq!(stats.model_fast_hits + stats.static_hits + stats.full_checks, stats.queries);
}

/// Response-level equivalence: a server gated through the engine's
/// session factory blocks exactly the requests whose query stream
/// contains a query the session flags, and serves every other request
/// byte-identically to the unprotected server.
#[test]
fn handle_with_blocks_exactly_the_flagged_requests() {
    let mut lab = build_lab();
    let joza = full_engine(&lab);

    let (mut blocked, mut served) = (0usize, 0usize);
    for req in &corpus_requests(&lab) {
        lab.reset_database();
        let plain = lab.server.handle(req);
        let session = route_session(&joza, req);
        let flagged = plain.queries.iter().any(|sql| !session.check(sql).is_safe());

        lab.reset_database();
        let gated = lab.server.handle_with(req, &joza);

        assert_eq!(gated.blocked, flagged, "blocking drift on {}", req.path);
        if flagged {
            blocked += 1;
        } else {
            assert_eq!(gated.executed, plain.executed, "execution drift on {}", req.path);
            assert_eq!(gated.body, plain.body, "response drift on {}", req.path);
            served += 1;
        }
    }
    assert!(blocked > 0 && served > 0, "corpus must exercise both outcomes");
}

/// Eviction soundness: overflow both PTI caches of one engine (the shared
/// query cache and its daemon's structure cache) with distinct safe
/// queries, then replay every corpus query twice. Each verdict must equal
/// that of an engine with both caches off.
#[test]
fn evicting_caches_never_change_a_verdict() {
    let mut lab = build_lab();
    let cached = Joza::install(&lab.server.app, JozaConfig::optimized());
    let uncached = Joza::install(
        &lab.server.app,
        JozaConfig {
            pti: PtiComponentConfig {
                query_cache: false,
                structure_cache: false,
                ..PtiComponentConfig::optimized()
            },
            ..JozaConfig::optimized()
        },
    );
    let requests = corpus_requests(&lab);
    let mut replay = Vec::new();
    for req in &requests {
        lab.reset_database();
        let inputs: Vec<String> = req.all_inputs().into_iter().map(|(_, _, v)| v).collect();
        for sql in lab.server.handle(req).queries {
            replay.push((req.path.clone(), inputs.clone(), sql));
        }
    }

    // A trailing fresh identifier is no critical token, so each filler is
    // safe, cached, and of a shape of its own.
    let base = &replay
        .iter()
        .find(|(_, _, sql)| uncached.check_query(&[], sql).is_safe())
        .expect("a query PTI accepts")
        .2;
    let fillers = 4 * CAPACITY;
    for i in 0..fillers {
        let filler = format!("{base} c{i}");
        assert!(cached.check_query(&[], &filler).is_safe(), "{filler}");
    }
    let query_cache = cached.query_cache().expect("query cache enabled");
    assert!(query_cache.evictions() >= (fillers - CAPACITY) as u64);

    let mut blocked = 0;
    for pass in 0..2 {
        for (route, inputs, sql) in &replay {
            let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
            let expected = uncached.check_query_on_route(route, &inputs, sql);
            let got = cached.check_query_on_route(route, &inputs, sql);
            assert_eq!(got, expected, "pass {pass}, {route}: {sql}");
            blocked += usize::from(!got.is_safe());
        }
    }
    assert!(blocked > 0, "the corpus must exercise blocked verdicts");
    assert!(query_cache.stats().hits > 0, "the second pass must hit the cache");
}
