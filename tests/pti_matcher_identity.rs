//! The three PTI matchers must produce identical reports over the lab's
//! vocabulary plus a WordPress-scale synthetic core: the naive scan and the MRU scan (both on the
//! first-byte-anchored kernel, over the store's one borrowed copy of the
//! fragments) and the Aho–Corasick automaton. Checked on every query the
//! lab plugins and CMS cases issue, served ungated with their exploit and
//! their benign request.
//!
//! * Without parse-first every matcher enumerates every occurrence, so
//!   whole reports (occurrence counts included) must be equal.
//! * With parse-first only MRU exits early, so its occurrence count may be
//!   smaller; the attack evidence (uncovered critical tokens) and the
//!   critical count must still be equal.
//!
//! One analyzer per matcher serves the whole corpus in order, so MRU
//! promotions from earlier queries carry into later ones.

use joza_lab::verify::request_for;
use joza_lab::{build_lab, wordpress};
use joza_phpsim::fragments::FragmentSet;
use joza_pti::{FragmentStore, MatcherKind, PtiAnalyzer, PtiConfig};
use std::sync::Arc;

/// Synthetic WordPress core files, as in the deployment benchmark: a
/// 13.6k-fragment vocabulary.
const SYNTHETIC_CORE_FILES: usize = 280;

/// Every query the lab issues for its exploits and benign requests, in
/// corpus order.
fn lab_queries() -> (Vec<String>, Vec<String>) {
    let mut lab = build_lab();
    let mut sources: Vec<String> =
        lab.server.app.all_sources().into_iter().map(String::from).collect();
    sources.extend(wordpress::synthetic_core_sources(SYNTHETIC_CORE_FILES));
    let targets: Vec<_> = lab.plugins.iter().chain(&lab.cms_cases).cloned().collect();
    let mut queries = Vec::new();
    for p in &targets {
        for payload in [p.exploit.primary_payload(), p.benign_value.as_str()] {
            queries.extend(lab.server.handle(&request_for(p, payload)).queries);
        }
    }
    assert!(queries.len() >= 2 * targets.len(), "every request issues a query");
    (sources, queries)
}

fn analyzers(sources: &[String], parse_first: bool) -> Vec<PtiAnalyzer> {
    let mut set = FragmentSet::new();
    for src in sources {
        set.add_source(src);
    }
    [MatcherKind::Naive, MatcherKind::Mru, MatcherKind::AhoCorasick]
        .into_iter()
        .map(|matcher| {
            let config = PtiConfig { matcher, parse_first, ..PtiConfig::default() };
            PtiAnalyzer::new(Arc::new(FragmentStore::from_set(&set, matcher)), config)
        })
        .collect()
}

#[test]
fn matchers_give_identical_reports_on_every_lab_query() {
    let (sources, queries) = lab_queries();
    let [naive, mru, ac] = <[PtiAnalyzer; 3]>::try_from(analyzers(&sources, false)).unwrap();
    let mut attacks = 0;
    for q in &queries {
        let report = naive.analyze(q);
        assert_eq!(mru.analyze(q), report, "MRU diverged from naive on {q}");
        assert_eq!(ac.analyze(q), report, "Aho-Corasick diverged from naive on {q}");
        attacks += usize::from(report.is_attack());
    }
    assert!(attacks > 0, "the exploits must yield attack reports");
}

#[test]
fn parse_first_matchers_agree_on_evidence_for_every_lab_query() {
    let (sources, queries) = lab_queries();
    let [naive, mru, ac] = <[PtiAnalyzer; 3]>::try_from(analyzers(&sources, true)).unwrap();
    let mut attacks = 0;
    for q in &queries {
        let report = naive.analyze(q);
        assert_eq!(ac.analyze(q), report, "Aho-Corasick diverged from naive on {q}");
        let early = mru.analyze(q);
        assert_eq!(early.uncovered_critical, report.uncovered_critical, "MRU evidence on {q}");
        assert_eq!(early.critical_count, report.critical_count, "MRU critical count on {q}");
        assert!(early.occurrence_count <= report.occurrence_count, "MRU over-reports on {q}");
        attacks += usize::from(report.is_attack());
    }
    assert!(attacks > 0, "the exploits must yield attack reports");
}
