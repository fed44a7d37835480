//! Property-based tests for PTI invariants: vocabulary monotonicity,
//! matcher equivalence, cache transparency, whole-query coverage.

use joza_pti::analyzer::{PtiAnalyzer, PtiConfig};
use joza_pti::daemon::{DaemonMode, PtiComponent, PtiComponentConfig};
use joza_pti::MatcherKind;
use proptest::prelude::*;

fn frag_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[A-Za-z =']{1,18}", 0..8)
}

proptest! {
    /// Adding fragments can only make more queries safe, never fewer
    /// (coverage is monotone in the vocabulary).
    #[test]
    fn vocabulary_monotonicity(
        base in frag_strategy(),
        extra in frag_strategy(),
        query in "[ -~]{0,80}",
    ) {
        let small = PtiAnalyzer::from_fragments(base.clone(), PtiConfig::default());
        let mut bigger = base.clone();
        bigger.extend(extra);
        let big = PtiAnalyzer::from_fragments(bigger, PtiConfig::default());
        if !small.analyze(&query).is_attack() {
            prop_assert!(!big.analyze(&query).is_attack());
        }
    }

    /// A query that appears verbatim as a fragment is always safe.
    #[test]
    fn whole_query_fragment_is_safe(query in "[ -~]{1,60}") {
        let pti = PtiAnalyzer::from_fragments([query.as_str()], PtiConfig::default());
        prop_assert!(!pti.analyze(&query).is_attack());
    }

    /// All three matchers and the parse-first toggle agree on verdicts.
    #[test]
    fn matchers_and_parse_first_agree(
        frags in frag_strategy(),
        query in "[ -~]{0,60}",
    ) {
        let mut verdicts = Vec::new();
        for matcher in [MatcherKind::Naive, MatcherKind::Mru, MatcherKind::AhoCorasick] {
            for parse_first in [false, true] {
                let pti = PtiAnalyzer::from_fragments(
                    frags.clone(),
                    PtiConfig { matcher, parse_first, ..PtiConfig::default() },
                );
                verdicts.push(pti.analyze(&query).is_attack());
            }
        }
        prop_assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{query}: {verdicts:?}");
    }

    /// The analyzer is deterministic (MRU reordering must not leak into
    /// results).
    #[test]
    fn repeated_analysis_is_stable(
        frags in frag_strategy(),
        queries in proptest::collection::vec("[ -~]{0,40}", 1..6),
    ) {
        let pti = PtiAnalyzer::from_fragments(frags, PtiConfig::default());
        for q in &queries {
            let a = pti.analyze(q).is_attack();
            let b = pti.analyze(q).is_attack();
            prop_assert_eq!(a, b, "verdict flipped on {}", q);
        }
    }

    /// Caches are transparent: a component with caches gives the same
    /// verdicts as a cache-less in-process analyzer, in any order.
    #[test]
    fn caches_are_transparent(
        frags in frag_strategy(),
        queries in proptest::collection::vec("[ -~]{0,40}", 1..8),
    ) {
        let reference = PtiAnalyzer::from_fragments(
            frags.clone(),
            PtiConfig { matcher: MatcherKind::AhoCorasick, parse_first: false, ..PtiConfig::default() },
        );
        let mut cached = PtiComponent::new(
            &frags,
            PtiComponentConfig {
                mode: DaemonMode::InProcess,
                ..PtiComponentConfig::default()
            },
        );
        for q in &queries {
            let expected = !reference.analyze(q).is_attack();
            prop_assert_eq!(cached.check(q).safe, expected, "cache drift on {}", q);
            // Check twice: the second hit must agree too.
            prop_assert_eq!(cached.check(q).safe, expected, "second check drift on {}", q);
        }
    }

    /// The uncovered-critical list is always a subset of the query's
    /// critical tokens and empty exactly when the verdict is safe.
    #[test]
    fn report_internal_consistency(
        frags in frag_strategy(),
        query in "[ -~]{0,60}",
    ) {
        let pti = PtiAnalyzer::from_fragments(frags, PtiConfig::default());
        let report = pti.analyze(&query);
        prop_assert_eq!(report.is_attack(), !report.uncovered_critical.is_empty());
        prop_assert!(report.uncovered_critical.len() <= report.critical_count);
        for t in &report.uncovered_critical {
            prop_assert!(t.end <= query.len());
        }
    }
}

/// The daemon survives hostile query content: embedded NULs, very long
/// queries, non-UTF8-safe byte patterns (as lossy strings), empty input.
#[test]
fn daemon_failure_injection() {
    use joza_pti::store::FragmentStore;
    use std::sync::Arc;
    let store = Arc::new(FragmentStore::new(["SELECT 1"], MatcherKind::default()));
    let client = joza_pti::daemon::PtiDaemon::spawn(store, PtiConfig::default(), true);
    let long = "SELECT 1 UNION SELECT ".repeat(2000);
    for q in ["", "\0\0\0", &long, "SELECT 1", "'", "/*", "--"] {
        let _ = client.check(q); // must not hang or kill the daemon
    }
    // Still alive and correct afterwards.
    assert!(client.check("SELECT 1").safe);
    client.shutdown();
}

/// Shutdown is idempotent via drop, and multiple daemons do not interfere.
#[test]
fn daemon_lifecycle() {
    use joza_pti::daemon::PtiDaemon;
    use joza_pti::store::FragmentStore;
    use std::sync::Arc;
    let store = Arc::new(FragmentStore::new(["SELECT 1"], MatcherKind::default()));
    let a = PtiDaemon::spawn(Arc::clone(&store), PtiConfig::default(), false);
    {
        let b = PtiDaemon::spawn(Arc::clone(&store), PtiConfig::default(), false);
        assert!(b.check("SELECT 1").safe);
        // b dropped here without explicit shutdown.
    }
    assert!(a.check("SELECT 1").safe, "sibling daemon unaffected by drop");
    a.shutdown();
}
