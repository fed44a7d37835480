//! The PTI query cache stays within its constant capacity under an
//! adversarial stream: every query is new, safe, and so inserted.

use joza::core::{Joza, JozaConfig};
use joza::pti::cache::CAPACITY;
use joza::pti::daemon::{DaemonMode, PtiComponentConfig};

/// One million distinct safe queries, each with a fresh identifier (what a
/// sqlmap-style alias looks like), through one engine. Identifiers are not
/// critical tokens, so PTI passes every query and caches it.
#[test]
fn query_cache_stays_bounded_over_a_million_unique_queries() {
    const QUERIES: u64 = 1_000_000;
    let config = JozaConfig {
        // PTI alone, in process, keeps the stream fast. The structure
        // cache is off: fresh identifiers would also grow the symbol
        // table, which this test does not measure.
        disable_nti: true,
        pti: PtiComponentConfig {
            mode: DaemonMode::InProcess,
            structure_cache: false,
            ..PtiComponentConfig::default()
        },
        ..JozaConfig::optimized()
    };
    let fragments = ["SELECT ", " FROM records WHERE ID=", " LIMIT 5"];
    let joza = Joza::builder().fragments(fragments).config(config).build();
    let cache = joza.query_cache().expect("query cache enabled");

    let query = |i: u64| format!("SELECT c{i} FROM records WHERE ID=5 LIMIT 5");
    for i in 0..QUERIES {
        assert!(joza.check_query(&[], &query(i)).is_safe(), "{}", query(i));
        if i % 10_000 == 0 {
            assert!(cache.len() <= CAPACITY, "after {i} queries: {} entries", cache.len());
        }
    }

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.inserts), (0, QUERIES, QUERIES));
    let entries = cache.len() as u64;
    assert!(entries <= CAPACITY as u64);
    assert_eq!(cache.evictions(), QUERIES - entries, "every overflow is a counted eviction");
    // The most recent query is still cached.
    assert!(joza.check_query(&[], &query(QUERIES - 1)).is_safe());
    assert_eq!(cache.stats().hits, 1);
}
