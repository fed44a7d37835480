//! Concurrency: one Joza engine shared by many request threads (the
//! paper's deployment — multiple PHP application instances talking to
//! shared daemons) must stay consistent under contention.

use joza::core::{Joza, JozaConfig, Verdict};
use joza::pti::daemon::{DaemonMode, PtiComponentConfig};
use std::sync::Arc;

const FRAGS: &[&str] = &[
    "id",
    "SELECT * FROM records WHERE ID=",
    " LIMIT 5",
    "SELECT option_value FROM wp_options WHERE option_name = '",
    "' LIMIT 1",
];

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn engine_is_send_and_sync() {
    assert_send_sync::<Joza>();
    assert_send_sync::<JozaConfig>();
    assert_send_sync::<Verdict>();
}

#[test]
fn concurrent_checks_are_consistent() {
    for mode in [DaemonMode::LongLived, DaemonMode::InProcess] {
        let config = JozaConfig {
            pti: PtiComponentConfig { mode, ..PtiComponentConfig::default() },
            ..JozaConfig::default()
        };
        let joza = Arc::new(Joza::builder().fragments(FRAGS).config(config).build());

        let threads: Vec<_> = (0..8)
            .map(|t| {
                let joza = Arc::clone(&joza);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let id = t * 1000 + i;
                        let benign = format!("SELECT * FROM records WHERE ID={id} LIMIT 5");
                        assert!(
                            joza.check_query(&[&id.to_string()], &benign).is_safe(),
                            "benign flipped under contention: {benign}"
                        );
                        if i % 7 == 0 {
                            let payload = format!("{id} UNION SELECT username()");
                            let attack =
                                format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
                            assert!(
                                !joza.check_query(&[&payload], &attack).is_safe(),
                                "attack missed under contention: {attack}"
                            );
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread panicked");
        }

        let stats = joza.stats();
        assert_eq!(stats.queries, 8 * (200 + 200_u64.div_ceil(7)));
        assert_eq!(stats.attacks, 8 * 200_u64.div_ceil(7));
    }
}

/// Many workers hammering an explicitly sharded engine: the per-shard
/// stats cells must aggregate to exactly the work submitted — not one
/// query more or less — and every verdict must match the single-threaded
/// engine's.
#[test]
fn sharded_engine_aggregates_exact_stats_under_stress() {
    const WORKERS: usize = 8;
    const BENIGN_PER_WORKER: u64 = 150;
    const ATTACKS_PER_WORKER: u64 = 25;

    let config = JozaConfig { shards: 4, ..JozaConfig::optimized() };
    let joza = Joza::builder().fragments(FRAGS).config(config).build();
    assert_eq!(joza.shard_count(), 4);

    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let joza = &joza;
            s.spawn(move || {
                for i in 0..BENIGN_PER_WORKER {
                    let id = t as u64 * 10_000 + i;
                    let q = format!("SELECT * FROM records WHERE ID={id} LIMIT 5");
                    assert!(joza.check_query(&[&id.to_string()], &q).is_safe());
                }
                for i in 0..ATTACKS_PER_WORKER {
                    let payload = format!("{i} UNION SELECT username()");
                    let q = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
                    assert!(!joza.check_query(&[&payload], &q).is_safe());
                }
            });
        }
    });

    let stats = joza.stats();
    assert_eq!(stats.queries, WORKERS as u64 * (BENIGN_PER_WORKER + ATTACKS_PER_WORKER));
    assert_eq!(stats.attacks, WORKERS as u64 * ATTACKS_PER_WORKER);
}

/// Satellite of the pipeline refactor: with every fast path live at once
/// — model skeletons on one route, a statically-proven taint-free route,
/// unknown routes falling back to dynamic — the per-path counters must
/// partition the total exactly under concurrent load. Before the staged
/// pipeline, fast-path hits and full checks were counted at different
/// layers and could drift.
#[test]
fn path_counters_partition_checks_under_stress() {
    use joza::sqlparse::template::{QueryModelIndex, QueryTemplate, RouteModel, TemplatePart};

    const WORKERS: u64 = 8;
    const ROUNDS: u64 = 100;

    let template = QueryTemplate {
        parts: vec![
            TemplatePart::Lit("SELECT * FROM records WHERE ID=".to_string()),
            TemplatePart::Hole,
            TemplatePart::Lit(" LIMIT 5".to_string()),
        ],
    };
    let mut models = QueryModelIndex::new();
    models.insert("records", RouteModel::build(&[Some(vec![template])]));

    let joza = Joza::builder()
        .fragments(FRAGS)
        .config(JozaConfig { shards: 4, ..JozaConfig::optimized() })
        .query_models(models)
        .taint_free_routes(["static-page"])
        .build();

    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let joza = &joza;
            s.spawn(move || {
                for i in 0..ROUNDS {
                    let id = t * 10_000 + i;
                    let q = format!("SELECT * FROM records WHERE ID={id} LIMIT 5");
                    // Model fast path: the skeleton matches the template.
                    let mut session = joza.session_for("records");
                    session.capture_input("id", &id.to_string());
                    assert!(session.check(&q).is_safe());
                    // Static fast path: statically proven taint-free route.
                    assert!(joza.check_query_on_route("static-page", &[], &q).is_safe());
                    // Unknown route: counted as a miss, checked dynamically.
                    assert!(joza.check_query_on_route("no-such-route", &[], &q).is_safe());
                    // Plain dynamic check, occasionally an attack.
                    if i % 9 == 0 {
                        let payload = format!("{id} UNION SELECT username()");
                        let attack = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
                        assert!(!joza.check_query(&[&payload], &attack).is_safe());
                    } else {
                        assert!(joza.check_query(&[&id.to_string()], &q).is_safe());
                    }
                }
            });
        }
    });

    let stats = joza.stats();
    assert_eq!(stats.queries, WORKERS * ROUNDS * 4);
    assert_eq!(
        stats.model_fast_hits + stats.static_hits + stats.full_checks,
        stats.queries,
        "fast-path hits and full checks must partition the total exactly"
    );
    assert_eq!(stats.model_fast_hits, WORKERS * ROUNDS);
    assert_eq!(stats.static_hits, WORKERS * ROUNDS);
    assert_eq!(stats.full_checks, WORKERS * ROUNDS * 2);
    assert_eq!(stats.route_misses_unknown, WORKERS * ROUNDS);
    assert_eq!(stats.route_misses_incomplete, 0);
    assert_eq!(stats.attacks, WORKERS * ROUNDS.div_ceil(9));
}

/// The shared query cache's counters must be monotone when sampled
/// mid-flight from another thread, and add up exactly once the workers
/// are done: every check does one lookup, and only safe queries insert.
#[test]
fn query_cache_stats_are_monotone_under_contention() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const WORKERS: u64 = 4;
    const ROUNDS: u64 = 120;

    let joza = Joza::builder()
        .fragments(FRAGS)
        .config(JozaConfig { shards: 4, ..JozaConfig::optimized() })
        .build();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // A monitor thread samples the cache stats while workers hammer:
        // no snapshot may ever go backwards.
        let monitor = s.spawn({
            let joza = &joza;
            let done = &done;
            move || {
                let mut last = joza.query_cache_stats();
                let mut samples = 0u64;
                while !done.load(Ordering::Acquire) {
                    let now = joza.query_cache_stats();
                    assert!(now.hits >= last.hits, "hits went backwards");
                    assert!(now.misses >= last.misses, "misses went backwards");
                    assert!(now.inserts >= last.inserts, "inserts went backwards");
                    last = now;
                    samples += 1;
                    std::thread::yield_now();
                }
                samples
            }
        });

        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let joza = &joza;
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        // Every worker checks the same small query set, so
                        // most lookups hit whatever another worker inserted.
                        let id = i % 10;
                        let q = format!("SELECT * FROM records WHERE ID={id} LIMIT 5");
                        assert!(joza.check_query(&[&id.to_string()], &q).is_safe());
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked");
        }
        done.store(true, Ordering::Release);
        let samples = monitor.join().expect("monitor panicked");
        assert!(samples > 0, "monitor never sampled");
    });

    let end = joza.query_cache_stats();
    assert_eq!(end.hits + end.misses, WORKERS * ROUNDS, "one lookup per check");
    assert!(end.inserts <= end.misses, "inserts only on misses");
    assert!(end.hits > 0, "shared cache must be shared: some hits expected");
}

#[test]
fn concurrent_servers_share_one_engine() {
    use joza::lab::build_lab;
    use joza::lab::verify::request_for;

    // One engine, several independent labs (processes in the paper).
    let lab0 = build_lab();
    let joza = Arc::new(Joza::install(&lab0.server.app, JozaConfig::optimized()));
    drop(lab0);

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let joza = Arc::clone(&joza);
            std::thread::spawn(move || {
                let mut lab = build_lab();
                let plugins: Vec<_> = lab.plugins.iter().take(8).cloned().collect();
                for p in &plugins {
                    let resp = lab
                        .server
                        .handle_with(&request_for(p, p.exploit.primary_payload()), joza.as_ref());
                    assert!(resp.denied(), "{}: exploit missed", p.name);
                    let resp =
                        lab.server.handle_with(&request_for(p, &p.benign_value), joza.as_ref());
                    assert!(!resp.blocked, "{}: benign blocked", p.name);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("server thread panicked");
    }
}
