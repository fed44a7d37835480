//! Deployment-mode and cache consistency: whatever the daemon mode or
//! cache configuration, verdicts must be identical — caches and IPC are
//! performance features, never security features.

use joza::core::{Joza, JozaConfig};
use joza::lab::verify::request_for;
use joza::lab::{build_lab, corpus};
use joza::pti::daemon::{DaemonMode, PtiComponent, PtiComponentConfig};
use joza::pti::{MatcherKind, PtiConfig};

const FRAGS: &[&str] = &[
    "id",
    "SELECT * FROM records WHERE ID=",
    " LIMIT 5",
    "SELECT option_value FROM wp_options WHERE option_name = '",
    "' LIMIT 1",
];

fn queries() -> Vec<String> {
    let mut q = vec![
        "SELECT * FROM records WHERE ID=42 LIMIT 5".to_string(),
        "SELECT * FROM records WHERE ID=42 LIMIT 5".to_string(), // repeat: cache hit
        "SELECT * FROM records WHERE ID=77 LIMIT 5".to_string(), // same shape
        "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5".to_string(),
        "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5".to_string(),
        "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1".to_string(),
        "SELECT * FROM records WHERE ID=1 OR 1=1 LIMIT 5".to_string(),
        "SELECT * FROM records WHERE ID=1 /* stuffed''''' */ LIMIT 5".to_string(),
    ];
    for i in 0..20 {
        q.push(format!("SELECT * FROM records WHERE ID={i} LIMIT 5"));
    }
    q
}

#[test]
fn all_daemon_modes_and_caches_agree() {
    let configs: Vec<PtiComponentConfig> = vec![
        PtiComponentConfig {
            mode: DaemonMode::InProcess,
            query_cache: false,
            structure_cache: false,
            pti: PtiConfig {
                matcher: MatcherKind::AhoCorasick,
                parse_first: false,
                ..PtiConfig::default()
            },
            ..Default::default()
        },
        PtiComponentConfig { mode: DaemonMode::InProcess, ..PtiComponentConfig::default() },
        PtiComponentConfig {
            mode: DaemonMode::LongLived,
            query_cache: false,
            structure_cache: false,
            pti: PtiConfig::default(),
            ..Default::default()
        },
        PtiComponentConfig::default(),
        PtiComponentConfig { mode: DaemonMode::PerQuery, ..PtiComponentConfig::default() },
        PtiComponentConfig::unoptimized(),
    ];
    // Reference: direct in-process analysis, no caches, Aho-Corasick.
    let mut reference = PtiComponent::new(FRAGS, configs[0].clone());
    let expected: Vec<bool> = queries().iter().map(|q| reference.check(q).safe).collect();

    for cfg in &configs[1..] {
        let mut component = PtiComponent::new(FRAGS, cfg.clone());
        let got: Vec<bool> = queries().iter().map(|q| component.check(q).safe).collect();
        assert_eq!(got, expected, "verdict drift under {cfg:?}");
    }
}

#[test]
fn all_matchers_agree_on_the_testbed() {
    let lab = build_lab();
    let mut set = joza::phpsim::fragments::FragmentSet::new();
    for src in lab.server.app.all_sources() {
        set.add_source(src);
    }
    use joza::pti::analyzer::PtiAnalyzer;
    let queries = [
        "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1",
        "SELECT * FROM wp_posts WHERE ID = -1 UNION SELECT user_pass FROM wp_users",
        "SELECT name, info FROM p0_a_to_z_category_listing WHERE hidden=0 AND cat=1 OR 1=1",
    ];
    for q in queries {
        let verdicts: Vec<bool> = [MatcherKind::Naive, MatcherKind::Mru, MatcherKind::AhoCorasick]
            .into_iter()
            .map(|m| {
                PtiAnalyzer::from_fragments(
                    set.iter(),
                    PtiConfig { matcher: m, ..PtiConfig::default() },
                )
                .analyze(q)
                .is_attack()
            })
            .collect();
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{q}: {verdicts:?}");
    }
}

#[test]
fn verdicts_stable_across_repeated_checks_with_caches() {
    // An attack must stay detected on every re-check (nothing poisons the
    // caches), and a safe query must stay safe.
    let joza = Joza::builder().fragments(FRAGS).config(JozaConfig::optimized()).build();
    for _ in 0..5 {
        assert!(joza.check_query(&["42"], "SELECT * FROM records WHERE ID=42 LIMIT 5").is_safe());
        let p = "-1 UNION SELECT username()";
        assert!(!joza
            .check_query(&[p], &format!("SELECT * FROM records WHERE ID={p} LIMIT 5"))
            .is_safe());
    }
    let stats = joza.stats();
    assert_eq!(stats.queries, 10);
    assert_eq!(stats.attacks, 5);
}

#[test]
fn gate_outcomes_identical_across_modes_on_real_exploits() {
    let mut lab = build_lab();
    let plugins: Vec<corpus::VulnPlugin> = lab.plugins.iter().take(10).cloned().collect();
    let mut outcomes: Vec<Vec<bool>> = Vec::new();
    for mode in [DaemonMode::InProcess, DaemonMode::LongLived, DaemonMode::PerQuery] {
        let mut cfg = JozaConfig::optimized();
        cfg.pti.mode = mode;
        let joza = Joza::install(&lab.server.app, cfg);
        let row: Vec<bool> = plugins
            .iter()
            .map(|p| {
                let resp =
                    lab.server.handle_with(&request_for(p, p.exploit.primary_payload()), &joza);
                resp.denied()
            })
            .collect();
        outcomes.push(row);
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[1], outcomes[2]);
    assert!(outcomes[0].iter().all(|&d| d), "every exploit detected in every mode");
}
