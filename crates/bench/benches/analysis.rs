//! Criterion benchmarks for the analysis pipeline: SQL parse +
//! fingerprint, NTI and PTI single-query analysis, cache hit paths, and
//! the full hybrid gate check — the per-query costs behind §VI's
//! request-level numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use joza_bench::workload::wordpress_fragments;
use joza_core::{Joza, JozaConfig};
use joza_nti::{NtiAnalyzer, NtiConfig};
use joza_pti::analyzer::{PtiAnalyzer, PtiConfig};
use joza_pti::cache::VerdictCache;
use joza_pti::daemon::{PtiComponent, PtiComponentConfig};
use joza_sqlparse::fingerprint::{fingerprint, skeleton};
use joza_sqlparse::parser::parse;

const BENIGN: &str = "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1";
const ATTACK: &str = "SELECT * FROM wp_posts WHERE ID=-1 UNION SELECT user_pass FROM wp_users";

fn bench_parse_fingerprint(c: &mut Criterion) {
    let mut g = c.benchmark_group("sqlparse");
    g.bench_function("parse_benign", |b| b.iter(|| parse(black_box(BENIGN))));
    g.bench_function("parse_attack", |b| b.iter(|| parse(black_box(ATTACK))));
    g.bench_function("skeleton", |b| b.iter(|| skeleton(black_box(BENIGN))));
    g.bench_function("fingerprint", |b| b.iter(|| fingerprint(black_box(BENIGN))));
    g.finish();
}

fn bench_nti(c: &mut Criterion) {
    let nti = NtiAnalyzer::new(NtiConfig::default());
    let mut g = c.benchmark_group("nti_analyze");
    g.bench_function("benign_small_inputs", |b| {
        b.iter(|| nti.analyze(black_box(&["siteurl"]), black_box(BENIGN)))
    });
    g.bench_function("attack_verbatim_input", |b| {
        b.iter(|| {
            nti.analyze(black_box(&["-1 UNION SELECT user_pass FROM wp_users"]), black_box(ATTACK))
        })
    });
    let big_input = "lorem ipsum ".repeat(100);
    let big_query = format!("SELECT ID FROM wp_posts WHERE post_content LIKE '%{big_input}%'");
    g.bench_function("large_input_large_query", |b| {
        b.iter(|| nti.analyze(black_box(&[big_input.as_str()]), black_box(&big_query)))
    });
    g.finish();
}

fn bench_pti(c: &mut Criterion) {
    let frags = wordpress_fragments(60);
    let mut g = c.benchmark_group("pti_analyze");
    for (name, cfg) in [
        ("optimized_mru_parse_first", PtiConfig::default()),
        ("unoptimized_naive", PtiConfig::unoptimized()),
    ] {
        let analyzer = PtiAnalyzer::from_fragments(frags.clone(), cfg);
        // Warm MRU order.
        let _ = analyzer.analyze(BENIGN);
        g.bench_function(format!("{name}/benign"), |b| {
            b.iter(|| analyzer.analyze(black_box(BENIGN)))
        });
        g.bench_function(format!("{name}/attack"), |b| {
            b.iter(|| analyzer.analyze(black_box(ATTACK)))
        });
    }
    g.finish();
}

fn bench_caches(c: &mut Criterion) {
    let mut g = c.benchmark_group("pti_caches");
    let qc = VerdictCache::new();
    qc.insert_safe(BENIGN);
    g.bench_function("query_cache_hit", |b| b.iter(|| qc.lookup(black_box(BENIGN))));
    g.bench_function("query_cache_miss", |b| b.iter(|| qc.lookup(black_box(ATTACK))));
    let sc = VerdictCache::new();
    sc.insert_safe(&fingerprint(BENIGN));
    g.bench_function("structure_cache_hit_same_shape", |b| {
        b.iter(|| {
            sc.lookup(&fingerprint(black_box(
                "SELECT option_value FROM wp_options WHERE option_name = 'blogname' LIMIT 1",
            )))
        })
    });
    g.finish();
}

fn bench_hybrid_gate(c: &mut Criterion) {
    let frags = wordpress_fragments(60);
    let mut g = c.benchmark_group("hybrid_check_query");
    let joza = Joza::builder().fragments(&frags).config(JozaConfig::optimized()).build();
    let _ = joza.check_query(&["siteurl"], BENIGN); // warm caches
    g.bench_function("daemon_cached_benign", |b| {
        b.iter(|| joza.check_query(black_box(&["siteurl"]), black_box(BENIGN)))
    });
    let inproc = Joza::builder()
        .fragments(&frags)
        .config(JozaConfig {
            pti: PtiComponentConfig {
                mode: joza_pti::daemon::DaemonMode::InProcess,
                ..PtiComponentConfig::default()
            },
            ..JozaConfig::default()
        })
        .build();
    let _ = inproc.check_query(&["siteurl"], BENIGN);
    g.bench_function("in_process_cached_benign", |b| {
        b.iter(|| inproc.check_query(black_box(&["siteurl"]), black_box(BENIGN)))
    });
    g.bench_function("daemon_attack", |b| {
        b.iter(|| {
            joza.check_query(
                black_box(&["-1 UNION SELECT user_pass FROM wp_users"]),
                black_box(ATTACK),
            )
        })
    });
    g.finish();
}

fn bench_daemon_roundtrip(c: &mut Criterion) {
    let frags = wordpress_fragments(60);
    let mut g = c.benchmark_group("daemon");
    let mut component = PtiComponent::new(
        &frags,
        PtiComponentConfig { query_cache: false, ..PtiComponentConfig::default() },
    );
    let _ = component.check(BENIGN);
    g.bench_function("roundtrip_structure_cache_hit", |b| {
        b.iter(|| component.check(black_box(BENIGN)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parse_fingerprint,
    bench_nti,
    bench_pti,
    bench_caches,
    bench_hybrid_gate,
    bench_daemon_roundtrip
);
criterion_main!(benches);
