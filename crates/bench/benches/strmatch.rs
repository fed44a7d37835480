//! Criterion micro-benchmarks for the string-matching primitives the
//! paper's §III/§VI cost analysis rests on: Levenshtein variants (NTI's
//! inner loop), Sellers semi-global substring distance vs input/query
//! length, and the three multi-pattern fragment-matching strategies.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use joza_bench::workload::wordpress_fragments;
use joza_strmatch::ahocorasick::AhoCorasick;
use joza_strmatch::levenshtein::{bounded_distance, distance};
use joza_strmatch::mru::{MruScanner, NaiveScanner};
use joza_strmatch::myers::{bounded_myers_substring_distance, myers_substring_distance};
use joza_strmatch::sellers::{
    bounded_substring_distance, naive_substring_distance, substring_distance,
};

fn query(len: usize) -> String {
    let mut q = String::from("SELECT ID, post_title FROM wp_posts WHERE post_status = 'publish'");
    let mut i = 0;
    while q.len() < len {
        q.push_str(&format!(" AND post_author = {i}"));
        i += 1;
    }
    q.truncate(len);
    q
}

fn bench_levenshtein(c: &mut Criterion) {
    let mut g = c.benchmark_group("levenshtein");
    for n in [16usize, 64, 256] {
        let a = "x".repeat(n);
        let b = query(n);
        g.bench_with_input(BenchmarkId::new("full_matrix", n), &n, |bench, _| {
            bench.iter(|| distance(black_box(a.as_bytes()), black_box(b.as_bytes())))
        });
        g.bench_with_input(BenchmarkId::new("bounded_cutoff4", n), &n, |bench, _| {
            bench.iter(|| bounded_distance(black_box(a.as_bytes()), black_box(b.as_bytes()), 4))
        });
    }
    g.finish();
}

fn bench_sellers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sellers_substring_distance");
    let input = "-1 UNION SELECT user_pass FROM wp_users";
    // The paper's O(n²·m²) every-substring baseline, at a size where it is
    // merely slow rather than hopeless — the complexity contrast of §III-A.
    g.bench_function("naive_n2m2_baseline/64", |bench| {
        let q = query(64);
        bench
            .iter(|| naive_substring_distance(black_box(input.as_bytes()), black_box(q.as_bytes())))
    });
    for qlen in [64usize, 256, 1024] {
        let q = query(qlen);
        g.bench_with_input(BenchmarkId::new("full", qlen), &qlen, |bench, _| {
            bench.iter(|| substring_distance(black_box(input.as_bytes()), black_box(q.as_bytes())))
        });
        g.bench_with_input(BenchmarkId::new("bounded", qlen), &qlen, |bench, _| {
            bench.iter(|| {
                bounded_substring_distance(black_box(input.as_bytes()), black_box(q.as_bytes()), 8)
            })
        });
        g.bench_with_input(BenchmarkId::new("myers", qlen), &qlen, |bench, _| {
            bench.iter(|| {
                myers_substring_distance(black_box(input.as_bytes()), black_box(q.as_bytes()))
            })
        });
        g.bench_with_input(BenchmarkId::new("myers_bounded", qlen), &qlen, |bench, _| {
            bench.iter(|| {
                bounded_myers_substring_distance(
                    black_box(input.as_bytes()),
                    black_box(q.as_bytes()),
                    8,
                )
            })
        });
    }
    // The multi-word regime: a 100-byte pattern spans two kernel blocks.
    let long_input = "-1 UNION SELECT user_login, user_pass, user_email, user_registered \
                      FROM wp_users WHERE ID=1 -- -";
    let q = query(1024);
    g.bench_function("full_multiword_100", |bench| {
        bench.iter(|| substring_distance(black_box(long_input.as_bytes()), black_box(q.as_bytes())))
    });
    g.bench_function("myers_multiword_100", |bench| {
        bench.iter(|| {
            myers_substring_distance(black_box(long_input.as_bytes()), black_box(q.as_bytes()))
        })
    });
    g.finish();
}

fn bench_fragment_matchers(c: &mut Criterion) {
    let fragments = wordpress_fragments(60);
    let q = "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1";
    let mut g = c.benchmark_group("fragment_matching");
    g.bench_function(format!("naive_scan_{}_fragments", fragments.len()), |b| {
        let scanner = NaiveScanner::new(&fragments);
        b.iter(|| scanner.find_all(black_box(q.as_bytes())))
    });
    g.bench_function(format!("mru_scan_{}_fragments", fragments.len()), |b| {
        let mut scanner = MruScanner::new(&fragments);
        // Warm the MRU order the way the daemon's steady state would.
        let _ = scanner.find_all(q.as_bytes());
        b.iter(|| scanner.find_all(black_box(q.as_bytes())))
    });
    g.bench_function(format!("aho_corasick_{}_fragments", fragments.len()), |b| {
        let ac = AhoCorasick::new(&fragments);
        b.iter(|| ac.find_all(black_box(q.as_bytes())))
    });
    g.bench_function("aho_corasick_build", |b| b.iter(|| AhoCorasick::new(black_box(&fragments))));
    g.finish();
}

criterion_group!(benches, bench_levenshtein, bench_sellers, bench_fragment_matchers);
criterion_main!(benches);
