//! Criterion micro-benchmarks for the allocation-free hot-path kernels:
//! the lowercase fold, the SWAR classifier scans against their scalar
//! references, the arena-backed lexer, and the interned-symbol skeleton
//! render + fingerprint — each at the query lengths the serving
//! workloads actually see.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use joza_sqlparse::fingerprint::{fingerprint_syms_with, render_skeleton_syms_into};
use joza_sqlparse::lexer::{lex, lex_into};
use joza_sqlparse::symbol::SymId;
use joza_sqlparse::token::Token;
use joza_strmatch::normalize::to_lower_into;
use joza_strmatch::swar;

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

/// Mixed-case bytes so the fold actually rewrites (the all-lowercase
/// fast path would measure only the scan).
fn mixed_case(len: usize) -> Vec<u8> {
    query(len).into_bytes()
}

fn bench_fold(c: &mut Criterion) {
    let mut g = c.benchmark_group("fold_lower");
    for n in [32usize, 256, 2048] {
        let src = mixed_case(n);
        let mut out = Vec::with_capacity(n);
        g.bench_with_input(BenchmarkId::new("to_lower_into", n), &n, |bench, _| {
            bench.iter(|| {
                out.clear();
                to_lower_into(black_box(&src), &mut out);
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_classify(c: &mut Criterion) {
    let mut g = c.benchmark_group("swar_classify");
    let ident: Vec<u8> = b"wp_post_author_meta_value_2014".repeat(8);
    g.bench_function("scan_ident/swar", |bench| {
        bench.iter(|| swar::scan_ident(black_box(&ident), 0))
    });
    g.bench_function("scan_ident/scalar", |bench| {
        bench.iter(|| swar::scan_ident_scalar(black_box(&ident), 0))
    });
    let haystack = query(1024).into_bytes();
    g.bench_function("find_byte/quote_1k", |bench| {
        bench.iter(|| swar::find_byte(black_box(&haystack), 0, b'\''))
    });
    g.finish();
}

fn bench_lexer(c: &mut Criterion) {
    let mut g = c.benchmark_group("lexer");
    for n in [64usize, 256, 1024] {
        let q = query(n);
        g.bench_with_input(BenchmarkId::new("lex_fresh_vec", n), &n, |bench, _| {
            bench.iter(|| black_box(lex(black_box(&q))).len())
        });
        let mut reused: Vec<Token> = Vec::new();
        g.bench_with_input(BenchmarkId::new("lex_into_reused", n), &n, |bench, _| {
            bench.iter(|| {
                lex_into(black_box(&q), &mut reused);
                black_box(reused.len())
            })
        });
    }
    g.finish();
}

fn bench_skeleton(c: &mut Criterion) {
    let mut g = c.benchmark_group("skeleton");
    let q = query(256);
    let toks = lex(&q);
    let mut syms: Vec<SymId> = Vec::new();
    g.bench_function("render_syms_into/256", |bench| {
        bench.iter(|| {
            syms.clear();
            render_skeleton_syms_into(black_box(&q), &toks, &mut syms);
            black_box(syms.len())
        })
    });
    render_skeleton_syms_into(&q, &toks, &mut syms);
    let mut scratch: Vec<SymId> = Vec::new();
    g.bench_function("fingerprint_syms/256", |bench| {
        bench.iter(|| fingerprint_syms_with(black_box(&syms), &mut scratch))
    });
    g.finish();
}

criterion_group!(benches, bench_fold, bench_classify, bench_lexer, bench_skeleton);
criterion_main!(benches);
