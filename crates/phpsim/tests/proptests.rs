//! Property-based tests for the PHP-subset interpreter and the fragment
//! extractor — the two halves whose agreement PTI's soundness rests on.

use joza_phpsim::fragments::{extract_fragments, FragmentSet};
use joza_phpsim::interp::{Host, Interp, QueryOutcome};
use joza_phpsim::lexer::lex_php;
use joza_phpsim::parser::parse_program;
use proptest::prelude::*;

/// A host that records queries and returns no rows.
#[derive(Default)]
struct RecordingHost {
    queries: Vec<String>,
}

impl Host for RecordingHost {
    fn query(&mut self, sql: &str) -> QueryOutcome {
        self.queries.push(sql.to_string());
        QueryOutcome::Rows(Vec::new())
    }
}

proptest! {
    /// The lexer and parser never panic on arbitrary input.
    #[test]
    fn frontend_is_total(src in ".{0,300}") {
        let _ = lex_php(&src);
        let _ = parse_program(&src);
    }

    /// Every extracted fragment is a substring of some string literal in
    /// the source (after escape processing the fragment text appears in
    /// the decoded literal).
    #[test]
    fn fragments_come_from_literals(
        lits in proptest::collection::vec("[a-zA-Z =,']{1,25}", 1..5),
    ) {
        let src: String = lits
            .iter()
            .enumerate()
            .map(|(i, l)| format!("$v{i} = \"{}\";\n", l.replace('"', "")))
            .collect();
        let frags = extract_fragments(&src);
        for f in &frags {
            prop_assert!(
                lits.iter().any(|l| l.replace('"', "").contains(f.as_str())),
                "fragment {f:?} not found in any literal"
            );
        }
    }

    /// The central PTI soundness property on straight-line code: a query
    /// built purely from program literals is fully covered by the
    /// program's own fragment set.
    #[test]
    fn literal_only_queries_are_fragment_covered(id in 0i64..100000) {
        let src = format!(
            r#"
            $q = "SELECT name FROM users WHERE id = " . {id} . " LIMIT 1";
            $r = mysql_query($q);
            "#
        );
        let program = parse_program(&src).expect("valid program");
        let mut host = RecordingHost::default();
        let mut interp = Interp::new(&mut host);
        interp.run(&program).expect("runs");
        drop(interp);
        prop_assert_eq!(host.queries.len(), 1);

        let mut set = FragmentSet::new();
        set.add_source(&src);
        // Every non-numeric part of the query must be inside a fragment.
        let query = &host.queries[0];
        let frags: Vec<&str> = set.iter().collect();
        for part in ["SELECT name FROM users WHERE id = ", " LIMIT 1"] {
            prop_assert!(frags.iter().any(|f| f.contains(part)), "{part:?} missing from {frags:?}");
            prop_assert!(query.contains(part));
        }
    }

    /// String concatenation in the interpreter matches Rust's.
    #[test]
    fn concat_semantics(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        let src = format!(r#"$x = "{a}" . "{b}"; echo $x;"#);
        let program = parse_program(&src).expect("valid");
        let mut host = RecordingHost::default();
        let mut interp = Interp::new(&mut host);
        interp.run(&program).expect("runs");
        prop_assert_eq!(interp.output(), format!("{a}{b}"));
    }

    /// `intval` clamps arbitrary input to its numeric prefix — the
    /// sanitization some plugins rely on (and others forget).
    #[test]
    fn intval_builtin(n in -10000i64..10000, junk in "[a-z]{0,8}") {
        let src = r#"$x = intval($_GET['v']); echo $x;"#;
        let program = parse_program(src).expect("valid");
        let mut host = RecordingHost::default();
        let mut interp = Interp::new(&mut host);
        interp.set_get_param("v", &format!("{n}{junk}"));
        interp.run(&program).expect("runs");
        prop_assert_eq!(interp.output(), n.to_string());
    }

    /// addslashes escaping matches PHP: ' " \ get a backslash.
    #[test]
    fn addslashes_builtin(s in "[a-z'\"\\\\]{0,20}") {
        let src = r#"$x = addslashes($_GET['v']); echo $x;"#;
        let program = parse_program(src).expect("valid");
        let mut host = RecordingHost::default();
        let mut interp = Interp::new(&mut host);
        interp.set_get_param("v", &s);
        interp.run(&program).expect("runs");
        let expected: String = s
            .chars()
            .flat_map(|c| match c {
                '\'' | '"' | '\\' => vec!['\\', c],
                c => vec![c],
            })
            .collect();
        prop_assert_eq!(interp.output(), expected);
    }

    /// base64 round-trips through the interpreter builtins.
    #[test]
    fn base64_roundtrip(s in "[ -~]{0,40}") {
        let src = r#"echo base64_decode(base64_encode($_GET['v']));"#;
        let program = parse_program(src).expect("valid");
        let mut host = RecordingHost::default();
        let mut interp = Interp::new(&mut host);
        interp.set_get_param("v", &s);
        interp.run(&program).expect("runs");
        prop_assert_eq!(interp.output(), s);
    }
}

/// Source text dense in the bytes the PHP lexer and the fragment
/// extractor branch on — quotes, backslashes, `$`, braces, `%`, `:` — plus
/// multi-byte characters, so unterminated literals, interpolations and a
/// backslash before a multi-byte character come up in most cases.
const FUZZ_SOURCE: &str = r#"[''""\\\\$${}%%::sa_0 é€𝄞;=/*#?>.]{0,160}"#;
/// String-literal bodies in the same spirit, for sources that mostly lex.
const FUZZ_LITERAL: &str = r#"[\\$${}%%::sdf_0-9a é€𝄞 ]{0,30}"#;

/// One assignment per body, alternating double- and single-quoted.
fn literal_program(bodies: &[String]) -> String {
    bodies
        .iter()
        .enumerate()
        .map(
            |(i, b)| {
                if i % 2 == 0 {
                    format!("$v{i} = \"{b}\";\n")
                } else {
                    format!("$v{i} = '{b}';\n")
                }
            },
        )
        .collect()
}

proptest! {
    /// The PHP front end never panics, whatever the input.
    #[test]
    fn fuzz_frontend_never_panics(srcs in proptest::collection::vec(FUZZ_SOURCE, 16..32)) {
        for src in &srcs {
            let _ = lex_php(src);
            let _ = parse_program(src);
        }
    }

    /// Fragment extraction never panics, keeps only non-empty fragments,
    /// and the installer's bulk path agrees with file-by-file extraction.
    #[test]
    fn fuzz_fragment_extraction_never_panics(
        raw in proptest::collection::vec(FUZZ_SOURCE, 8..16),
        bodies in proptest::collection::vec(proptest::collection::vec(FUZZ_LITERAL, 1..6), 8..16),
    ) {
        let srcs: Vec<String> =
            raw.into_iter().chain(bodies.iter().map(|b| literal_program(b))).collect();
        let mut set = FragmentSet::new();
        for src in &srcs {
            set.add_source(src);
        }
        prop_assert!(set.iter().all(|f| !f.is_empty()));
        let sources: Vec<&str> = srcs.iter().map(String::as_str).collect();
        prop_assert_eq!(FragmentSet::from_sources(&sources), set);
    }
}

/// Fragment extraction splits interpolated strings at placeholders into
/// multiple fragments (§IV-A's format-string rule).
#[test]
fn interpolation_splits_fragments() {
    let src = r#"$q = "SELECT * from users where id = $id and password=$password";"#;
    let frags = extract_fragments(src);
    assert!(frags.iter().any(|f| f.contains("SELECT * from users where id = ")), "{frags:?}");
    assert!(frags.iter().any(|f| f.contains("and password=")), "{frags:?}");
    assert!(
        !frags.iter().any(|f| f.contains("$id")),
        "placeholder must not survive into fragments: {frags:?}"
    );
}

/// Only fragments containing at least one valid SQL token are retained —
/// literals that lex to nothing but unknown bytes are dropped. (The rule
/// is permissive on purpose: identifiers and `?` placeholders are valid
/// SQL tokens, so most human text survives, as in the paper's Table III.)
#[test]
fn non_sql_literals_are_dropped() {
    let mut set = FragmentSet::new();
    set.add_source(r#"$x = "{}"; $y = "SELECT"; "#);
    let frags: Vec<&str> = set.iter().collect();
    assert!(frags.iter().any(|f| f.contains("SELECT")));
    assert!(!frags.iter().any(|f| f.contains("{}")), "{frags:?}");
}
