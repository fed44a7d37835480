//! Query structure fingerprints — the paper's *query structure cache* key.
//!
//! §IV-C1/§VI-A: "the query structure cache caches abstract syntax trees of
//! parsed queries without storing contents of data nodes". A fingerprint is
//! a hash of the token structure of a query with every data literal erased.
//! Two queries share a fingerprint exactly when they differ only in literal
//! *contents*; any injected token (keyword, operator, comment, or an escape
//! out of a string) changes the structure and therefore the fingerprint.
//!
//! The caches in `joza-pti` use fingerprints so that a write query like
//! `INSERT INTO comments VALUES ('…user text…')` only pays full analysis
//! once per *shape*, not once per comment.
//!
//! # List collapsing
//!
//! Benign applications routinely build variable-length literal lists —
//! `WHERE id IN (1,2,3)` from a loop, or multi-row
//! `INSERT … VALUES (…),(…)` batches. If every list length had its own
//! skeleton, the structure cache (and the query models built on top of it
//! in [`crate::template`]) would never converge. [`skeleton`] therefore
//! collapses:
//!
//! * any parenthesized group containing **only** literals and commas to the
//!   canonical form `( ?* )`, and
//! * a run of such collapsed groups following `VALUES` to a single tuple.
//!
//! Collapsing only ever merges *literal-only* regions, so an injected
//! keyword, operator, or comment inside a list still changes the skeleton:
//! `IN (1,2,3)` and `IN (1) OR 1=1` do not collide.

use crate::keywords::canonical;
use crate::lexer::lex;
use crate::symbol::{
    intern, SymId, SYM_COLLAPSED, SYM_COMMA, SYM_COMMENT, SYM_HOLE, SYM_LPAREN, SYM_RPAREN,
    SYM_VALUES,
};
use crate::token::TokenKind;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The placeholder a literal token renders to in a skeleton.
pub const HOLE: &str = "?";
/// The canonical rendering of a collapsed literal list (`IN (1,2,3)` and
/// `IN (7)` both render their parenthesized part as `( ?* )`).
pub const COLLAPSED: &str = "?*";

/// Renders one token of `query` in skeleton normal form: literals become
/// [`HOLE`], keywords are uppercased, comments collapse to `/*c*/`, quoted
/// identifiers lose their backticks.
pub fn render_token(query: &str, t: &crate::token::Token) -> String {
    match t.kind {
        TokenKind::Number | TokenKind::StringLit => HOLE.to_string(),
        TokenKind::Keyword => t.text(query).to_ascii_uppercase(),
        TokenKind::Comment => "/*c*/".to_string(),
        TokenKind::QuotedIdentifier => t.text(query).trim_matches('`').to_string(),
        _ => t.text(query).to_string(),
    }
}

/// Renders one token of `query` as an interned symbol — the hot-path
/// counterpart of [`render_token`]: byte-identical renderings by
/// construction ([`crate::symbol`] is injective), but a token whose
/// rendering has been seen before (after warmup, all of them) allocates
/// nothing. Keywords render through [`canonical`] so not even the
/// uppercased copy is built.
pub fn render_token_sym(query: &str, t: &crate::token::Token) -> SymId {
    match t.kind {
        TokenKind::Number | TokenKind::StringLit => SYM_HOLE,
        TokenKind::Keyword => match canonical(t.text(query)) {
            Some(c) => intern(c),
            // Unreachable from the lexer (Keyword implies table hit), but
            // stay total for hand-built tokens: match `render_token`.
            None => intern(&t.text(query).to_ascii_uppercase()),
        },
        TokenKind::Comment => SYM_COMMENT,
        TokenKind::QuotedIdentifier => intern(t.text(query).trim_matches('`')),
        _ => intern(t.text(query)),
    }
}

/// Renders the raw (uncollapsed) symbol skeleton of already-lexed
/// `tokens` into `out` — the allocation-free skeleton entry point: `out`
/// is a recycled scratch buffer and every symbol lookup is a hash probe.
pub fn render_skeleton_syms_into(
    query: &str,
    tokens: &[crate::token::Token],
    out: &mut Vec<SymId>,
) {
    out.reserve(tokens.len());
    out.extend(tokens.iter().map(|t| render_token_sym(query, t)));
}

/// The raw symbol skeleton of `query` as a fresh vector (convenience
/// wrapper over [`render_skeleton_syms_into`] for cold paths and tests).
pub fn raw_skeleton_syms(query: &str) -> Vec<SymId> {
    let mut out = Vec::new();
    render_skeleton_syms_into(query, &lex(query), &mut out);
    out
}

/// The skeleton token sequence of `query` **without** list collapsing: one
/// normalized string per lexed token, in order.
///
/// This is the raw form the [`crate::template`] automata match against —
/// matching on uncollapsed tokens keeps star groups aligned with what the
/// application source actually concatenates.
pub fn raw_skeleton_tokens(query: &str) -> Vec<String> {
    render_skeleton(query, &lex(query))
}

/// [`raw_skeleton_tokens`] over an already-lexed token stream — the
/// parse-once entry point: callers that hold the query's tokens (e.g. a
/// `QueryArtifacts` cache) render the skeleton without lexing again.
pub fn render_skeleton(query: &str, tokens: &[crate::token::Token]) -> Vec<String> {
    tokens.iter().map(|t| render_token(query, t)).collect()
}

/// True if `tok` is a skeleton rendering of a data literal.
fn is_hole(tok: &str) -> bool {
    tok == HOLE
}

/// Collapses literal-only parenthesized groups (`( ? , ? , ? )` → `( ?* )`)
/// and then runs of collapsed tuples after `VALUES` to a single tuple.
fn collapse(tokens: Vec<String>) -> Vec<String> {
    // Pass 1: literal-only paren groups become `( ?* )`.
    let mut out: Vec<String> = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i] == "(" {
            // Find the matching close paren at depth 0 for this group and
            // check the region is exclusively literals and commas.
            let mut j = i + 1;
            let mut literal_only = false;
            let mut saw_literal = false;
            while j < tokens.len() {
                let t = &tokens[j];
                if t == ")" {
                    literal_only = saw_literal;
                    break;
                }
                if is_hole(t) {
                    saw_literal = true;
                } else if t != "," {
                    break;
                }
                j += 1;
            }
            if literal_only {
                out.push("(".to_string());
                out.push(COLLAPSED.to_string());
                out.push(")".to_string());
                i = j + 1;
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    // Pass 2: `VALUES ( ?* ) , ( ?* ) , …` becomes `VALUES ( ?* )`.
    let mut folded: Vec<String> = Vec::with_capacity(out.len());
    let mut i = 0;
    while i < out.len() {
        folded.push(out[i].clone());
        if out[i] == "VALUES" {
            let tuple = |k: usize| {
                out.get(k).map(String::as_str) == Some("(")
                    && out.get(k + 1).map(String::as_str) == Some(COLLAPSED)
                    && out.get(k + 2).map(String::as_str) == Some(")")
            };
            if tuple(i + 1) {
                folded.extend(["(".to_string(), COLLAPSED.to_string(), ")".to_string()]);
                let mut k = i + 4;
                while out.get(k).map(String::as_str) == Some(",") && tuple(k + 1) {
                    k += 4;
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    folded
}

/// The skeleton token sequence of `query` with variable-length literal
/// lists collapsed to canonical form (see the module docs).
pub fn skeleton_tokens(query: &str) -> Vec<String> {
    collapse(raw_skeleton_tokens(query))
}

/// List collapsing (`collapse`) over interned symbols: identical
/// two-pass logic, but
/// every comparison is a `u32` equality against the pre-seeded
/// punctuation/hole/`VALUES` constants and nothing is cloned — `out` is
/// a recycled scratch buffer.
pub fn collapse_syms_into(raw: &[SymId], out: &mut Vec<SymId>) {
    // Pass 1: literal-only paren groups become `( ?* )`. Written into
    // `out`, then pass 2 folds `VALUES` tuple runs in place.
    out.reserve(raw.len());
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == SYM_LPAREN {
            let mut j = i + 1;
            let mut literal_only = false;
            let mut saw_literal = false;
            while j < raw.len() {
                let t = raw[j];
                if t == SYM_RPAREN {
                    literal_only = saw_literal;
                    break;
                }
                if t == SYM_HOLE {
                    saw_literal = true;
                } else if t != SYM_COMMA {
                    break;
                }
                j += 1;
            }
            if literal_only {
                out.extend([SYM_LPAREN, SYM_COLLAPSED, SYM_RPAREN]);
                i = j + 1;
                continue;
            }
        }
        out.push(raw[i]);
        i += 1;
    }
    // Pass 2: `VALUES ( ?* ) , ( ?* ) , …` becomes `VALUES ( ?* )`.
    // Compact `out` in place with a write cursor: the kept prefix only
    // ever shrinks, so reads stay ahead of writes.
    let tuple = |v: &[SymId], k: usize| {
        v.get(k) == Some(&SYM_LPAREN)
            && v.get(k + 1) == Some(&SYM_COLLAPSED)
            && v.get(k + 2) == Some(&SYM_RPAREN)
    };
    let mut w = 0;
    let mut i = 0;
    while i < out.len() {
        let s = out[i];
        out[w] = s;
        w += 1;
        i += 1;
        if s == SYM_VALUES && tuple(out, i) {
            out[w] = SYM_LPAREN;
            out[w + 1] = SYM_COLLAPSED;
            out[w + 2] = SYM_RPAREN;
            w += 3;
            let mut k = i + 3;
            while out.get(k) == Some(&SYM_COMMA) && tuple(out, k + 1) {
                k += 4;
            }
            i = k;
        }
    }
    out.truncate(w);
}

/// Hashes a **collapsed** symbol skeleton to a 64-bit fingerprint. This
/// is the single fingerprint definition in the process: the string entry
/// points ([`fingerprint`], [`fingerprint_of`]) intern and collapse into
/// this same hash, so all caches agree. Fingerprints are meaningful only
/// within one process: symbol ids depend on first-seen order, and the
/// SipHash key is a per-process secret, so a shape whose fingerprint
/// collides with another's cannot be searched for offline.
pub fn fingerprint_collapsed_syms(collapsed: &[SymId]) -> u64 {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEY.get_or_init(RandomState::new).build_hasher();
    for id in collapsed {
        h.write_u32(id.index());
    }
    h.write_usize(collapsed.len());
    h.finish()
}

/// The fingerprint of a **raw** (uncollapsed) symbol skeleton, using
/// `scratch` for the collapsed form — the allocation-free parse-once
/// entry point used by the per-check artifact cache.
pub fn fingerprint_syms_with(raw: &[SymId], scratch: &mut Vec<SymId>) -> u64 {
    scratch.clear();
    collapse_syms_into(raw, scratch);
    fingerprint_collapsed_syms(scratch)
}

/// Renders the structural skeleton of a query: every token in order, with
/// literal contents replaced by `?`, keywords/identifiers normalized, and
/// literal lists collapsed so benign list-length variation shares one
/// skeleton.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::fingerprint::skeleton;
///
/// let a = skeleton("SELECT * FROM t WHERE id = 42");
/// let b = skeleton("select  *  from t where id = 99");
/// assert_eq!(a, b);
///
/// let attacked = skeleton("SELECT * FROM t WHERE id = 42 OR 1=1");
/// assert_ne!(a, attacked);
///
/// // List-length variation collapses…
/// assert_eq!(
///     skeleton("SELECT * FROM t WHERE id IN (1,2,3)"),
///     skeleton("SELECT * FROM t WHERE id IN (7)"),
/// );
/// // …but injected structure does not.
/// assert_ne!(
///     skeleton("SELECT * FROM t WHERE id IN (1,2,3)"),
///     skeleton("SELECT * FROM t WHERE id IN (1) OR 1=1"),
/// );
/// ```
pub fn skeleton(query: &str) -> String {
    skeleton_tokens(query).join(" ")
}

/// The collapsed skeleton string rendered from a raw (uncollapsed)
/// skeleton token sequence — the parse-once counterpart of [`skeleton`].
pub fn skeleton_of(raw: &[String]) -> String {
    collapse(raw.to_vec()).join(" ")
}

/// The 64-bit fingerprint of a raw skeleton token sequence — the
/// parse-once counterpart of [`fingerprint`]: `fingerprint_of(&raw_skeleton_tokens(q))`
/// equals `fingerprint(q)` for every query. Interns each rendering and
/// defers to the symbol-based hash, so string- and symbol-entry callers
/// share one fingerprint space.
pub fn fingerprint_of(raw: &[String]) -> u64 {
    let syms: Vec<SymId> = raw.iter().map(|s| intern(s)).collect();
    fingerprint_syms_with(&syms, &mut Vec::new())
}

/// Hashes the [`skeleton`] of a query to a 64-bit fingerprint.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::fingerprint::fingerprint;
///
/// assert_eq!(
///     fingerprint("SELECT * FROM t WHERE id = 1"),
///     fingerprint("SELECT * FROM t WHERE id = 2"),
/// );
/// assert_ne!(
///     fingerprint("SELECT * FROM t WHERE id = 1"),
///     fingerprint("SELECT * FROM t WHERE id = 1 -- x"),
/// );
/// ```
pub fn fingerprint(query: &str) -> u64 {
    fingerprint_syms_with(&raw_skeleton_syms(query), &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_values_erased() {
        assert_eq!(
            skeleton("SELECT * FROM t WHERE a='x' AND b=1"),
            skeleton("SELECT * FROM t WHERE a='yyyy' AND b=234"),
        );
    }

    #[test]
    fn whitespace_and_case_normalized() {
        assert_eq!(skeleton("select\t*\nfrom t"), skeleton("SELECT * FROM t"),);
    }

    #[test]
    fn identifiers_not_erased() {
        assert_ne!(skeleton("SELECT a FROM t"), skeleton("SELECT b FROM t"),);
    }

    #[test]
    fn injected_tautology_changes_structure() {
        assert_ne!(
            fingerprint("SELECT * FROM t WHERE id=5"),
            fingerprint("SELECT * FROM t WHERE id=5 OR 1=1"),
        );
    }

    #[test]
    fn injected_union_changes_structure() {
        assert_ne!(
            fingerprint("SELECT * FROM t WHERE id=5"),
            fingerprint("SELECT * FROM t WHERE id=-1 UNION SELECT user()"),
        );
    }

    #[test]
    fn injected_comment_changes_structure() {
        assert_ne!(
            fingerprint("SELECT * FROM t WHERE id=5"),
            fingerprint("SELECT * FROM t WHERE id=5 -- tail"),
        );
    }

    #[test]
    fn string_breakout_changes_structure() {
        // Escaping a string literal necessarily introduces new tokens.
        assert_ne!(
            fingerprint("SELECT * FROM t WHERE name='bob'"),
            fingerprint("SELECT * FROM t WHERE name='bob' OR 'a'='a'"),
        );
    }

    #[test]
    fn backticks_normalize() {
        assert_eq!(skeleton("SELECT `id` FROM `t`"), skeleton("SELECT id FROM t"),);
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let q = "SELECT a, b FROM t WHERE x IN (1,2,3) ORDER BY a DESC LIMIT 5";
        assert_eq!(fingerprint(q), fingerprint(q));
    }

    #[test]
    fn fingerprint_key_is_secret() {
        use std::collections::hash_map::DefaultHasher;
        let mut collapsed = Vec::new();
        collapse_syms_into(&raw_skeleton_syms("SELECT * FROM t WHERE id=1"), &mut collapsed);
        let mut public = DefaultHasher::new();
        for id in &collapsed {
            public.write_u32(id.index());
        }
        public.write_usize(collapsed.len());
        assert_ne!(fingerprint_collapsed_syms(&collapsed), public.finish());
    }

    #[test]
    fn in_list_lengths_collapse() {
        let one = skeleton("SELECT * FROM t WHERE id IN (7)");
        let three = skeleton("SELECT * FROM t WHERE id IN (1,2,3)");
        let many = skeleton("SELECT * FROM t WHERE id IN (1,2,3,4,5,6,7,8)");
        assert_eq!(one, three);
        assert_eq!(three, many);
        assert!(one.contains("( ?* )"), "canonical form expected, got {one:?}");
    }

    #[test]
    fn loop_built_trailing_comma_list_collapses() {
        // `$frag .= $id . ","` style loops emit a trailing comma.
        assert_eq!(
            skeleton("SELECT * FROM t WHERE id IN (1,2,3,)"),
            skeleton("SELECT * FROM t WHERE id IN (9,)"),
        );
    }

    #[test]
    fn values_tuple_runs_collapse() {
        let one = skeleton("INSERT INTO t (a,b) VALUES (1,'x')");
        let two = skeleton("INSERT INTO t (a,b) VALUES (1,'x'),(2,'y')");
        let four = skeleton("INSERT INTO t (a,b) VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w')");
        assert_eq!(one, two);
        assert_eq!(two, four);
    }

    #[test]
    fn column_list_not_collapsed_into_values_run() {
        // `(a,b)` is identifiers, not literals: it must stay distinct.
        assert_ne!(
            skeleton("INSERT INTO t (a,b) VALUES (1,2)"),
            skeleton("INSERT INTO t VALUES (1,2)"),
        );
    }

    #[test]
    fn union_inside_in_list_still_changes_skeleton() {
        assert_ne!(
            skeleton("SELECT * FROM t WHERE id IN (1,2,3)"),
            skeleton("SELECT * FROM t WHERE id IN (1,2,(SELECT user()))"),
        );
    }

    #[test]
    fn tautology_after_in_list_still_changes_skeleton() {
        assert_ne!(
            skeleton("SELECT * FROM t WHERE id IN (1,2,3)"),
            skeleton("SELECT * FROM t WHERE id IN (1) OR 1=1"),
        );
    }

    #[test]
    fn values_injection_still_changes_skeleton() {
        assert_ne!(
            skeleton("INSERT INTO t VALUES (1,'x')"),
            skeleton("INSERT INTO t VALUES (1,'x'),(2,(SELECT user()))"),
        );
    }

    #[test]
    fn raw_tokens_do_not_collapse() {
        let raw = raw_skeleton_tokens("SELECT * FROM t WHERE id IN (1,2)");
        assert!(raw.iter().filter(|t| *t == HOLE).count() == 2);
        assert!(!raw.iter().any(|t| t == COLLAPSED));
    }

    #[test]
    fn empty_parens_untouched() {
        assert_eq!(skeleton("SELECT now()"), "SELECT now ( )");
    }

    #[test]
    fn sym_skeleton_agrees_with_string_skeleton() {
        let queries = [
            "SELECT * FROM t WHERE id IN (1,2,3)",
            "INSERT INTO t (a,b) VALUES (1,'x'),(2,'y'),(3,'z')",
            "INSERT INTO t VALUES (1),(2),(3),(4)",
            "SELECT `id` FROM t WHERE name='bob' -- tail",
            "SELECT now()",
            "select Union UNION union",
            "VALUES",
            "VALUES (1,2),(3)",
            "VALUES (1),(a)",
            "",
        ];
        for q in queries {
            // Raw renderings are byte-identical.
            let raw_syms = raw_skeleton_syms(q);
            assert_eq!(crate::symbol::resolve_all(&raw_syms), raw_skeleton_tokens(q), "{q}");
            // Collapse logic agrees token-for-token.
            let mut collapsed = Vec::new();
            collapse_syms_into(&raw_syms, &mut collapsed);
            assert_eq!(crate::symbol::resolve_all(&collapsed), skeleton_tokens(q), "{q}");
            // And the two fingerprint entry points share one hash space.
            assert_eq!(fingerprint_of(&raw_skeleton_tokens(q)), fingerprint(q), "{q}");
        }
    }

    #[test]
    fn collapse_syms_reuses_scratch() {
        let raw = raw_skeleton_syms("SELECT * FROM t WHERE id IN (1,2,3)");
        let mut scratch = Vec::new();
        let fp1 = fingerprint_syms_with(&raw, &mut scratch);
        let cap = scratch.capacity();
        let fp2 = fingerprint_syms_with(&raw, &mut scratch);
        assert_eq!(fp1, fp2);
        assert_eq!(scratch.capacity(), cap, "scratch must be recycled, not regrown");
    }

    #[test]
    fn token_reusing_variants_agree_with_string_entry_points() {
        let queries = [
            "SELECT * FROM t WHERE id IN (1,2,3)",
            "INSERT INTO t (a,b) VALUES (1,'x'),(2,'y')",
            "SELECT `id` FROM t WHERE name='bob' -- tail",
            "",
        ];
        for q in queries {
            let toks = lex(q);
            let raw = render_skeleton(q, &toks);
            assert_eq!(raw, raw_skeleton_tokens(q), "{q}");
            assert_eq!(skeleton_of(&raw), skeleton(q), "{q}");
            assert_eq!(fingerprint_of(&raw), fingerprint(q), "{q}");
        }
    }
}
