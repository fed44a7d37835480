//! Parse-once query artifacts shared by every check stage.
//!
//! [`QueryArtifacts`] computes each derived form of the checked query —
//! token stream, skeleton, fingerprint, folded bytes, critical tokens —
//! **once**, on first demand, and hands out shared references for the
//! rest of the check; a stage that never runs never pays for the
//! artifacts it alone would need.
//!
//! The struct lives on the stack of one `check` call and borrows the query
//! text, so its lifetime — and the cache's — is exactly one checked query.
//! Nothing here is shared across queries (cross-query caching remains the
//! job of the PTI query/structure caches).
//!
//! # Memory
//!
//! Every variable-length artifact fills a buffer leased from a
//! [`CheckArena`] ([`QueryArtifacts::new_in`]): the `Vec`s live in
//! `OnceCell`-wrapped [`Lease`]s, so dropping the artifacts at the end of
//! the check parks each buffer (cleared, capacity kept) for the next
//! check on the thread. The skeleton is a sequence of [`SymId`]s, not
//! strings, looked up in the deployment's pinned [`Symbols`] snapshot
//! without a lock; a rendering the snapshot lacks (an identifier no
//! template names) gets the check-local id of its token's position.
//! Rendering therefore never grows the process symbol table and, once
//! the buffers are warm, allocates nothing, and the model automaton
//! matches the skeleton integer-by-integer.
//! [`QueryArtifacts::new`] (no arena) keeps identical semantics on
//! detached heap buffers for tests and one-off callers.

use crate::arena::CheckArena;
use joza_arena::Lease;
use joza_sqlparse::critical::{critical_tokens_into, CriticalPolicy};
use joza_sqlparse::fingerprint::{fingerprint_syms_with, render_skeleton_syms_into};
use joza_sqlparse::lexer::lex_into;
use joza_sqlparse::symbol::{SymId, Symbols};
use joza_sqlparse::token::Token;
use joza_strmatch::swar;
use std::cell::OnceCell;

/// The case-folded view of the query bytes: borrowed when no byte needs
/// changing (the common benign-path case), leased-and-folded otherwise.
#[derive(Debug)]
enum Folded<'q> {
    Borrowed(&'q [u8]),
    Owned(Lease<'q, u8>),
}

/// Lazily-computed derived forms of one checked query.
///
/// Each accessor computes its artifact on first call and returns the cached
/// value afterwards. Derivations chain: the skeleton is rendered from the
/// cached token stream, the fingerprint hashed from the cached skeleton.
#[derive(Debug)]
pub struct QueryArtifacts<'q> {
    query: &'q str,
    arena: Option<&'q CheckArena>,
    symbols: &'q Symbols,
    tokens: OnceCell<Lease<'q, Token>>,
    skeleton: OnceCell<Lease<'q, SymId>>,
    fingerprint: OnceCell<u64>,
    folded: OnceCell<Folded<'q>>,
    criticals: OnceCell<Lease<'q, Token>>,
}

impl<'q> QueryArtifacts<'q> {
    /// Wraps a query with an empty artifact cache on detached heap
    /// buffers (no recycling), rendering skeletons against `symbols`.
    /// Semantically identical to [`QueryArtifacts::new_in`]; the engine's
    /// check path always uses the arena flavour.
    pub fn new(query: &'q str, symbols: &'q Symbols) -> Self {
        QueryArtifacts {
            query,
            arena: None,
            symbols,
            tokens: OnceCell::new(),
            skeleton: OnceCell::new(),
            fingerprint: OnceCell::new(),
            folded: OnceCell::new(),
            criticals: OnceCell::new(),
        }
    }

    /// Wraps a query with an empty artifact cache whose buffers are
    /// leased from `arena` and parked back (capacity kept) when the
    /// artifacts drop at the end of the check. Skeletons are rendered
    /// against `symbols`, the snapshot the deployment pinned.
    pub fn new_in(query: &'q str, arena: &'q CheckArena, symbols: &'q Symbols) -> Self {
        QueryArtifacts { arena: Some(arena), ..QueryArtifacts::new(query, symbols) }
    }

    /// The raw query text.
    pub fn query(&self) -> &'q str {
        self.query
    }

    /// The lexed token stream (`joza_sqlparse::lexer::lex`).
    pub fn tokens(&self) -> &[Token] {
        self.tokens.get_or_init(|| {
            let mut buf = self.arena.map_or_else(Lease::detached, |a| a.tokens.lease());
            lex_into(self.query, &mut buf);
            buf
        })
    }

    /// The uncollapsed symbol-skeleton rendering — the input the route
    /// models' automata match against ([`joza_sqlparse::template::RouteModel::accepts_syms`]).
    pub fn skeleton(&self) -> &[SymId] {
        self.skeleton.get_or_init(|| {
            let mut buf = self.arena.map_or_else(Lease::detached, |a| a.skeleton.lease());
            render_skeleton_syms_into(self.query, self.tokens(), self.symbols, &mut buf);
            buf
        })
    }

    /// The structural fingerprint (collapsed-skeleton hash) used by the
    /// PTI structure cache. The collapse scratch is leased only for the
    /// duration of the hash.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut scratch = self.arena.map_or_else(Lease::detached, |a| a.collapse.lease());
            let (query, tokens) = (self.query, self.tokens());
            fingerprint_syms_with(self.skeleton(), self.symbols, query, tokens, &mut scratch)
        })
    }

    /// The query bytes in NTI's match normalization: ASCII case-folded.
    pub fn normalized(&self) -> &[u8] {
        let folded = self.folded.get_or_init(|| {
            let bytes = self.query.as_bytes();
            match swar::first_ascii_upper(bytes) {
                Some(first) => {
                    let mut buf = self.arena.map_or_else(Lease::detached, |a| a.folded.lease());
                    buf.extend_from_slice(&bytes[..first]);
                    joza_strmatch::normalize::to_lower_into(&bytes[first..], &mut buf);
                    Folded::Owned(buf)
                }
                None => Folded::Borrowed(bytes),
            }
        });
        match folded {
            Folded::Borrowed(b) => b,
            Folded::Owned(l) => l,
        }
    }

    /// The query's critical tokens under `policy`.
    ///
    /// Cached under the first caller's policy — in the engine only NTI
    /// reads this accessor (PTI derives criticals inside its analyzer from
    /// the shared [`QueryArtifacts::tokens`] stream), so the cache never
    /// sees two policies in one check.
    pub fn criticals(&self, policy: CriticalPolicy) -> &[Token] {
        self.criticals.get_or_init(|| {
            let mut buf = self.arena.map_or_else(Lease::detached, |a| a.criticals.lease());
            critical_tokens_into(self.tokens(), policy, &mut buf);
            buf
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_sqlparse::critical::critical_tokens;
    use joza_sqlparse::fingerprint::{fingerprint, raw_skeleton_syms};
    use joza_sqlparse::lexer::lex;
    use joza_sqlparse::symbol::snapshot;
    use joza_strmatch::normalize::to_lower;

    #[test]
    fn artifacts_agree_with_direct_computation() {
        let q = "SELECT * FROM records WHERE ID=42 LIMIT 5";
        let symbols = snapshot();
        let a = QueryArtifacts::new(q, &symbols);
        assert_eq!(a.tokens(), lex(q).as_slice());
        assert_eq!(a.skeleton(), raw_skeleton_syms(q, &symbols).as_slice());
        assert_eq!(a.fingerprint(), fingerprint(q));
        assert_eq!(a.normalized(), to_lower(q.as_bytes()).as_ref());
        let policy = CriticalPolicy::default();
        assert_eq!(a.criticals(policy), critical_tokens(&lex(q), policy).as_slice());
    }

    #[test]
    fn accessors_are_idempotent() {
        let symbols = snapshot();
        let a = QueryArtifacts::new("SELECT 1", &symbols);
        let fp1 = a.fingerprint();
        let t1 = a.tokens().len();
        assert_eq!(a.fingerprint(), fp1);
        assert_eq!(a.tokens().len(), t1);
        let b = QueryArtifacts::new("SELECT A", &symbols);
        assert_eq!(b.normalized(), b"select a");
        assert_eq!(b.normalized(), b"select a");
    }

    #[test]
    fn arena_backed_artifacts_match_heap_backed() {
        let arena = CheckArena::new();
        let symbols = snapshot();
        let queries = [
            "SELECT * FROM records WHERE ID=42 LIMIT 5",
            "INSERT INTO t (a,b) VALUES (1,'x'),(2,'y')",
            "SELECT * FROM r WHERE ID=-1 UNION SELECT username()-- -",
            "",
        ];
        let policy = CriticalPolicy::default();
        for q in queries {
            let heap = QueryArtifacts::new(q, &symbols);
            let arenad = QueryArtifacts::new_in(q, &arena, &symbols);
            assert_eq!(arenad.tokens(), heap.tokens(), "{q}");
            assert_eq!(arenad.skeleton(), heap.skeleton(), "{q}");
            assert_eq!(arenad.fingerprint(), heap.fingerprint(), "{q}");
            assert_eq!(arenad.normalized(), heap.normalized(), "{q}");
            assert_eq!(arenad.criticals(policy), heap.criticals(policy), "{q}");
        }
    }

    #[test]
    fn drop_parks_buffers_for_the_next_check() {
        let arena = CheckArena::new();
        let symbols = snapshot();
        // `never_deployed_col` is in no template, so it takes a local id.
        let q = "SELECT * FROM records WHERE Name='UPPER' AND never_deployed_col=7";
        {
            let a = QueryArtifacts::new_in(q, &arena, &symbols);
            let _ = a.fingerprint();
            let _ = a.normalized();
            let _ = a.criticals(CriticalPolicy::default());
        }
        for (name, cap) in [
            ("tokens", arena.tokens.parked_capacity()),
            ("skeleton", arena.skeleton.parked_capacity()),
            ("collapse", arena.collapse.parked_capacity()),
            ("folded", arena.folded.parked_capacity()),
            ("criticals", arena.criticals.parked_capacity()),
        ] {
            assert!(cap > 0, "{name} buffer was not parked");
        }
        // The next artifact's buffers come back with capacity.
        let a = QueryArtifacts::new_in(q, &arena, &symbols);
        let _ = a.fingerprint();
    }
}
