//! Skeleton-token symbols: deployment-time interning, check-time lookup.
//!
//! The per-check hot path renders every query token into skeleton normal
//! form and then compares those renderings — against query-model
//! automaton branches and, hashed, against the PTI structure cache.
//! Rendering into `String`s makes every check allocate per token and
//! every comparison walk bytes. Symbols replace both: each rendering is a
//! [`SymId`] (a `u32`), so a skeleton is a `Vec<SymId>` and comparison is
//! integer equality.
//!
//! Symbols come from two places:
//!
//! * **The process table** ([`intern`]) holds every rendering the lexer
//!   can produce that is not identifier-like — literal holes, comments,
//!   keywords, punctuation, operators, every single ASCII byte — seeded
//!   at fixed ids on first use, plus the identifiers of compiled query
//!   templates. Only template compilation interns, and it runs while an
//!   engine is installed or models are deployed, never while a query is
//!   checked. The check path reads the table through a [`Symbols`]
//!   snapshot ([`snapshot`]) that the deployment pins, so a lookup takes
//!   no lock.
//! * **Check-local ids**: a rendering the pinned snapshot lacks (an
//!   identifier no template names) gets the id `LOCAL | k`, where `k` is
//!   the position of its token in the sequence being rendered. Its bytes
//!   stay in the query; nothing is stored. An identifier outside the
//!   deployed model vocabulary can never match an automaton branch, so it
//!   needs no permanent symbol.
//!
//! # Properties the rest of the gate relies on
//!
//! * **Table ids are injective**: two table ids are equal iff their
//!   renderings are byte-equal, and a local id never equals a table id
//!   (the two id spaces are disjoint). So the automaton verdicts are
//!   those of string matching: no branch symbol equals a local id, just
//!   as no branch string equals a rendering the templates never produced.
//!   Two local ids are equal only when they name the same token; nothing
//!   compares them by content — fingerprints hash their bytes instead
//!   (see [`crate::fingerprint::fingerprint_collapsed_syms`]).
//! * **Stable for the process lifetime**: table ids are never reused or
//!   remapped; [`resolve`] returns `&'static str`. The seeded renderings
//!   take the same ids in every process; identifier ids depend on the
//!   order templates were compiled in, which is why fingerprints hash
//!   identifier renderings by their bytes, not their ids.
//! * **Bounded**: the table grows only with the renderings of compiled
//!   templates — the application's model vocabulary — never with traffic.
//!   Checking a million queries with a million fresh identifiers leaves
//!   [`len`] where it was.
//!
//! Common skeleton constants ([`SYM_HOLE`], punctuation, `VALUES`) are
//! pre-seeded at fixed ids so hot-path code can use them as plain
//! constants without touching the table.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::keywords::KEYWORDS;
use crate::lexer::TWO_BYTE_OPERATORS;

/// A skeleton-token symbol: a table id, equal to another exactly when
/// their renderings are, or a check-local id naming one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(u32);

/// The bit that marks a check-local id; table ids stay below it.
const LOCAL: u32 = 1 << 31;

impl SymId {
    /// The raw id (a table index, or a token position with the top bit
    /// set).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Whether this is a check-local id (a rendering the snapshot lacks)
    /// rather than a table id.
    pub fn is_local(self) -> bool {
        self.0 & LOCAL != 0
    }

    /// The check-local id of the rendering at position `k` of the
    /// sequence being rendered.
    ///
    /// # Panics
    ///
    /// Panics past 2^31 positions, which only a query larger than 2 GiB
    /// can hold.
    #[inline]
    pub(crate) fn local(k: usize) -> SymId {
        SymId(u32::try_from(k).ok().filter(|&k| k < LOCAL).expect("query too long") | LOCAL)
    }

    /// The position a check-local id names, or `None` for a table id.
    #[inline]
    pub(crate) fn local_index(self) -> Option<usize> {
        self.is_local().then_some((self.0 & !LOCAL) as usize)
    }
}

/// The hole symbol `?` — rendering of every data literal.
pub const SYM_HOLE: SymId = SymId(0);
/// The collapsed-list symbol `?*`.
pub const SYM_COLLAPSED: SymId = SymId(1);
/// `(`.
pub const SYM_LPAREN: SymId = SymId(2);
/// `)`.
pub const SYM_RPAREN: SymId = SymId(3);
/// `,`.
pub const SYM_COMMA: SymId = SymId(4);
/// The canonical comment rendering `/*c*/`.
pub const SYM_COMMENT: SymId = SymId(5);
/// The `VALUES` keyword (anchor of tuple-run collapsing).
pub const SYM_VALUES: SymId = SymId(6);

/// Seeds that claim the fixed ids above, in id order.
const SEEDS: &[&str] = &["?", "?*", "(", ")", ",", "/*c*/", "VALUES"];

/// A read-only view of the process symbol table, as of one moment.
///
/// Snapshots are what the check path looks renderings up in: a
/// deployment pins the snapshot taken after its models compiled, so every
/// symbol its automata contain is in it, and a lookup is a plain hash
/// probe with no lock.
#[derive(Debug, Clone)]
pub struct Symbols {
    /// Rendering → id. Keys borrow from the leaked strings in `strings`.
    ids: HashMap<&'static str, SymId>,
    /// id → rendering.
    strings: Vec<&'static str>,
    /// Ids `< seeded` are the fixed seeds: the same in every process.
    seeded: u32,
}

impl Symbols {
    /// Builds the seeded table: [`SEEDS`] at their fixed ids, then every
    /// keyword, every single ASCII byte and every two-byte operator the
    /// lexer recognizes (every other operator, punctuation mark and
    /// unclassifiable byte is one ASCII byte).
    fn seeded() -> Symbols {
        let mut t = Symbols { ids: HashMap::new(), strings: Vec::new(), seeded: 0 };
        let bytes = (0..128u8)
            .map(|b| -> &'static str { Box::leak(char::from(b).to_string().into_boxed_str()) });
        let all = SEEDS.iter().chain(KEYWORDS).chain(TWO_BYTE_OPERATORS).copied().chain(bytes);
        for s in all {
            // `VALUES` is both a seed and a keyword.
            if !t.ids.contains_key(s) {
                t.ids.insert(s, SymId(t.strings.len() as u32));
                t.strings.push(s);
            }
        }
        t.seeded = t.strings.len() as u32;
        t
    }

    /// The id of rendering `s`, if the table held it when this snapshot
    /// was taken.
    #[inline]
    pub fn lookup(&self, s: &str) -> Option<SymId> {
        self.ids.get(s).copied()
    }

    /// The rendering of table id `id`, or `None` for a local id or an id
    /// interned after this snapshot.
    pub(crate) fn resolve(&self, id: SymId) -> Option<&'static str> {
        self.strings.get(id.0 as usize).copied()
    }

    /// Whether `id` is one of the fixed seeds (the same id in every
    /// process).
    #[inline]
    pub(crate) fn is_seeded(&self, id: SymId) -> bool {
        id.0 < self.seeded
    }

    /// Number of table symbols in this snapshot.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Always false: the seeds are present in every snapshot.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// The seeds-only table: every non-identifier rendering and nothing else.
/// Entry points with no deployment ([`crate::fingerprint::fingerprint`])
/// look up in this and give every identifier a local id, which hashes
/// exactly like an interned one.
pub(crate) fn seeded() -> &'static Symbols {
    static SEEDED: OnceLock<Symbols> = OnceLock::new();
    SEEDED.get_or_init(Symbols::seeded)
}

/// The process table. Writers ([`intern`]) copy it on write when a
/// snapshot still pins the current version, so a snapshot never changes.
fn table() -> &'static Mutex<Arc<Symbols>> {
    static TABLE: OnceLock<Mutex<Arc<Symbols>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Arc::new(seeded().clone())))
}

fn current() -> std::sync::MutexGuard<'static, Arc<Symbols>> {
    table().lock().expect("symbol table poisoned")
}

/// Interns `s`, returning its stable [`SymId`] — the deployment-time
/// entry point: query-template compilation calls it, the check path
/// never does (it looks renderings up in a pinned [`Symbols`] snapshot).
///
/// A rendering seen before is a locked hash lookup; a first-ever one
/// copies the string into the table (and the table itself, when a
/// snapshot pins its current version).
///
/// # Examples
///
/// ```
/// use joza_sqlparse::symbol::{intern, resolve, snapshot, SYM_HOLE};
///
/// assert_eq!(intern("?"), SYM_HOLE);
/// let id = intern("wp_posts");
/// assert_eq!(intern("wp_posts"), id);
/// assert_eq!(resolve(id), "wp_posts");
/// assert_eq!(snapshot().lookup("wp_posts"), Some(id));
/// ```
pub fn intern(s: &str) -> SymId {
    let mut cur = current();
    if let Some(id) = cur.lookup(s) {
        return id;
    }
    let t = Arc::make_mut(&mut cur);
    let id = u32::try_from(t.strings.len()).ok().filter(|&i| i < LOCAL).expect("symbol table full");
    let id = SymId(id);
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    t.strings.push(leaked);
    t.ids.insert(leaked, id);
    id
}

/// The table as it is now, for a deployment to pin: every symbol interned
/// so far, read without a lock for as long as the snapshot lives.
pub fn snapshot() -> Arc<Symbols> {
    Arc::clone(&current())
}

/// Number of symbols in the process table — constant while only checks
/// run (they never intern).
pub fn len() -> usize {
    current().len()
}

/// The string table id `id` was interned from.
///
/// # Panics
///
/// Panics if `id` is a local id or did not come from [`intern`] in this
/// process.
pub fn resolve(id: SymId) -> &'static str {
    current().resolve(id).expect("not a table symbol")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_have_fixed_ids() {
        assert_eq!(intern("?"), SYM_HOLE);
        assert_eq!(intern("?*"), SYM_COLLAPSED);
        assert_eq!(intern("("), SYM_LPAREN);
        assert_eq!(intern(")"), SYM_RPAREN);
        assert_eq!(intern(","), SYM_COMMA);
        assert_eq!(intern("/*c*/"), SYM_COMMENT);
        assert_eq!(intern("VALUES"), SYM_VALUES);
        assert_eq!(resolve(SYM_COLLAPSED), "?*");
    }

    #[test]
    fn non_identifier_renderings_are_preseeded() {
        let seeds = seeded();
        for kw in KEYWORDS {
            assert!(seeds.lookup(kw).is_some_and(|id| seeds.is_seeded(id)), "{kw}");
        }
        for op in TWO_BYTE_OPERATORS {
            assert!(seeds.lookup(op).is_some_and(|id| seeds.is_seeded(id)), "{op}");
        }
        for b in 0..128u8 {
            let s = char::from(b).to_string();
            let id = seeds.lookup(&s).expect("single byte seeded");
            assert!(seeds.is_seeded(id));
            assert_eq!(seeds.resolve(id), Some(s.as_str()));
        }
        assert_eq!(seeds.lookup("?"), Some(SYM_HOLE));
        assert_eq!(seeds.lookup("wp_posts"), None);
    }

    #[test]
    fn interning_is_injective_and_stable() {
        let a = intern("custom_table");
        let b = intern("custom_table");
        let c = intern("custom_tableX");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(resolve(a), "custom_table");
        assert_eq!(snapshot().resolve(c), Some("custom_tableX"));
    }

    #[test]
    fn snapshots_never_change() {
        let before = snapshot();
        let id = intern("only_after_the_snapshot");
        assert_eq!(before.lookup("only_after_the_snapshot"), None);
        assert_eq!(snapshot().lookup("only_after_the_snapshot"), Some(id));
        assert!(before.len() < snapshot().len());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let ids: Vec<SymId> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| intern("race_me")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn local_ids_name_positions_and_never_equal_a_table_id() {
        let snap = snapshot();
        for k in [0, 1, 7, 100_000, (LOCAL - 1) as usize] {
            let id = SymId::local(k);
            assert!(id.is_local());
            assert_eq!(id.local_index(), Some(k));
            assert_eq!(snap.resolve(id), None, "a local id is no table id");
        }
        assert_ne!(SymId::local(0), SymId::local(1));
        assert_eq!(SYM_HOLE.local_index(), None);
        assert!((0..snap.len() as u32).all(|i| !SymId(i).is_local()));
    }
}
