//! Fragment storage and compiled matchers.

use joza_phpsim::fragments::FragmentSet;
use joza_strmatch::ahocorasick::AhoCorasick;
use joza_strmatch::mru::{Match, MruScanner, NaiveScanner};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Which multi-pattern matching strategy the store uses. The paper's
/// unoptimized prototype corresponds to [`MatcherKind::Naive`]; its first
/// optimization (§VI-A) to [`MatcherKind::Mru`], the default;
/// [`MatcherKind::AhoCorasick`] is the asymptotically better alternative
/// used for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherKind {
    /// Scan every fragment for every query.
    Naive,
    /// Scan fragments in most-recently-matched order (the paper's
    /// fragment-cache optimization).
    #[default]
    Mru,
    /// A single Aho–Corasick automaton over all fragments.
    AhoCorasick,
}

/// Number of independent MRU scanner stripes. Stripe selection is
/// per-thread, so this bounds how many concurrent threads can scan
/// without contending on a scanner lock.
const MRU_STRIPES: usize = 16;

/// Hands each OS thread that scans a stable stripe index. Sequential
/// assignment (not hashing) keeps a single-threaded process on stripe 0 —
/// bit-identical MRU behaviour to the pre-sharded engine — and gives any
/// batch of up to [`MRU_STRIPES`] concurrently spawned scanning threads
/// distinct stripes.
fn stripe_index() -> usize {
    static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|s| *s) % MRU_STRIPES
}

/// An immutable fragment vocabulary with a compiled matcher.
///
/// Fragment indices are stable: `occurrences` reports matches by fragment
/// index into [`FragmentStore::fragments`].
///
/// The store is the *shared read side* of a lock-sharded engine: one
/// `Arc<FragmentStore>` serves every worker. The Aho–Corasick automaton is
/// immutable and scanned through `&self`; the stateful MRU scanner is
/// striped per scanning thread (lazily built), so concurrent workers never
/// serialize on a single scanner lock.
///
/// The store holds the only copy of the fragment bytes. The naive scanner
/// is a view built over them for each scan, and an MRU stripe holds just
/// its order, one `u32` fragment id per fragment, and borrows the
/// vocabulary for every scan. Over the benchmark's 13.6k-fragment
/// vocabulary a stripe costs 54 KB, not a copy of the vocabulary.
#[derive(Debug)]
pub struct FragmentStore {
    fragments: Vec<String>,
    kind: MatcherKind,
    ac: Option<AhoCorasick>,
    mru: Option<Box<[OnceLock<Mutex<MruScanner>>]>>,
}

impl FragmentStore {
    /// Compiles a store from any fragment iterator.
    pub fn new<I, S>(fragments: I, kind: MatcherKind) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::from_vec(fragments.into_iter().map(|s| s.as_ref().to_string()).collect(), kind)
    }

    /// Compiles a store over a vocabulary it takes ownership of, in index
    /// order (the installer's path: no fragment is copied).
    pub fn from_vec(fragments: Vec<String>, kind: MatcherKind) -> Self {
        let mut store = FragmentStore { fragments, kind, ac: None, mru: None };
        match kind {
            MatcherKind::Naive => {}
            MatcherKind::Mru => {
                store.mru = Some((0..MRU_STRIPES).map(|_| OnceLock::new()).collect())
            }
            MatcherKind::AhoCorasick => store.ac = Some(AhoCorasick::new(&store.fragments)),
        }
        store
    }

    /// Compiles a store from an extracted [`FragmentSet`].
    pub fn from_set(set: &FragmentSet, kind: MatcherKind) -> Self {
        Self::new(set.iter(), kind)
    }

    /// The fragment vocabulary, in index order.
    pub fn fragments(&self) -> &[String] {
        &self.fragments
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether the store has no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// The configured matcher strategy.
    pub fn kind(&self) -> MatcherKind {
        self.kind
    }

    /// The calling thread's MRU scanner stripe (built on first use).
    fn mru_stripe(&self) -> &Mutex<MruScanner> {
        let stripes = self.mru.as_ref().expect("built in new");
        stripes[stripe_index()].get_or_init(|| Mutex::new(MruScanner::new(self.fragments.len())))
    }

    /// All fragment occurrences in `query`, as `(fragment index, start,
    /// end)` spans.
    pub fn occurrences(&self, query: &str) -> Vec<Match> {
        let hay = query.as_bytes();
        match self.kind {
            MatcherKind::Naive => NaiveScanner::new(&self.fragments).find_all(hay),
            MatcherKind::Mru => self.mru_stripe().lock().find_all(&self.fragments, hay),
            MatcherKind::AhoCorasick => self.ac.as_ref().expect("built in new").find_all(hay),
        }
    }

    /// Fragment occurrences with early exit: scanning stops as soon as
    /// `done` returns `true` on the matches collected so far. Only the MRU
    /// matcher can exit early (that is the point of the paper's combined
    /// MRU + parse-first optimization, §VI-A); the other strategies fall
    /// back to a full scan.
    pub fn occurrences_until<F>(&self, query: &str, done: F) -> Vec<Match>
    where
        F: Fn(&[Match]) -> bool,
    {
        match self.kind {
            MatcherKind::Mru => {
                self.mru_stripe().lock().find_all_until(&self.fragments, query.as_bytes(), done)
            }
            _ => self.occurrences(query),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_matchers_agree() {
        let frags = ["SELECT * FROM t WHERE id=", " LIMIT 1", "OR", "="];
        let q = "SELECT * FROM t WHERE id=5 OR 1=1 LIMIT 1";
        let mut results: Vec<Vec<(usize, usize, usize)>> = Vec::new();
        for kind in [MatcherKind::Naive, MatcherKind::Mru, MatcherKind::AhoCorasick] {
            let store = FragmentStore::new(frags, kind);
            let mut occ: Vec<(usize, usize, usize)> =
                store.occurrences(q).iter().map(|m| (m.pattern, m.start, m.end)).collect();
            occ.sort_unstable();
            results.push(occ);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
        assert!(!results[0].is_empty());
    }

    #[test]
    fn empty_store() {
        let store = FragmentStore::new(Vec::<&str>::new(), MatcherKind::AhoCorasick);
        assert!(store.is_empty());
        assert!(store.occurrences("SELECT 1").is_empty());
    }

    #[test]
    fn from_set_roundtrip() {
        let mut set = FragmentSet::new();
        set.insert("SELECT");
        set.insert("FROM");
        let store = FragmentStore::from_set(&set, MatcherKind::Naive);
        assert_eq!(store.len(), 2);
        assert_eq!(store.occurrences("SELECT x FROM t").len(), 2);
    }

    #[test]
    fn mru_stripes_agree_across_threads() {
        let store = std::sync::Arc::new(FragmentStore::new(
            ["SELECT * FROM t WHERE id=", "OR", "="],
            MatcherKind::Mru,
        ));
        let q = "SELECT * FROM t WHERE id=5 OR 1=1";
        let expected: Vec<(usize, usize, usize)> =
            store.occurrences(q).iter().map(|m| (m.pattern, m.start, m.end)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut occ: Vec<(usize, usize, usize)> = store
                        .occurrences("SELECT * FROM t WHERE id=5 OR 1=1")
                        .iter()
                        .map(|m| (m.pattern, m.start, m.end))
                        .collect();
                    occ.sort_unstable();
                    occ
                })
            })
            .collect();
        let mut want = expected;
        want.sort_unstable();
        for h in handles {
            assert_eq!(h.join().expect("scan thread panicked"), want);
        }
    }
}
