//! Naive multi-pattern scanning with most-recently-used reordering.
//!
//! The paper's first PTI optimization (§VI-A) is "a most-recently-used
//! caching policy for fragments that match a query to take advantage of the
//! SQL query working set of a Web application". This module implements both
//! the unoptimized scanner (try every fragment in insertion order) and the
//! MRU variant (recently matched fragments float to the front), so Figure 7
//! can be regenerated as an ablation.
//!
//! # Borrowed vocabulary
//!
//! Neither scanner owns pattern bytes. [`NaiveScanner`] is a view over the
//! caller's pattern slice, and [`MruScanner`] holds only the MRU order, a
//! permutation of pattern ids (4 bytes per pattern), and takes the
//! patterns as an argument to every scan. PTI's fragment store keeps the
//! one copy of its vocabulary and hands it to each per-thread MRU stripe.
//!
//! # Kernel
//!
//! Both scanners report a pattern's occurrences with one kernel: it jumps
//! from candidate to candidate with [`swar::find_byte`] on the pattern's
//! first byte, eight haystack bytes per word, and verifies each candidate
//! with a single slice compare. Every occurrence is reported, overlapping
//! ones included, in ascending start order, exactly as a compare at every
//! haystack offset would. A pattern whose first byte is absent costs one
//! word pass over the haystack.
//!
//! Promoting a matched pattern rotates only the part of the order between
//! its old and new positions, so a warm query whose patterns are already
//! at the front moves almost nothing.
//!
//! # Examples
//!
//! ```
//! use joza_strmatch::mru::{MruScanner, NaiveScanner};
//!
//! let fragments = ["SELECT * FROM t WHERE id=", " LIMIT 1", "OR"];
//! let query = b"SELECT * FROM t WHERE id=1 LIMIT 1";
//! let mut mru = MruScanner::new(fragments.len());
//! let hits = mru.find_all(&fragments, query);
//! assert_eq!(hits, NaiveScanner::new(&fragments).find_all(query));
//! assert_eq!(hits.len(), 2);
//! ```

use crate::swar;

/// A pattern occurrence reported by the scanners (same shape as
/// [`crate::ahocorasick::Match`]).
pub use crate::ahocorasick::Match;

/// A naive scanner that checks each pattern against the haystack in order.
///
/// `find_all` is `O(patterns · |haystack|)` word steps plus one compare per
/// first-byte candidate — the cost profile the paper calls
/// "computationally expensive" for PTI before optimization. The scanner
/// borrows its patterns, so building one copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct NaiveScanner<'p, P> {
    patterns: &'p [P],
}

impl<'p, P: AsRef<[u8]>> NaiveScanner<'p, P> {
    /// A scanner over the given patterns; pattern ids are slice indices.
    pub fn new(patterns: &'p [P]) -> Self {
        NaiveScanner { patterns }
    }

    /// Number of patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Finds all occurrences of all patterns.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        for (pi, pat) in self.patterns.iter().enumerate() {
            find_one(pi, pat.as_ref(), haystack, &mut out);
        }
        out.sort_unstable_by_key(|m| (m.end, m.start, m.pattern));
        out
    }
}

/// A scanner that keeps patterns in most-recently-matched order.
///
/// Matching is identical to [`NaiveScanner`] but patterns that matched the
/// previous query are tried first, and scanning for a *coverage* query (does
/// fragment X cover token span Y) can stop early. The win materializes in
/// [`find_all_until`](MruScanner::find_all_until), which stops as soon as
/// the supplied predicate says the caller has seen enough — mirroring the
/// daemon's "benign queries are quickly matched" behaviour.
///
/// The scanner holds only the order (pattern ids); every scan borrows the
/// patterns themselves, which must be the same slice, in the same order,
/// on every call.
#[derive(Debug, Clone)]
pub struct MruScanner {
    /// Pattern ids in MRU order: a permutation of `0..pattern_count`.
    order: Vec<u32>,
}

impl MruScanner {
    /// A scanner over `pattern_count` patterns, initially in id order.
    ///
    /// # Panics
    ///
    /// If `pattern_count` does not fit in a `u32`.
    pub fn new(pattern_count: usize) -> Self {
        let n = u32::try_from(pattern_count).expect("pattern count fits in u32");
        MruScanner { order: (0..n).collect() }
    }

    /// Number of patterns.
    pub fn pattern_count(&self) -> usize {
        self.order.len()
    }

    /// Finds all occurrences, promoting matching patterns to the front.
    ///
    /// # Panics
    ///
    /// If `patterns` does not hold [`pattern_count`](Self::pattern_count)
    /// patterns.
    pub fn find_all<P: AsRef<[u8]>>(&mut self, patterns: &[P], haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.scan(patterns, haystack, &mut out, |_| false);
        out.sort_unstable_by_key(|m| (m.end, m.start, m.pattern));
        out
    }

    /// Scans patterns in MRU order, stopping as soon as `done` returns true
    /// when passed the matches collected so far. Matching patterns are
    /// promoted regardless of early exit.
    ///
    /// # Panics
    ///
    /// If `patterns` does not hold [`pattern_count`](Self::pattern_count)
    /// patterns.
    pub fn find_all_until<P, F>(&mut self, patterns: &[P], haystack: &[u8], done: F) -> Vec<Match>
    where
        P: AsRef<[u8]>,
        F: Fn(&[Match]) -> bool,
    {
        let mut out = Vec::new();
        self.scan(patterns, haystack, &mut out, done);
        out
    }

    fn scan<P, F>(&mut self, patterns: &[P], haystack: &[u8], out: &mut Vec<Match>, done: F)
    where
        P: AsRef<[u8]>,
        F: Fn(&[Match]) -> bool,
    {
        assert_eq!(patterns.len(), self.order.len(), "MRU order and vocabulary disagree");
        let mut promote: Vec<usize> = Vec::new();
        for (pos, &pi) in self.order.iter().enumerate() {
            let before = out.len();
            let pi = pi as usize;
            find_one(pi, patterns[pi].as_ref(), haystack, out);
            if out.len() > before {
                promote.push(pos);
            }
            if done(out) {
                break;
            }
        }
        // Promote matched patterns to the front, preserving their relative
        // order (stable MRU): each one moves from `pos` to `shift`, the
        // ids between them one step back.
        for (shift, pos) in promote.into_iter().enumerate() {
            self.order[shift..=pos].rotate_right(1);
        }
    }
}

/// Appends every occurrence of `pat` in `haystack`, overlapping ones
/// included, in ascending start order. Candidates are the positions that
/// hold the pattern's first byte, found a word at a time; each is verified
/// with one slice compare. Empty patterns and patterns longer than the
/// haystack never match.
fn find_one(id: usize, pat: &[u8], haystack: &[u8], out: &mut Vec<Match>) {
    let Some(&first) = pat.first() else { return };
    let Some(last_start) = haystack.len().checked_sub(pat.len()) else { return };
    let starts = &haystack[..=last_start];
    let mut i = swar::find_byte(starts, 0, first);
    while i < starts.len() {
        if haystack[i + 1..i + pat.len()] == pat[1..] {
            out.push(Match { pattern: id, start: i, end: i + pat.len() });
        }
        i = swar::find_byte(starts, i + 1, first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ahocorasick::AhoCorasick;
    use proptest::prelude::*;

    /// The byte-at-a-time kernel the first-byte-anchored one replaced: a
    /// compare at every haystack offset. The reference for `find_one`.
    fn find_one_reference(id: usize, pat: &[u8], haystack: &[u8], out: &mut Vec<Match>) {
        if pat.is_empty() || pat.len() > haystack.len() {
            return;
        }
        let mut i = 0;
        while i + pat.len() <= haystack.len() {
            if &haystack[i..i + pat.len()] == pat {
                out.push(Match { pattern: id, start: i, end: i + pat.len() });
            }
            i += 1;
        }
    }

    fn assert_kernels_agree(pat: &[u8], haystack: &[u8]) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        find_one(7, pat, haystack, &mut got);
        find_one_reference(7, pat, haystack, &mut want);
        assert_eq!(got, want, "pattern {pat:?} in {haystack:?}");
    }

    #[test]
    fn find_one_edge_cases() {
        let mut out = Vec::new();
        find_one(0, b"aa", b"aaaa", &mut out);
        let spans: Vec<(usize, usize)> = out.iter().map(|m| (m.start, m.end)).collect();
        assert_eq!(spans, [(0, 2), (1, 3), (2, 4)]);
        for (pat, hay) in [
            (&b""[..], &b"abc"[..]),
            (b"", b""),
            (b"a", b""),
            (b"abcd", b"abc"),
            (b"abc", b"abc"),
            (b"c", b"abc"),
            (b"a", b"aaaaaaaaaaaaaaaaaaa"),
            (b"ab", b"xxxxxxxxxxxxxxxxa"),
            (b"\xff\x00", b"\x00\xff\x00\xff\x00\xff\x00\xff\x00\xff"),
        ] {
            assert_kernels_agree(pat, hay);
        }
    }

    proptest! {
        /// The anchored kernel reports exactly the byte loop's matches, in
        /// the same order: on printable, `[ab]`-dense and multi-byte
        /// haystacks, for patterns cut from the haystack (so they occur,
        /// overlapping in the dense case), extended past it, unrelated,
        /// empty and longer than the haystack.
        #[test]
        fn find_one_matches_byte_loop(
            text in ".{0,120}",
            dense in "[ab]{0,120}",
            wide in "[aé€b—]{0,60}",
            from in 0usize..130,
            len in 0usize..12,
            other in "[ab]{0,6}",
        ) {
            for hay in [text.as_bytes(), dense.as_bytes(), wide.as_bytes()] {
                let from = from.min(hay.len());
                let cut = &hay[from..(from + len).min(hay.len())];
                assert_kernels_agree(cut, hay);
                assert_kernels_agree(&[cut, b"b"].concat(), hay);
                assert_kernels_agree(other.as_bytes(), hay);
                assert_kernels_agree(&[hay, b"a"].concat(), hay);
                assert_kernels_agree(b"", hay);
                assert_kernels_agree(hay, other.as_bytes());
            }
        }
    }

    #[test]
    fn naive_agrees_with_aho_corasick() {
        let pats = ["SELECT", "FROM", "OR", " LIMIT 5", "=", "users"];
        let hay: &[u8] = b"SELECT * FROM users WHERE a=b OR c=d LIMIT 5";
        let naive = NaiveScanner::new(&pats);
        let ac = AhoCorasick::new(pats);
        let mut a = naive.find_all(hay);
        let mut b = ac.find_all(hay);
        a.sort_unstable_by_key(|m| (m.pattern, m.start));
        b.sort_unstable_by_key(|m| (m.pattern, m.start));
        assert_eq!(a, b);
    }

    #[test]
    fn mru_promotes_matching_patterns() {
        let pats = ["zzz", "yyy", "abc"];
        let mut mru = MruScanner::new(pats.len());
        mru.find_all(&pats, b"xx abc xx");
        // "abc" (id 2) should now be tried first.
        assert_eq!(mru.order[0], 2);
    }

    #[test]
    fn mru_promotion_is_stable() {
        let pats = ["a", "x", "b", "y", "c"];
        let mut mru = MruScanner::new(pats.len());
        mru.find_all(&pats, b"cab");
        assert_eq!(mru.order, [0, 2, 4, 1, 3]);
        mru.find_all(&pats, b"y c");
        assert_eq!(mru.order, [4, 3, 0, 2, 1]);
    }

    /// The owning MRU scan the borrowed one replaced: each promoted
    /// pattern is removed and reinserted, which shifts the whole tail of
    /// the order twice. The reference for the scan order, the matches
    /// and the promotions.
    fn mru_reference_scan(
        order: &mut Vec<usize>,
        patterns: &[String],
        haystack: &[u8],
        stop_after: usize,
    ) -> Vec<Match> {
        let mut out = Vec::new();
        let mut promote = Vec::new();
        for (pos, &pi) in order.iter().enumerate() {
            let before = out.len();
            find_one_reference(pi, patterns[pi].as_bytes(), haystack, &mut out);
            if out.len() > before {
                promote.push(pos);
            }
            if out.len() >= stop_after {
                break;
            }
        }
        for (shift, pos) in promote.into_iter().enumerate() {
            let item = order.remove(pos);
            order.insert(shift, item);
        }
        out
    }

    proptest! {
        /// Over a stream of haystacks, with and without early exit, the
        /// borrowed scanner returns the reference's matches in the
        /// reference's order and leaves the same MRU order behind.
        #[test]
        fn mru_order_matches_remove_insert_reference(
            patterns in proptest::collection::vec("[a-c]{1,3}", 1..12),
            haystacks in proptest::collection::vec("[a-c]{0,24}", 1..8),
            stop_after in 1usize..8,
        ) {
            let mut mru = MruScanner::new(patterns.len());
            let mut reference: Vec<usize> = (0..patterns.len()).collect();
            for (i, hay) in haystacks.iter().enumerate() {
                let hay = hay.as_bytes();
                // Every other haystack exits early.
                let stop = if i % 2 == 0 { stop_after } else { usize::MAX };
                let want = mru_reference_scan(&mut reference, &patterns, hay, stop);
                let got = mru.find_all_until(&patterns, hay, |ms| ms.len() >= stop);
                prop_assert_eq!(got, want);
                let order: Vec<usize> = mru.order.iter().map(|&id| id as usize).collect();
                prop_assert_eq!(&order, &reference);
            }
        }
    }

    #[test]
    fn mru_same_results_after_promotion() {
        let pats = ["ab", "bc", "abc"];
        let hay = b"zabcz";
        let mut mru = MruScanner::new(pats.len());
        let first = mru.find_all(&pats, hay);
        let second = mru.find_all(&pats, hay);
        assert_eq!(first, second);
    }

    #[test]
    fn early_exit_stops_scanning() {
        let pats = ["hit", "also-present", "absent"];
        let mut mru = MruScanner::new(pats.len());
        let out = mru.find_all_until(&pats, b"hit also-present", |ms| !ms.is_empty());
        // Stopped after the first matching pattern.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pattern, 0);
    }

    #[test]
    #[should_panic(expected = "MRU order and vocabulary disagree")]
    fn mru_rejects_a_vocabulary_of_another_size() {
        MruScanner::new(2).find_all(&["a"], b"a");
    }

    #[test]
    fn empty_and_oversized_patterns_ignored() {
        let pats = ["", "waaaay too long for the haystack"];
        assert!(NaiveScanner::new(&pats).find_all(b"short").is_empty());
        assert!(MruScanner::new(pats.len()).find_all(&pats, b"short").is_empty());
    }
}
