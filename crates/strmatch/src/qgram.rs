//! Q-gram counting lower bound for edit distance.
//!
//! One of the "heuristics to skip implausible comparisons" the paper cites
//! for NTI (§III-A, §VI-B). If a pattern and a text share too few q-grams,
//! no substring of the text can be within a small edit distance of the
//! pattern, so the quadratic Sellers computation can be skipped.
//!
//! The bound is Ukkonen's: a single edit operation destroys at most `q`
//! q-grams, so if `ed(p, s) <= k` for some substring `s` of `t`, then `p`
//! and `t` share at least `(|p| - q + 1) - k·q` q-grams (counting
//! multiplicity on the pattern side, and `t`'s grams as a superset of every
//! substring's grams).
//!
//! The shared count is a multiset intersection, computed without hashing:
//! each gram of up to 8 bytes is packed big-endian into a `u64`, both
//! sides' packed grams are sorted, and one galloping merge counts the
//! common ones (equal keys pair off one-to-one, which is exactly
//! `Σ min(count_p, count_t)`; galloping spares a short pattern a walk
//! over a long text). A [`QgramProfile`] builds the text side
//! lazily, on its first query, in a buffer the caller may recycle; the
//! pattern side reuses the tail of that same buffer.

/// Longest gram that packs into a `u64` key.
const PACKED_MAX_Q: usize = 8;

/// A lower bound on the edit distance between `pattern` and the
/// best-matching substring of `text`.
///
/// Returns 0 when the bound is uninformative (e.g. `pattern` shorter than
/// `q`). The bound is safe: the true minimal substring edit distance is
/// never smaller than the returned value.
///
/// # Panics
///
/// If `q > 8` (see [`QgramProfile`]).
///
/// # Examples
///
/// ```
/// use joza_strmatch::qgram::lower_bound;
/// use joza_strmatch::sellers::substring_distance;
///
/// let p = b"UNION SELECT password FROM users";
/// let t = b"completely unrelated text zzzz";
/// let lb = lower_bound(p, t, 3);
/// assert!(lb <= substring_distance(p, t).distance);
/// assert!(lb > 3); // enough to skip a threshold-3 comparison
/// ```
pub fn lower_bound(pattern: &[u8], text: &[u8], q: usize) -> usize {
    QgramProfile::new(text, q, &mut Vec::new()).lower_bound(pattern)
}

/// A text's q-gram multiset, built once and reused across many patterns.
///
/// NTI checks every request input against the *same* intercepted query, so
/// rebuilding the query's gram profile for each input (as the free
/// [`lower_bound`] does) repeats the expensive half of the bound. A
/// profile is built on its first [`lower_bound`](Self::lower_bound) call
/// — never, when no pattern needs it — and kept for the rest. It lives
/// in a caller-owned `Vec<u64>`, so a hot loop can recycle that capacity
/// across texts.
///
/// `q` must be at most 8, so that a gram packs into a `u64` key (NTI
/// uses `q = 3`).
///
/// # Examples
///
/// ```
/// use joza_strmatch::qgram::{lower_bound, QgramProfile};
///
/// let query = b"SELECT * FROM t WHERE id=-1 OR 1=1";
/// let mut buf = Vec::new();
/// let mut profile = QgramProfile::new(query, 3, &mut buf);
/// for input in [b"-1 OR 1=1".as_slice(), b"zzzzzzzz".as_slice()] {
///     assert_eq!(profile.lower_bound(input), lower_bound(input, query, 3));
/// }
/// ```
#[derive(Debug)]
pub struct QgramProfile<'t, 'b> {
    q: usize,
    text: &'t [u8],
    /// Sorted packed text grams in `[..text_grams]`; the current
    /// pattern's grams after them.
    buf: &'b mut Vec<u64>,
    /// `None` until the text side is built.
    text_grams: Option<usize>,
}

impl<'t, 'b> QgramProfile<'t, 'b> {
    /// The q-gram profile of `text`, built on first use in `buf` (whose
    /// contents are discarded; only its capacity is reused).
    ///
    /// # Panics
    ///
    /// If `q > 8`.
    pub fn new(text: &'t [u8], q: usize, buf: &'b mut Vec<u64>) -> Self {
        assert!(q <= PACKED_MAX_Q, "q-grams longer than {PACKED_MAX_Q} bytes do not pack");
        QgramProfile { q, text, buf, text_grams: None }
    }

    /// A lower bound on the edit distance between `pattern` and the
    /// best-matching substring of the profiled text — identical to
    /// [`lower_bound`] with the same `q`.
    pub fn lower_bound(&mut self, pattern: &[u8]) -> usize {
        let q = self.q;
        if pattern.len() < q || q == 0 {
            return 0;
        }
        let p_grams = pattern.len() - q + 1;
        let buf = &mut *self.buf;
        let split = *self.text_grams.get_or_insert_with(|| {
            buf.clear();
            push_sorted_keys(self.text, q, buf);
            buf.len()
        });
        buf.truncate(split);
        push_sorted_keys(pattern, q, buf);
        let (text, pattern) = buf.split_at(split);
        let common = common_count(pattern, text);
        let missing = p_grams - common.min(p_grams);
        missing.div_ceil(q)
    }
}

/// Appends the packed q-grams of `s` (`1 ≤ q ≤ 8`) to `out`, sorting the
/// appended run.
fn push_sorted_keys(s: &[u8], q: usize, out: &mut Vec<u64>) {
    let start = out.len();
    if s.len() >= q {
        let mask = if q == PACKED_MAX_Q { u64::MAX } else { (1u64 << (8 * q)) - 1 };
        let mut key = s[..q - 1].iter().fold(0u64, |k, &b| (k << 8) | u64::from(b));
        out.extend(s[q - 1..].iter().map(|&b| {
            key = ((key << 8) | u64::from(b)) & mask;
            key
        }));
    }
    out[start..].sort_unstable();
}

/// Size of the multiset intersection of the sorted `pattern` and `text`
/// grams. Each pattern gram gallops forward through the text from where
/// the previous one stopped, so a short pattern against a long text costs
/// `O(|p| log |t|)` instead of a walk over the whole text.
fn common_count(pattern: &[u64], text: &[u64]) -> usize {
    let (mut j, mut common) = (0, 0);
    for &gram in pattern {
        // Bracket the first text gram >= `gram` with doubling steps, then
        // binary-search the bracket.
        let rest = &text[j..];
        let mut step = 1;
        while step < rest.len() && rest[step - 1] < gram {
            step *= 2;
        }
        j += rest[..step.min(rest.len())].partition_point(|&t| t < gram);
        if j == text.len() {
            break;
        }
        if text[j] == gram {
            common += 1;
            j += 1;
        }
    }
    common
}

/// Quick length-based plausibility check: can any substring of a text of
/// length `text_len` be within `cutoff` edits of a pattern of length
/// `pattern_len`?
///
/// A pattern longer than the whole text by more than `cutoff` cannot match.
pub fn length_plausible(pattern_len: usize, text_len: usize, cutoff: usize) -> bool {
    pattern_len <= text_len + cutoff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sellers::substring_distance;

    #[test]
    fn bound_is_sound_on_samples() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"hello world", b"say hello world!"),
            (b"hello world", b"completely different"),
            (b"OR 1=1", b"SELECT * WHERE id=1 OR 1=1"),
            (b"abcabcabc", b"abc"),
            (b"", b"xyz"),
            (b"ab", b"xyz"),
        ];
        for &(p, t) in cases {
            let lb = lower_bound(p, t, 3);
            let real = substring_distance(p, t).distance;
            assert!(lb <= real, "lb {lb} > real {real} for {p:?} in {t:?}");
        }
    }

    #[test]
    fn exact_containment_gives_zero_bound() {
        assert_eq!(lower_bound(b"fragment", b"xx fragment yy", 3), 0);
    }

    #[test]
    fn disjoint_alphabets_give_strong_bound() {
        let p = b"aaaaaaaaaaaaaaaaaaaa";
        let t = b"bbbbbbbbbbbbbbbbbbbb";
        assert!(lower_bound(p, t, 3) >= 6);
    }

    #[test]
    fn short_pattern_uninformative() {
        assert_eq!(lower_bound(b"ab", b"zzzz", 3), 0);
    }

    #[test]
    fn multiplicity_is_capped_by_the_text() {
        // Pattern has "aaa" six times, the text once: five grams missing.
        assert_eq!(lower_bound(b"aaaaaaaa", b"xaaax", 3), 2);
        // The widest packable gram counts the same way.
        assert_eq!(lower_bound(b"aaaaaaaaaaa", b"xaaaaaaaax", 8), 1);
    }

    #[test]
    fn profile_is_built_lazily_and_reused() {
        let mut buf = Vec::new();
        let mut profile = QgramProfile::new(b"select 1", 3, &mut buf);
        assert!(profile.text_grams.is_none());
        assert_eq!(profile.lower_bound(b"ab"), 0);
        assert!(profile.text_grams.is_none(), "a short pattern needs no profile");
        assert_eq!(profile.lower_bound(b"select"), 0);
        assert_eq!(profile.text_grams, Some(6));
        assert_eq!(profile.lower_bound(b"zzzzzz"), 2);
        assert_eq!(profile.lower_bound(b"elect 1"), 0);
    }

    #[test]
    fn length_plausibility() {
        assert!(length_plausible(5, 10, 0));
        assert!(length_plausible(12, 10, 2));
        assert!(!length_plausible(13, 10, 2));
    }
}
