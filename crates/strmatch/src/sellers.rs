//! Sellers' semi-global alignment: approximate *substring* matching.
//!
//! NTI (§III-A) needs, for an input `p` and a query `q`, the substring of
//! `q` whose edit distance to `p` is minimal — the "matched query
//! substring" whose length divides the distance to form the difference
//! ratio. Sellers' algorithm computes this in `O(|p|·|q|)` time with linear
//! memory by letting the alignment start for free at any position of `q`
//! (row zero initialized to zeros) and end at any position (minimum over
//! the last row).

use std::ops::Range;

/// The best approximate occurrence of a pattern inside a text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubstringMatch {
    /// Byte offset in the text where the matched substring starts.
    pub start: usize,
    /// Byte offset in the text one past the end of the matched substring.
    pub end: usize,
    /// Edit distance between the pattern and `text[start..end]`.
    pub distance: usize,
}

impl SubstringMatch {
    /// The matched span as a byte range into the text.
    ///
    /// # Examples
    ///
    /// ```
    /// use joza_strmatch::sellers::substring_distance;
    ///
    /// let m = substring_distance(b"world", b"hello world");
    /// assert_eq!(m.range(), 6..11);
    /// ```
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Length of the matched substring of the text.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the matched substring is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The paper's *difference ratio*: edit distance divided by the length
    /// of the matched query substring (§III-A). An empty match yields a
    /// ratio of `f64::INFINITY` unless the distance is also zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use joza_strmatch::sellers::substring_distance;
    ///
    /// let m = substring_distance(b"abcd", b"xxabcdxx");
    /// assert_eq!(m.diff_ratio(), 0.0);
    /// ```
    pub fn diff_ratio(&self) -> f64 {
        if self.distance == 0 {
            0.0
        } else if self.is_empty() {
            f64::INFINITY
        } else {
            self.distance as f64 / self.len() as f64
        }
    }
}

/// Finds the substring of `text` with minimal edit distance to `pattern`.
///
/// Among spans with equal distance, the one with the smallest
/// [difference ratio](SubstringMatch::diff_ratio) (i.e. the longest match)
/// is preferred; remaining ties resolve to the leftmost span.
///
/// An empty `pattern` matches the empty substring at offset 0 with
/// distance 0.
///
/// # Examples
///
/// ```
/// use joza_strmatch::sellers::substring_distance;
///
/// // Exact containment.
/// let m = substring_distance(b"OR 1=1", b"SELECT * FROM t WHERE id=-1 OR 1=1");
/// assert_eq!((m.distance, m.range()), (0, 28..34));
///
/// // Approximate: query contains an escaped variant of the input.
/// let m = substring_distance(b"don't", b"WHERE name='don\\'t'");
/// assert_eq!(m.distance, 1);
/// ```
pub fn substring_distance(pattern: &[u8], text: &[u8]) -> SubstringMatch {
    let n = pattern.len();
    let m = text.len();
    if n == 0 {
        return SubstringMatch { start: 0, end: 0, distance: 0 };
    }
    if m == 0 {
        return SubstringMatch { start: 0, end: 0, distance: n };
    }
    let (dist, start) = final_row(pattern, text);

    let mut best = SubstringMatch { start: start[0], end: 0, distance: dist[0] };
    let mut best_ratio = ratio_key(best.distance, best.len());
    for j in 1..=m {
        let cand = SubstringMatch { start: start[j], end: j, distance: dist[j] };
        let key = ratio_key(cand.distance, cand.len());
        if cand.distance < best.distance || (cand.distance == best.distance && key < best_ratio) {
            best = cand;
            best_ratio = key;
        }
    }
    best
}

/// The last DP row of Sellers' semi-global alignment: for every end
/// position `j` of `text`, the minimal edit distance of `pattern` against
/// a substring ending at `j` (`dist[j]`) and where that substring begins
/// (`start[j]`, following the diagonal-then-deletion-then-insertion tie
/// break that keeps spans tight-but-leftmost).
///
/// `pattern` must be non-empty. The bit-parallel kernel's span recovery
/// (`myers.rs`) walks the same tie-break backward over its bit-vectors.
fn final_row(pattern: &[u8], text: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let m = text.len();
    // dist[j]: min edit distance of pattern vs some substring of text
    // ending at j. start[j]: where that substring begins.
    let mut prev_dist: Vec<usize> = vec![0; m + 1];
    let mut prev_start: Vec<usize> = (0..=m).collect();
    let mut cur_dist: Vec<usize> = vec![0; m + 1];
    let mut cur_start: Vec<usize> = vec![0; m + 1];

    for (i, &pc) in pattern.iter().enumerate() {
        cur_dist[0] = i + 1;
        cur_start[0] = 0;
        for j in 1..=m {
            let sub = prev_dist[j - 1] + usize::from(pc != text[j - 1]);
            let del = prev_dist[j] + 1; // skip pattern byte
            let ins = cur_dist[j - 1] + 1; // skip text byte
                                           // Prefer diagonal, then deletion, then insertion: keeps the
                                           // match span tight-but-leftmost on ties.
            if sub <= del && sub <= ins {
                cur_dist[j] = sub;
                cur_start[j] = prev_start[j - 1];
            } else if del <= ins {
                cur_dist[j] = del;
                cur_start[j] = prev_start[j];
            } else {
                cur_dist[j] = ins;
                cur_start[j] = cur_start[j - 1];
            }
        }
        std::mem::swap(&mut prev_dist, &mut cur_dist);
        std::mem::swap(&mut prev_start, &mut cur_start);
    }
    (prev_dist, prev_start)
}

/// The paper's "simplest form" of NTI's substring matching: compare every
/// substring of `text` against `pattern` with plain Levenshtein — the
/// `O(n² × m²)` baseline §III-A calls "impractical for long queries".
///
/// Kept as a correctness oracle (property tests check agreement with the
/// `O(n·m)` [`substring_distance`]) and for the complexity-contrast
/// benchmark. Do not use it on production-sized inputs.
///
/// # Examples
///
/// ```
/// use joza_strmatch::sellers::{naive_substring_distance, substring_distance};
///
/// let (p, t) = (b"OR 1=1".as_slice(), b"WHERE id=-1 OR 1=1".as_slice());
/// assert_eq!(naive_substring_distance(p, t).distance, substring_distance(p, t).distance);
/// ```
pub fn naive_substring_distance(pattern: &[u8], text: &[u8]) -> SubstringMatch {
    let n = pattern.len();
    let m = text.len();
    if n == 0 {
        return SubstringMatch { start: 0, end: 0, distance: 0 };
    }
    if m == 0 {
        return SubstringMatch { start: 0, end: 0, distance: n };
    }
    let mut best = SubstringMatch { start: 0, end: 0, distance: n };
    let mut best_ratio = ratio_key(best.distance, best.len());
    for start in 0..m {
        for end in start..=m {
            let d = crate::levenshtein::distance(pattern, &text[start..end]);
            let cand = SubstringMatch { start, end, distance: d };
            let key = ratio_key(d, cand.len());
            if d < best.distance || (d == best.distance && key < best_ratio) {
                best = cand;
                best_ratio = key;
            }
        }
    }
    best
}

pub(crate) fn ratio_key(distance: usize, len: usize) -> f64 {
    if distance == 0 {
        0.0
    } else if len == 0 {
        f64::INFINITY
    } else {
        distance as f64 / len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::distance;

    #[test]
    fn exact_containment_is_zero() {
        let m = substring_distance(b"abc", b"xxabcxx");
        assert_eq!(m.distance, 0);
        assert_eq!(m.range(), 2..5);
    }

    #[test]
    fn whole_text_match() {
        let m = substring_distance(b"abc", b"abc");
        assert_eq!(m.distance, 0);
        assert_eq!(m.range(), 0..3);
    }

    #[test]
    fn empty_pattern() {
        let m = substring_distance(b"", b"anything");
        assert_eq!(m.distance, 0);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn empty_text() {
        let m = substring_distance(b"abc", b"");
        assert_eq!(m.distance, 3);
    }

    #[test]
    fn single_error() {
        let m = substring_distance(b"color", b"the colour red");
        assert_eq!(m.distance, 1);
        // "colour" with one deletion, or "colou"/"color"-ish span.
        assert!(m.len() >= 5);
    }

    #[test]
    fn never_exceeds_global_distance() {
        // Substring distance is at most the full Levenshtein distance.
        let p: &[u8] = b"SELECT name FROM users";
        let t: &[u8] = b"xxxSELECT nom FROM user_tblxxx";
        let m = substring_distance(p, t);
        assert!(m.distance <= distance(p, t));
    }

    #[test]
    fn matched_span_distance_agrees() {
        let p: &[u8] = b"1 OR 1=1";
        let t: &[u8] = b"SELECT * FROM t WHERE id=1  OR  1=1 LIMIT 5";
        let m = substring_distance(p, t);
        assert_eq!(distance(p, &t[m.range()]), m.distance);
    }

    #[test]
    fn magic_quotes_ratio_matches_paper() {
        // Fig. 2C scenario: each quote in the payload gains a backslash in
        // the query, so the distance equals the quote count and the
        // difference ratio lands around the paper's ~22.7%.
        let input = "-1'OR/*''''*/1=1-- -";
        let escaped = input.replace('\'', "\\'");
        let quotes = input.matches('\'').count();
        let m = substring_distance(input.as_bytes(), escaped.as_bytes());
        assert_eq!(m.distance, quotes);
        assert!(m.diff_ratio() > 0.15 && m.diff_ratio() < 0.30, "{}", m.diff_ratio());
    }

    #[test]
    fn prefers_longer_match_on_distance_tie() {
        // Both "ab" (dist 1 via substitution) spans exist; ensure ratio
        // favours the longer/cleaner span when distances tie.
        let m = substring_distance(b"abcd", b"abxd...abcd");
        assert_eq!(m.distance, 0);
        assert_eq!(m.range(), 7..11);
    }
}
