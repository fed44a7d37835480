//! Bit-parallel approximate substring matching — Myers' 1999 bit-vector
//! algorithm in Hyyrö's semi-global (text search) adaptation, with an
//! Ukkonen-style threshold cutoff.
//!
//! NTI's hot path asks, for an input `p` and a query `q`, for the
//! substring of `q` with minimal edit distance to `p` (§III-A). The
//! classic [Sellers DP](crate::sellers::substring_distance) pays
//! `O(|p|·|q|)` scalar cell updates. This module packs 64 DP rows into one
//! machine word: each query byte advances the whole column with a handful
//! of word operations, so the cost drops to `O(⌈|p|/64⌉·|q|)` — with
//! multi-word support for patterns longer than 64 bytes.
//!
//! Two further optimizations exploit that NTI only cares about matches
//! whose distance is at most a threshold-derived bound `k`:
//!
//! * **Block cutoff** (Myers §5 / Hyyrö): only the word-blocks whose cells
//!   could still be ≤ `k` are advanced. A block is dropped once every cell
//!   in it provably exceeds `k` (bottom-of-block score ≥ `k + 64`) and
//!   reactivated — from the exact boundary score, via the deletion-chain
//!   upper bound, which is exact while the boundary stays above `k` —
//!   as soon as a ≤ `k` path could cross into it again.
//! * **Tail abandon**: last-row scores are 1-Lipschitz in the column, so
//!   once the provable lower bound on the current score exceeds
//!   `k + remaining_text`, no future end position can reach `k` and the
//!   scan stops early (only taken while no candidate has been seen, so
//!   the candidate set stays exact).
//!
//! A pattern of at most 64 bytes fits one block, and NTI's inputs mostly
//! do. Its scan takes a **single-word path**: Peq is one 256-entry table
//! on the stack, the block's bottom score is the last-row score, and
//! there is no band to grow or shrink, so each text byte costs one table
//! load and about fifteen word operations. It returns the same minimal
//! distance and end positions as the general path.
//!
//! The scan yields the minimal distance and every end position achieving
//! it; the classic Sellers traceback then runs **only on the winning
//! window** to recover exact `start..end` spans, and the final span is
//! chosen with exactly the tie-break rules of
//! [`substring_distance`](crate::sellers::substring_distance) — verdicts
//! and spans are bit-identical to the classic kernel (property-tested in
//! `tests/proptests.rs`).

use crate::sellers::{final_row, ratio_key, SubstringMatch};

/// Which approximate-matching kernel NTI runs (§III-A hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatchKernel {
    /// The quadratic Sellers DP — kept for the Fig. 7-style ablation and
    /// as the differential-testing oracle.
    Classic,
    /// Myers/Hyyrö bit-parallel semi-global alignment with the threshold
    /// cutoff; identical verdicts and spans, ~an order of magnitude
    /// cheaper on long queries.
    #[default]
    BitParallel,
}

impl std::fmt::Display for MatchKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MatchKernel::Classic => "classic",
            MatchKernel::BitParallel => "bit-parallel",
        })
    }
}

/// Word size of the bit-vector blocks.
const W: usize = 64;

/// Finds the substring of `text` with minimal edit distance to `pattern`
/// using the bit-parallel kernel — a drop-in replacement for
/// [`substring_distance`](crate::sellers::substring_distance) returning a
/// bit-identical result.
///
/// # Examples
///
/// ```
/// use joza_strmatch::myers::myers_substring_distance;
/// use joza_strmatch::sellers::substring_distance;
///
/// let (p, t) = (b"OR 1=1".as_slice(), b"SELECT * FROM t WHERE id=-1 OR 1=1".as_slice());
/// assert_eq!(myers_substring_distance(p, t), substring_distance(p, t));
/// ```
pub fn myers_substring_distance(pattern: &[u8], text: &[u8]) -> SubstringMatch {
    bounded_myers_substring_distance(pattern, text, pattern.len())
        .expect("k = |pattern| always admits the all-deletions match")
}

/// Finds the best approximate occurrence only if its distance is at most
/// `k`; returns `None` otherwise.
///
/// When `Some`, the result is bit-identical to what
/// [`substring_distance`](crate::sellers::substring_distance) would
/// return (and its distance is ≤ `k`); when `None`, every substring of
/// `text` is more than `k` edits from `pattern`. The threshold lets the
/// kernel skip word-blocks and abandon hopeless scans early, which is
/// where the NTI speedup on non-matching (input, query) pairs comes from.
pub fn bounded_myers_substring_distance(
    pattern: &[u8],
    text: &[u8],
    k: usize,
) -> Option<SubstringMatch> {
    let n = pattern.len();
    let m = text.len();
    if n == 0 {
        return Some(SubstringMatch { start: 0, end: 0, distance: 0 });
    }
    // A pattern longer than the whole text by more than k cannot match
    // within k (each unconsumed pattern byte costs one deletion).
    let k = k.min(n);
    if n > m + k {
        return None;
    }
    if m == 0 {
        return Some(SubstringMatch { start: 0, end: 0, distance: n });
    }

    let (d_star, ends) = scan(pattern, text, k)?;
    if d_star == 0 {
        // A distance-0 span is a verbatim occurrence: it ends at the first
        // zero-scoring column and starts exactly |pattern| bytes earlier
        // (the all-diagonal path, which is also what the Sellers tie-break
        // picks). No traceback needed.
        let end = ends[0];
        return Some(SubstringMatch { start: end - n, end, distance: 0 });
    }
    Some(recover_span(pattern, text, d_star, &ends))
}

/// One 64-row block advance (Myers' column update with Hyyrö's carry
/// plumbing). `hin` is the horizontal delta entering the block's top row
/// (-1, 0 or +1); returns the pre-shift `Ph`/`Mh` words so the caller can
/// read the horizontal delta at any row, plus the bit-63 carry for the
/// next block.
#[inline]
fn advance_block(pv: &mut u64, mv: &mut u64, mut eq: u64, hin: i32) -> (u64, u64, i32) {
    let pvv = *pv;
    let mvv = *mv;
    let xv = eq | mvv;
    if hin < 0 {
        eq |= 1;
    }
    let xh = (((eq & pvv).wrapping_add(pvv)) ^ pvv) | eq;
    let ph = mvv | !(xh | pvv);
    let mh = pvv & xh;
    let hout = ((ph >> (W - 1)) & 1) as i32 - ((mh >> (W - 1)) & 1) as i32;
    let mut ph_s = ph << 1;
    let mut mh_s = mh << 1;
    if hin < 0 {
        mh_s |= 1;
    } else if hin > 0 {
        ph_s |= 1;
    }
    *pv = mh_s | !(xv | ph_s);
    *mv = ph_s & xv;
    (ph, mh, hout)
}

/// The bit-parallel scan: minimal last-row score ≤ `k` over all end
/// positions, plus every end position achieving it (in increasing order).
/// Returns `None` when no end position scores ≤ `k`.
///
/// `pattern` and `text` are non-empty and `k ≤ |pattern|`.
fn scan(pattern: &[u8], text: &[u8], k: usize) -> Option<(usize, Vec<usize>)> {
    let n = pattern.len();
    if n <= W {
        return scan_word(pattern, text, k);
    }
    let m = text.len();
    let blocks = n.div_ceil(W);
    let top = blocks - 1;
    let top_bit = (n - 1) % W; // bit of the last real pattern row

    // Peq[b][c]: bit i set iff pattern[b*64 + i] == c.
    let mut peq: Vec<[u64; 256]> = vec![[0u64; 256]; blocks];
    for (i, &pc) in pattern.iter().enumerate() {
        peq[i / W][pc as usize] |= 1u64 << (i % W);
    }

    let bot = |b: usize| ((b + 1) * W).min(n); // rows covered through block b
    let mut pv: Vec<u64> = vec![!0u64; blocks];
    let mut mv: Vec<u64> = vec![0u64; blocks];
    // bscore[b] = DP value at the bottom row of block b for the current
    // column; column 0 has D[i][0] = i.
    let mut bscore: Vec<usize> = (0..blocks).map(bot).collect();

    // Active band: blocks 0..=last are exact; every cell above is > k.
    let mut last = 0usize;
    while last < top && bscore[last] <= k {
        last += 1;
    }

    let mut best = usize::MAX;
    let mut ends: Vec<usize> = Vec::new();
    // Column 0: the empty-text-prefix end position.
    if last == top && n <= k {
        best = n;
        ends.push(0);
    }

    for (j, &tc) in text.iter().enumerate() {
        let mut hin = 0i32; // row 0 is free (semi-global)
        for b in 0..=last {
            let (ph, mh, hout) = advance_block(&mut pv[b], &mut mv[b], peq[b][tc as usize], hin);
            if b == top {
                bscore[b] =
                    (bscore[b] + ((ph >> top_bit) & 1) as usize) - ((mh >> top_bit) & 1) as usize;
            } else {
                bscore[b] = (bscore[b] as isize + hout as isize) as usize;
            }
            hin = hout;
        }

        // Shrink: drop the top active block while all its cells provably
        // exceed k (bottom score ≥ k + 64 ⇒ every row in it > k).
        while last > 0 && bscore[last] >= k + W {
            last -= 1;
        }
        // Grow: reactivate the block above as soon as a ≤ k path could
        // cross its lower boundary, seeding it with the deletion-chain
        // bound from the exact boundary score (exact for paths entering
        // this column; no cheaper path crossed while it was inactive).
        while last < top && bscore[last] <= k {
            last += 1;
            pv[last] = !0;
            mv[last] = 0;
            bscore[last] = bscore[last - 1] + (bot(last) - bot(last - 1));
        }

        if last == top && bscore[top] <= k {
            let s = bscore[top];
            match s.cmp(&best) {
                std::cmp::Ordering::Less => {
                    best = s;
                    ends.clear();
                    ends.push(j + 1);
                    if s == 0 {
                        // No later column can beat distance 0, and the
                        // leftmost zero wins the tie-break.
                        return Some((0, ends));
                    }
                }
                std::cmp::Ordering::Equal => ends.push(j + 1),
                std::cmp::Ordering::Greater => {}
            }
        } else if ends.is_empty() {
            // Tail abandon. Reactivated blocks carry scores that are only
            // exact at ≤ k, but block 0 is never dropped or reseeded, so
            // bscore[0] is the true D at its bottom row; the last row sits
            // at most n - bot(0) rows below it (scores are 1-Lipschitz
            // vertically) and moves by at most 1 per column horizontally,
            // so no remaining end position can score ≤ k once this bound
            // clears k + remaining.
            let lb = bscore[0].saturating_sub(n - bot(0));
            if lb > k + (m - j - 1) {
                return None;
            }
        }
    }

    if best == usize::MAX {
        None
    } else {
        Some((best, ends))
    }
}

/// [`scan`] for a pattern of at most 64 bytes. One block covers every
/// row, so Peq is a single table on the stack, the top row's carry-in is
/// always 0, and there is no band to grow or shrink: the block's bottom
/// score *is* the last-row score. Same answer as the general path,
/// including the early return at the first zero and the tail abandon.
fn scan_word(pattern: &[u8], text: &[u8], k: usize) -> Option<(usize, Vec<usize>)> {
    let n = pattern.len();
    let m = text.len();
    let mut peq = [0u64; 256];
    for (i, &pc) in pattern.iter().enumerate() {
        peq[pc as usize] |= 1u64 << i;
    }
    let last_row = 1u64 << (n - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut score = n;
    let mut best = usize::MAX;
    let mut ends: Vec<usize> = Vec::new();
    if n <= k {
        best = n;
        ends.push(0);
    }
    for (j, &tc) in text.iter().enumerate() {
        let (ph, mh, _) = advance_block(&mut pv, &mut mv, peq[tc as usize], 0);
        score = score + usize::from(ph & last_row != 0) - usize::from(mh & last_row != 0);
        if score <= k {
            match score.cmp(&best) {
                std::cmp::Ordering::Less => {
                    best = score;
                    ends.clear();
                    ends.push(j + 1);
                    if score == 0 {
                        return Some((0, ends));
                    }
                }
                std::cmp::Ordering::Equal => ends.push(j + 1),
                std::cmp::Ordering::Greater => {}
            }
        } else if ends.is_empty() && score > k + (m - j - 1) {
            // Tail abandon, as in `scan`: the score moves by at most 1 per
            // column.
            return None;
        }
    }
    (best != usize::MAX).then_some((best, ends))
}

/// Recovers the exact winning span: runs the classic Sellers traceback on
/// the window around the candidate end positions (every column a winning
/// path can touch, so the windowed DP decisions match the full DP's) and
/// applies `substring_distance`'s tie-break — minimal difference ratio,
/// then leftmost — among the minimal-distance candidates.
fn recover_span(pattern: &[u8], text: &[u8], d_star: usize, ends: &[usize]) -> SubstringMatch {
    let n = pattern.len();
    let lo = ends[0];
    let hi = *ends.last().expect("at least one candidate end");
    // A winning path at end j spans columns ≥ j - n - d*; its DP decisions
    // compare cells whose values are window-exact once the window starts
    // 2n columns earlier still (cell (i, c) only depends on text starts
    // ≥ c - 2i). 3n + d* + 1 before the first candidate covers both.
    let w = lo.saturating_sub(3 * n + d_star + 1);
    let (dist, start) = final_row(pattern, &text[w..hi]);

    let mut best: Option<(f64, SubstringMatch)> = None;
    for &end in ends {
        debug_assert_eq!(
            dist[end - w],
            d_star,
            "windowed Sellers disagrees with bit-parallel scan"
        );
        let cand = SubstringMatch { start: start[end - w] + w, end, distance: d_star };
        let key = ratio_key(d_star, cand.len());
        if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
            best = Some((key, cand));
        }
    }
    best.expect("candidate list is non-empty").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sellers::substring_distance;

    fn assert_identical(p: &[u8], t: &[u8]) {
        let classic = substring_distance(p, t);
        let fast = myers_substring_distance(p, t);
        assert_eq!(fast, classic, "pattern {:?} text {:?}", p, t);
    }

    #[test]
    fn matches_classic_on_basics() {
        assert_identical(b"abc", b"xxabcxx");
        assert_identical(b"abc", b"abc");
        assert_identical(b"abc", b"");
        assert_identical(b"", b"anything");
        assert_identical(b"color", b"the colour red");
        assert_identical(b"abcd", b"abxd...abcd");
        assert_identical(b"OR 1=1", b"SELECT * FROM t WHERE id=-1 OR 1=1");
        assert_identical(b"don't", b"WHERE name='don\\'t'");
    }

    #[test]
    fn matches_classic_on_dense_ties() {
        // Low-alphabet texts exercise the equal-distance tie-breaks.
        assert_identical(b"ab", b"aaaaabbbbbaaaa");
        assert_identical(b"aba", b"ababababab");
        assert_identical(b"aa", b"bbbb");
        assert_identical(b"abab", b"ba");
    }

    #[test]
    fn multiword_pattern_exact_containment() {
        // Pattern spans three 64-bit blocks.
        let p: Vec<u8> = (0..150u32).map(|i| b'a' + (i % 23) as u8).collect();
        let mut t = b"prefix---".to_vec();
        t.extend_from_slice(&p);
        t.extend_from_slice(b"---suffix");
        let m = myers_substring_distance(&p, &t);
        assert_eq!(m.distance, 0);
        assert_eq!(m.range(), 9..9 + p.len());
        assert_identical(&p, &t);
    }

    #[test]
    fn multiword_pattern_with_errors() {
        let p: Vec<u8> = (0..100u32).map(|i| b'a' + (i % 17) as u8).collect();
        let mut noisy = p.clone();
        noisy[10] = b'!';
        noisy[70] = b'?';
        noisy.remove(40);
        let mut t = b"xx".to_vec();
        t.extend_from_slice(&noisy);
        t.extend_from_slice(b"yy");
        assert_identical(&p, &t);
        let m = myers_substring_distance(&p, &t);
        assert_eq!(m.distance, 3);
    }

    #[test]
    fn exactly_64_and_65_byte_patterns() {
        for n in [63usize, 64, 65, 128, 129] {
            let p: Vec<u8> = (0..n).map(|i| b'a' + (i % 11) as u8).collect();
            let mut t = b"...".to_vec();
            t.extend_from_slice(&p[..n - 1]); // one deletion
            t.extend_from_slice(b"...");
            assert_identical(&p, &t);
        }
    }

    #[test]
    fn bounded_none_when_above_cutoff() {
        assert!(bounded_myers_substring_distance(b"abcdefgh", b"zzzzzzzzzzzz", 2).is_none());
    }

    #[test]
    fn bounded_some_matches_classic() {
        let m = bounded_myers_substring_distance(b"hello", b"say hallo there", 1).unwrap();
        assert_eq!(m, substring_distance(b"hello", b"say hallo there"));
        assert_eq!(m.distance, 1);
    }

    #[test]
    fn bounded_boundary_is_exact() {
        // Distance is exactly k: must be Some; k-1: must be None.
        let (p, t) = (b"abcdef".as_slice(), b"abXdef and more".as_slice());
        let d = substring_distance(p, t).distance;
        assert!(bounded_myers_substring_distance(p, t, d).is_some());
        if d > 0 {
            assert!(bounded_myers_substring_distance(p, t, d - 1).is_none());
        }
    }

    #[test]
    fn cutoff_skips_blocks_but_stays_exact() {
        // Long pattern + tight k: the block cutoff is exercised hard, the
        // answer must still be exact when the match exists.
        let p: Vec<u8> = (0..200usize).map(|i| b'a' + (i % 7) as u8).collect();
        let mut t: Vec<u8> = b"zzzz".iter().copied().cycle().take(300).collect();
        t.extend_from_slice(&p);
        t.extend_from_slice(b"zq");
        let m = bounded_myers_substring_distance(&p, &t, 3).unwrap();
        assert_eq!(m, substring_distance(&p, &t));
        assert_eq!(m.distance, 0);
    }

    #[test]
    fn empty_pattern_and_empty_text() {
        assert_eq!(
            myers_substring_distance(b"", b"xyz"),
            SubstringMatch { start: 0, end: 0, distance: 0 }
        );
        assert_eq!(
            myers_substring_distance(b"abc", b""),
            SubstringMatch { start: 0, end: 0, distance: 3 }
        );
        assert!(bounded_myers_substring_distance(b"abc", b"", 2).is_none());
        assert!(bounded_myers_substring_distance(b"abc", b"", 3).is_some());
    }

    #[test]
    fn kernel_display_names() {
        assert_eq!(MatchKernel::Classic.to_string(), "classic");
        assert_eq!(MatchKernel::BitParallel.to_string(), "bit-parallel");
        assert_eq!(MatchKernel::default(), MatchKernel::BitParallel);
    }
}
