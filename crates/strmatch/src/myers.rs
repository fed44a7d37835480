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
//! The scan yields the minimal distance `d*` and every end position
//! achieving it. **Span recovery** then finds, for each candidate end,
//! the start that the classic Sellers traceback reaches, without the
//! scalar DP. A winning span ends at its candidate and is at most `|p| +
//! d*` bytes long, so the DP restarted free `|p| + d*` columns before the
//! first candidate holds, on every optimal path, the same values and the
//! same tie-break decisions as the full DP. Recovery re-runs the
//! bit-parallel column update over that window, keeping a checkpoint
//! every `√cols` columns (at least 64), and then walks the traceback
//! backward from each candidate end, recomputing one stretch of columns
//! at a time from its checkpoint. The walk reads Sellers' choice (diagonal, then deletion,
//! then insertion) off the stored score deltas. Rows below the band an
//! optimal path can reach are never computed. Recovery thus advances at
//! most `2·⌈|p|/64⌉` DP words per text column, counted by
//! [`bounded_myers_substring_distance_metered`]. The final span is chosen
//! with exactly the tie-break rules of
//! [`substring_distance`](crate::sellers::substring_distance): verdicts
//! and spans are bit-identical to the classic kernel (property-tested in
//! `tests/proptests.rs`).

use crate::sellers::{ratio_key, SubstringMatch};

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
    bounded_myers_substring_distance_metered(pattern, text, k, &mut 0)
}

/// [`bounded_myers_substring_distance`], adding to `recovery_words` the
/// number of DP words (one 64-row block advanced by one text byte) that
/// span recovery spent. Recovery advances at most `2·⌈|p|/64⌉` words per
/// text column, so the count stays within `2·⌈|p|/64⌉·|text|`.
///
/// # Examples
///
/// ```
/// use joza_strmatch::myers::bounded_myers_substring_distance_metered;
///
/// let mut words = 0;
/// let m = bounded_myers_substring_distance_metered(b"don't", b"name='don\\'t'", 1, &mut words);
/// assert_eq!(m.map(|m| (m.range(), m.distance)), Some((6..12, 1)));
/// assert!(words <= 2 * 13);
/// ```
pub fn bounded_myers_substring_distance_metered(
    pattern: &[u8],
    text: &[u8],
    k: usize,
    recovery_words: &mut u64,
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
    Some(recover_span(pattern, text, d_star, &ends, recovery_words))
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

/// Peq for a pattern of any length, laid out byte-major: word `c·B + b`
/// (with `B = ⌈|p|/64⌉`) has bit `i` set iff `pattern[b·64 + i] == c`, so
/// the words one text byte selects are contiguous.
fn peq_by_byte(pattern: &[u8]) -> Vec<u64> {
    let blocks = pattern.len().div_ceil(W);
    let mut peq = vec![0u64; 256 * blocks];
    for (i, &pc) in pattern.iter().enumerate() {
        peq[pc as usize * blocks + i / W] |= 1u64 << (i % W);
    }
    peq
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

    let peq = peq_by_byte(pattern);

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
        let eqs = &peq[tc as usize * blocks..][..blocks];
        let mut hin = 0i32; // row 0 is free (semi-global)
        for b in 0..=last {
            let (ph, mh, hout) = advance_block(&mut pv[b], &mut mv[b], eqs[b], hin);
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

/// Recovers the exact winning span. Each candidate end's winning span
/// starts at most `|p| + d*` columns before it (a longer span costs more
/// than `d*` insertions), so the ends are grouped into windows that reach
/// that far back, and [`Window::starts`] walks Sellers' traceback inside
/// each. Among the candidates, `substring_distance`'s tie-break picks the
/// minimal difference ratio, then the leftmost end.
fn recover_span(
    pattern: &[u8],
    text: &[u8],
    d_star: usize,
    ends: &[usize],
    words: &mut u64,
) -> SubstringMatch {
    let reach = pattern.len() + d_star;
    let peq = peq_by_byte(pattern);
    let mut best: Option<(f64, SubstringMatch)> = None;
    let mut rest = ends;
    while !rest.is_empty() {
        // An end joins the group while its window overlaps the group's.
        let len = 1 + rest.windows(2).take_while(|p| p[1].saturating_sub(reach) <= p[0]).count();
        let (group, tail) = rest.split_at(len);
        rest = tail;
        let window = Window::new(pattern, text, &peq, d_star, group, words);
        for (&end, start) in group.iter().zip(window.starts(group, words)) {
            let cand = SubstringMatch { start, end, distance: d_star };
            let key = ratio_key(d_star, cand.len());
            if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                best = Some((key, cand));
            }
        }
    }
    best.expect("candidate list is non-empty").1
}

/// The semi-global DP over the text columns `w..=hi` that a group of
/// candidate ends `lo..=hi` needs, started free at `w = lo − |p| − d*`
/// (or 0) as if the text began there.
///
/// Every optimal path to a candidate end lies inside the window, and so
/// inside a band: a cell `(i, c)` on one has `|(|p| − i) − (e − c)| ≤
/// d*`. Windowed values are never smaller than the full DP's and are
/// exact on every cell an optimal path reaches, so Sellers' tie-break
/// decisions along the traceback are the full DP's. Rows past the band's
/// last row are not computed: a row depends only on the rows above it, and a
/// block that enters the band starts from the deletion chain from the
/// block above, an upper bound that leaves the on-path cells exact.
///
/// The forward pass keeps one column in every `stride` (a checkpoint, at
/// least [`MIN_STRIDE`] apart); the traceback then recomputes one stride
/// of columns at a time, right to left, storing only the rows its cursors
/// can still reach. Memory stays `O(√cols · ⌈|p|/64⌉)` words, and the
/// whole recovery advances at most `2 · cols · ⌈|p|/64⌉` DP words.
struct Window<'a> {
    pattern: &'a [u8],
    text: &'a [u8],
    d_star: usize,
    w: usize,
    hi: usize,
    /// The band's last row at column `c` is `min(|p|, c − w + lift)`.
    lift: usize,
    blocks: usize,
    stride: usize,
    /// Peq, byte-major ([`peq_by_byte`]).
    peq: &'a [u64],
    /// `(Pv, Mv)` of columns `w`, `w + stride`, …, `blocks` words each.
    checkpoints: Vec<u64>,
}

/// Fewest columns between two checkpoints: a window this narrow is one
/// stretch, recomputed once, with no forward pass at all.
const MIN_STRIDE: usize = 64;

/// Vertical or horizontal score delta of row `row` (1-based) from a pair
/// of plus/minus bit-vectors whose word 0 is block `first` and whose bit
/// `r` stands for row `r + 1` of its block.
#[inline]
fn delta(plus: &[u64], minus: &[u64], first: usize, row: usize) -> i32 {
    let (b, bit) = ((row - 1) / W - first, (row - 1) % W);
    ((plus[b] >> bit) & 1) as i32 - ((minus[b] >> bit) & 1) as i32
}

impl<'a> Window<'a> {
    /// Runs the forward pass for the ascending candidate ends `group`,
    /// keeping checkpoints.
    fn new(
        pattern: &'a [u8],
        text: &'a [u8],
        peq: &'a [u64],
        d_star: usize,
        group: &[usize],
        words: &mut u64,
    ) -> Self {
        let (n, lo, hi) = (pattern.len(), group[0], group[group.len() - 1]);
        let w = lo.saturating_sub(n + d_star);
        let blocks = n.div_ceil(W);
        let cols = hi - w;
        let mut window = Window {
            pattern,
            text,
            d_star,
            w,
            hi,
            lift: w + n + d_star - lo,
            blocks,
            stride: cols.isqrt().max(MIN_STRIDE),
            peq,
            checkpoints: Vec::new(),
        };
        // Checkpoints at `w`, `w + stride`, … up to the last stretch's
        // start; the columns after it are recomputed anyway.
        let last = w + cols.saturating_sub(1) / window.stride * window.stride;
        let (mut pv, mut mv) = (vec![!0u64; blocks], vec![0u64; blocks]);
        let mut checkpoints = Vec::with_capacity((cols / window.stride + 1) * 2 * blocks);
        for c in w..=last {
            if (c - w).is_multiple_of(window.stride) {
                checkpoints.extend_from_slice(&pv);
                checkpoints.extend_from_slice(&mv);
            }
            if c < last {
                *words += window.advance(c, &mut pv, &mut mv, blocks, None) as u64;
            }
        }
        window.checkpoints = checkpoints;
        window
    }

    /// The last block holding a band row at column `c`.
    fn last_block(&self, c: usize) -> usize {
        (c - self.w + self.lift).clamp(1, self.pattern.len()).div_ceil(W) - 1
    }

    /// Advances column `c` to `c + 1` over the band's blocks below
    /// `limit` and returns the number of blocks advanced. A block that
    /// enters the band has not been advanced since column `w`, so it still
    /// holds that column's `+1` per row: the deletion chain from the block
    /// above. With `hs`, block `b`'s pre-shift `Ph` and `Mh` words (its
    /// horizontal deltas) are handed to `hs(b, ph, mh)`.
    #[inline]
    fn advance(
        &self,
        c: usize,
        pv: &mut [u64],
        mv: &mut [u64],
        limit: usize,
        mut hs: Option<&mut dyn FnMut(usize, u64, u64)>,
    ) -> usize {
        let next = self.last_block(c + 1).min(limit - 1);
        let eqs = &self.peq[self.text[c] as usize * self.blocks..][..=next];
        let mut hin = 0i32;
        for (b, &eq) in eqs.iter().enumerate() {
            let (ph, mh, hout) = advance_block(&mut pv[b], &mut mv[b], eq, hin);
            if let Some(hs) = hs.as_deref_mut() {
                hs(b, ph, mh);
            }
            hin = hout;
        }
        next + 1
    }

    /// The start Sellers' traceback reaches from `(|p|, e)` for each end
    /// `e` of the window's group, in the group's order.
    fn starts(&self, ends: &[usize], words: &mut u64) -> Vec<usize> {
        let (n, stride) = (self.pattern.len(), self.stride);
        // Cursors `(row, column)`; a finished one has row 0 or sits on
        // column `w`, and its column is then the start.
        let mut cursors: Vec<(usize, usize)> = ends.iter().map(|&e| (n, e)).collect();
        let (mut seg, mut pv, mut mv) =
            (Vec::new(), vec![0u64; self.blocks], vec![0u64; self.blocks]);
        let mut a = self.w + (self.hi - self.w).saturating_sub(1) / stride * stride;
        loop {
            let live = || cursors.iter().zip(ends).filter(|((i, c), _)| *i > 0 && *c > a);
            if live().next().is_some() {
                // Rows the live cursors can still read left of their
                // column: none below their band (row i − 1 included), none
                // above where they stand.
                let hi_row = live().map(|((i, _), _)| *i).max().expect("a live cursor");
                let lo_row = live()
                    .map(|(_, &e)| (n + a + 1).saturating_sub(e + self.d_star).max(2) - 1)
                    .min()
                    .expect("a live cursor");
                let (first, last) = ((lo_row - 1) / W, (hi_row - 1) / W);
                let width = last + 1 - first;
                let b = (a + stride).min(self.hi);
                let cp = (a - self.w) / stride * 2 * self.blocks;
                pv.copy_from_slice(&self.checkpoints[cp..cp + self.blocks]);
                mv.copy_from_slice(&self.checkpoints[cp + self.blocks..cp + 2 * self.blocks]);
                seg.clear();
                seg.resize((b - a) * 4 * width, 0);
                for (k, col) in seg.chunks_exact_mut(4 * width).enumerate() {
                    let (pm, hs) = col.split_at_mut(2 * width);
                    let mut keep = |blk: usize, ph: u64, mh: u64| {
                        if (first..=last).contains(&blk) {
                            hs[blk - first] = ph;
                            hs[width + blk - first] = mh;
                        }
                    };
                    *words +=
                        self.advance(a + k, &mut pv, &mut mv, last + 1, Some(&mut keep)) as u64;
                    let band = first..=last.min(self.last_block(a + k + 1));
                    pm[..band.clone().count()].copy_from_slice(&pv[band.clone()]);
                    pm[width..width + band.clone().count()].copy_from_slice(&mv[band]);
                }
                for cursor in cursors.iter_mut().filter(|(i, c)| *i > 0 && *c > a) {
                    self.walk(cursor, a, first, width, &seg);
                }
            }
            if a == self.w {
                break;
            }
            a -= stride;
        }
        cursors.into_iter().map(|(_, c)| c).collect()
    }

    /// Follows Sellers' traceback from `cursor` while it stays in the
    /// stride of columns `a + 1..` held by `seg` (`width` blocks from
    /// `first` on), choosing, as `final_row` does, the diagonal, then the
    /// deletion (up), then the insertion (left): the first predecessor
    /// whose score plus its step cost equals the cell's. The deltas decide
    /// that without the scores: with `dv` and `dh` the cell's vertical and
    /// horizontal deltas, the diagonal is tight when its substitution cost
    /// equals `dv` plus the horizontal delta of the row above, the
    /// deletion when `dv = +1`, and otherwise the insertion (`dh = +1`).
    fn walk(&self, cursor: &mut (usize, usize), a: usize, first: usize, width: usize, seg: &[u64]) {
        let (mut i, mut c) = *cursor;
        while i > 0 && c > a {
            let col = &seg[(c - a - 1) * 4 * width..(c - a) * 4 * width];
            let (pv, rest) = col.split_at(width);
            let (mv, rest) = rest.split_at(width);
            let (ph, mh) = rest.split_at(width);
            let dv = delta(pv, mv, first, i);
            let dh_above = if i > 1 { delta(ph, mh, first, i - 1) } else { 0 };
            let cost = i32::from(self.pattern[i - 1] != self.text[c - 1]);
            if cost == dv + dh_above {
                i -= 1;
                c -= 1;
            } else if dv == 1 {
                i -= 1;
            } else {
                debug_assert_eq!(delta(ph, mh, first, i), 1, "no tight predecessor at ({i}, {c})");
                c -= 1;
            }
        }
        *cursor = (i, c);
    }
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

    /// Recovery advances at most two DP words per block and text column:
    /// one forward pass with checkpoints, one recomputation while walking
    /// back.
    fn assert_recovery_linear(p: &[u8], t: &[u8], k: usize) -> SubstringMatch {
        let mut words = 0;
        let m = bounded_myers_substring_distance_metered(p, t, k, &mut words).expect("within k");
        let bound = 2 * p.len().div_ceil(W) * t.len();
        assert!(words <= bound as u64, "{words} DP words > {bound} for |p| = {}", p.len());
        m
    }

    #[test]
    fn recovery_words_stay_linear_on_escaped_comments() {
        // A magic-quoted comment body: the span is the whole escaped copy,
        // one inserted backslash per apostrophe.
        let unit = "it's the author's dog's bone, isn't it? ";
        for len in [1024, 4096, 16384] {
            let body: String = unit.chars().cycle().take(len).collect();
            let query = format!("INSERT INTO c VALUES ('{}')", body.replace('\'', "\\'"));
            let quotes = body.matches('\'').count();
            let m = assert_recovery_linear(body.as_bytes(), query.as_bytes(), len / 4);
            assert_eq!((m.start, m.end, m.distance), (23, query.len() - 2, quotes), "{len} bytes");
        }
    }

    #[test]
    fn recovery_words_stay_linear_with_many_candidate_ends() {
        // `a^200` against `(a^199 b)^20`: every end inside the text scores
        // 1, so nearly every column is a candidate end.
        let p = vec![b'a'; 200];
        let t: Vec<u8> = (0..20).flat_map(|_| [&[b'a'; 199][..], b"b"].concat()).collect();
        let m = assert_recovery_linear(&p, &t, 50);
        assert_eq!(m, substring_distance(&p, &t));
        assert_eq!(m.distance, 1);
    }

    #[test]
    fn kernel_display_names() {
        assert_eq!(MatchKernel::Classic.to_string(), "classic");
        assert_eq!(MatchKernel::BitParallel.to_string(), "bit-parallel");
        assert_eq!(MatchKernel::default(), MatchKernel::BitParallel);
    }
}
