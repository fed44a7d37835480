#![warn(missing_docs)]
//! Negative taint inference (NTI) — §III-A of the Joza paper.
//!
//! NTI "infers taint markings by correlating application inputs with query
//! strings": for each captured input it finds the best approximate match
//! inside the intercepted query (Sellers semi-global alignment) and, when
//! the *difference ratio* — edit distance divided by matched-substring
//! length — falls below a threshold, marks that query span as negatively
//! tainted. An attack is reported when a tainted span fully covers at
//! least one critical token.
//!
//! Faithfully reproduced rules:
//!
//! * markings inferred from different inputs are **never combined**
//!   (payload-construction attacks must defeat NTI on a single input);
//! * inputs shorter than three bytes are skipped and a marking must cover at least one
//!   **whole SQL token** — both anti-false-positive measures from the
//!   paper;
//! * the threshold trades false positives (too high) against false
//!   negatives (too low); the paper's evasions exploit exactly this.
//!
//! Optimizations (§VI-B) skip implausible input/query pairs before the
//! quadratic alignment runs. They all work from one **distance cutoff**
//! `k` ([`distance_cutoff`]): the largest distance whose longest possible
//! span, `|p| + k` bytes, still passes the ratio filter, computed with the
//! filter's own `f64` expression. A match farther than `k` cannot become a
//! marking, so a filter may skip any pair it proves has none within `k`.
//! Each input that reaches the filters meets them in this order:
//!
//! 1. the **length check**: an input longer than the query by more than
//!    `k` cannot match. Case folding keeps the length, so this runs on the
//!    raw input, before the fold;
//! 2. under [`MatchKernel::BitParallel`], the **verbatim search** (below);
//!    a hit is the comparison's answer and skips the rest;
//! 3. for a *short* input, whose q-gram bound could not exceed `k + 1`
//!    (at most `⌈(|p| − 2)/3⌉` missing-gram edits; every input of up to
//!    11 bytes at threshold 0.2), the **piece filter**: the input is split
//!    into `k + 1` pieces of at least 3 bytes, and if none of them occurs
//!    in the query, no span is within `k` (the partition lemma: `k` edits
//!    leave one piece untouched). Each piece is tested with
//!    `str::contains`, which decides absence with SIMD. It runs in both
//!    kernels, and a short input never builds the query's q-gram profile.
//!    A short input too short for such pieces goes straight to the kernel;
//! 4. for a longer input, the **q-gram prefilter**: the query's q-gram
//!    profile is built lazily, only once some input reaches this check,
//!    as sorted packed grams in a recycled buffer (no hashing).
//!
//! [`NtiWork`], returned beside the report, counts what these filters
//! scanned and probed.
//!
//! The verbatim search looks for the input *verbatim* in the normalized
//! query with [`swar::find_str`], which returns exactly `str::find`'s
//! answer. For an input of 32 bytes or more it anchors candidates on the
//! input's first and last bytes, eight start positions per word, and
//! verifies each a word at a time; past a verification budget of one
//! query length it hands the rest to `str::find` (std's Two-Way search),
//! so it stays linear in the worst case. A shorter input is tested with
//! `str::contains` and goes to `str::find` only when present. A
//! hit is taken as the comparison's result directly — the leftmost
//! occurrence at distance 0 — and is exactly what the q-gram prefilter
//! plus kernel would report: the prefilter cannot skip a distance-0 pair
//! (all the input's q-grams occur in the query), so the pair counts as
//! one comparison run (and every piece of it occurs, so the piece filter
//! cannot skip it either); the Myers scan stops at its first zero-scoring
//! column, whose span is the leftmost occurrence; and Sellers' tie-break
//! (minimal distance, then minimal ratio — 0 for every exact span — then
//! leftmost) picks the same one. An input the application embeds
//! unchanged, such as a quote-free comment body, thus costs one pass over
//! the query up to it and one over itself, instead of a q-gram profile
//! and an `O(|p|·|q|/64)` alignment; an input it alters (an escaped
//! quote, trimmed whitespace) misses the search and takes the full path.
//! [`MatchKernel::Classic`] skips the shortcut and stays the differential
//! oracle.
//!
//! # Examples
//!
//! ```
//! use joza_nti::{NtiAnalyzer, NtiConfig};
//!
//! let nti = NtiAnalyzer::new(NtiConfig::default());
//!
//! // Benign: the input only covers a numeric literal.
//! let r = nti.analyze(&["5"], "SELECT * FROM data WHERE ID=5");
//! assert!(!r.is_attack());
//!
//! // Tautology: the input covers the critical tokens `OR` and `=`.
//! let r = nti.analyze(&["-1 OR 1=1"], "SELECT * FROM data WHERE ID=-1 OR 1=1");
//! assert!(r.is_attack());
//! ```

use joza_sqlparse::critical::{critical_tokens, CriticalPolicy};
use joza_sqlparse::lexer::lex;
use joza_sqlparse::token::Token;
use joza_strmatch::myers::bounded_myers_substring_distance;
pub use joza_strmatch::myers::MatchKernel;
use joza_strmatch::normalize::{to_lower, to_lower_into};
use joza_strmatch::qgram::{self, QgramProfile};
use joza_strmatch::sellers::{substring_distance, SubstringMatch};
use joza_strmatch::swar;

mod set;
pub use set::InputSet;

/// Configuration for the NTI analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct NtiConfig {
    /// Maximum difference ratio for a match (§III-A). The paper's running
    /// example uses 20%.
    pub threshold: f64,
    /// Which approximate-matching kernel runs the §III-A alignment. Both
    /// kernels produce bit-identical markings and verdicts;
    /// [`MatchKernel::BitParallel`] is the production default,
    /// [`MatchKernel::Classic`] is kept for the Fig. 7-style ablation.
    pub kernel: MatchKernel,
    /// Critical-token policy shared with PTI.
    pub critical: CriticalPolicy,
}

impl Default for NtiConfig {
    fn default() -> Self {
        NtiConfig {
            threshold: 0.20,
            kernel: MatchKernel::default(),
            critical: CriticalPolicy::default(),
        }
    }
}

/// One inferred negative-taint marking.
#[derive(Debug, Clone, PartialEq)]
pub struct TaintMark {
    /// Index of the input (in the order given to
    /// [`NtiAnalyzer::analyze`]) that produced this marking.
    pub input_index: usize,
    /// Tainted query byte span.
    pub start: usize,
    /// One past the end of the tainted span.
    pub end: usize,
    /// Edit distance between the input and the matched span.
    pub distance: usize,
    /// `distance / (end - start)`.
    pub diff_ratio: f64,
}

/// The outcome of one NTI analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NtiReport {
    /// All markings inferred (one per matching input at most).
    pub markings: Vec<TaintMark>,
    /// Critical tokens fully covered by some marking — the attack
    /// evidence. `(marking index, token)` pairs.
    pub tainted_critical: Vec<(usize, Token)>,
    /// Number of input/query comparisons skipped by the prefilters.
    pub comparisons_skipped: usize,
    /// Number of full alignment computations performed.
    pub comparisons_run: usize,
}

impl NtiReport {
    /// Whether NTI flags this query as an attack.
    pub fn is_attack(&self) -> bool {
        !self.tainted_critical.is_empty()
    }
}

/// What the filters of one analysis did before any alignment ran:
/// deterministic counts, returned beside the [`NtiReport`] (two
/// analyses with equal reports may differ here: the Classic kernel
/// makes no verbatim search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NtiWork {
    /// Query bytes under presence tests (the verbatim search and the
    /// piece tests), the whole normalized query counted per test.
    pub presence_bytes: u64,
    /// Input q-grams merged against the query's q-gram profile.
    pub gram_probes: u64,
    /// Query q-grams sorted into the profile, which is built at most
    /// once per analysis.
    pub query_grams: u64,
}

impl NtiWork {
    /// All the work in one figure: bytes tested plus grams probed plus
    /// grams built.
    pub fn total(&self) -> u64 {
        self.presence_bytes + self.gram_probes + self.query_grams
    }
}

/// A parse-once view of the query under analysis: the artifacts
/// [`NtiAnalyzer::analyze`] would otherwise recompute per call (lexing,
/// critical-token extraction, case folding), precomputed by the caller
/// and shared with the other detection stages.
#[derive(Debug, Clone, Copy)]
pub struct QueryView<'q> {
    /// The original query text.
    pub query: &'q str,
    /// Critical tokens of `query` under the analyzer's
    /// [`NtiConfig::critical`] policy.
    pub criticals: &'q [Token],
    /// The query bytes in the analyzer's match normalization: ASCII
    /// case-folded.
    pub normalized: &'q [u8],
}

/// The inputs one analysis compares with the query.
#[derive(Debug, Clone, Copy)]
pub enum Inputs<'a> {
    /// Raw values; a marking's `input_index` is the value's position.
    Values(&'a [&'a str]),
    /// A request's [`InputSet`] plus values scoped to this query alone:
    /// the set's entries are inputs `0..set.len()`, the values follow.
    Set(&'a InputSet, &'a [&'a str]),
}

/// The NTI analysis component.
#[derive(Debug, Clone, Default)]
pub struct NtiAnalyzer {
    config: NtiConfig,
}

impl NtiAnalyzer {
    /// Creates an analyzer.
    pub fn new(config: NtiConfig) -> Self {
        NtiAnalyzer { config }
    }

    /// The analyzer's configuration.
    pub fn config(&self) -> &NtiConfig {
        &self.config
    }

    /// Analyzes one query against the captured raw inputs.
    ///
    /// Inputs are the *raw* request values (pre-transformation, §IV-B);
    /// markings from different inputs are never combined.
    pub fn analyze(&self, inputs: &[&str], query: &str) -> NtiReport {
        self.analyze_inputs(Inputs::Values(inputs), query).0
    }

    /// [`NtiAnalyzer::analyze`] over an [`InputSet`]: entry `i` is input
    /// `i` of the report. Returns the filters' work beside it.
    pub fn analyze_set(&self, set: &InputSet, query: &str) -> (NtiReport, NtiWork) {
        self.analyze_inputs(Inputs::Set(set, &[]), query)
    }

    fn analyze_inputs(&self, inputs: Inputs<'_>, query: &str) -> (NtiReport, NtiWork) {
        let tokens = lex(query);
        let criticals = critical_tokens(&tokens, self.config.critical);
        let query_bytes = to_lower(query.as_bytes());
        let view = QueryView { query, criticals: &criticals, normalized: &query_bytes };
        self.analyze_view_with(inputs, view, &mut Vec::new(), &mut Vec::new())
    }

    /// [`NtiAnalyzer::analyze`] over precomputed query artifacts — the
    /// parse-once entry point. The caller supplies the critical tokens and
    /// normalized bytes (see [`QueryView`]) plus two scratch buffers whose
    /// capacity is reused: `fold_scratch` holds a raw value's case-folded
    /// copy when the value actually contains uppercase ASCII (set entries
    /// keep their own fold), and `gram_scratch` holds the query's q-gram
    /// profile, built only if some input reaches the q-gram check. The
    /// engine passes buffers leased from its per-thread check arena,
    /// making the per-input loop allocation-free at steady state.
    ///
    /// Verdicts, markings, and counters are bit-identical to
    /// [`NtiAnalyzer::analyze`] over the same values (for a set, its
    /// distinct values in entry order, then the extra values) when the
    /// view matches what that method would compute itself.
    pub fn analyze_view_with(
        &self,
        inputs: Inputs<'_>,
        view: QueryView<'_>,
        fold_scratch: &mut Vec<u8>,
        gram_scratch: &mut Vec<u64>,
    ) -> (NtiReport, NtiWork) {
        let mut pass = Pass {
            kernel: self.config.kernel,
            threshold: self.config.threshold,
            view,
            // The verbatim search and the piece filter run on `str`s.
            // Case folding changes ASCII bytes only, so a view built from
            // a query is UTF-8; any other view skips both.
            query_str: std::str::from_utf8(view.normalized).ok(),
            profile: QgramProfile::new(view.normalized, QGRAM, gram_scratch),
            report: NtiReport::default(),
            work: NtiWork::default(),
        };
        let extra = match inputs {
            Inputs::Values(values) => values,
            Inputs::Set(set, extra) => {
                for (idx, e) in set.entries.iter().enumerate() {
                    let p = set.folded(e);
                    if p.len() < MIN_INPUT_LEN {
                        continue;
                    }
                    if let Some(k) = pass.length_check(p.len()) {
                        pass.compare(idx, p.as_bytes(), Some(p), k, Keys::Cached(set, e));
                    }
                }
                extra
            }
        };
        let first = match inputs {
            Inputs::Values(_) => 0,
            Inputs::Set(set, _) => set.len(),
        };
        for (idx, input) in (first..).zip(extra) {
            if input.len() < MIN_INPUT_LEN {
                continue;
            }
            // Folding keeps the length, so the length check runs first.
            let Some(k) = pass.length_check(input.len()) else {
                continue;
            };
            let bytes = input.as_bytes();
            let folded = match swar::first_ascii_upper(bytes) {
                Some(first) => {
                    fold_scratch.clear();
                    fold_scratch.extend_from_slice(&bytes[..first]);
                    to_lower_into(&bytes[first..], fold_scratch);
                    true
                }
                None => false,
            };
            let input_bytes: &[u8] = if folded { fold_scratch } else { bytes };
            // Folding keeps UTF-8 valid, so only a folded copy needs
            // checking.
            let input_str =
                if folded { std::str::from_utf8(input_bytes).ok() } else { Some(*input) };
            pass.compare(idx, input_bytes, input_str, k, Keys::Fresh);
        }
        if let Some(grams) = pass.profile.text_grams() {
            pass.work.query_grams += grams as u64;
        }
        (pass.report, pass.work)
    }
}

/// Where an input's sorted q-gram keys come from.
enum Keys<'e> {
    /// A set entry's, built on first use and kept for the request.
    Cached(&'e InputSet, &'e set::Entry),
    /// Sorted into the profile's buffer for this comparison alone.
    Fresh,
}

/// One analysis in progress: the query-side structures, built at most
/// once, and the report.
struct Pass<'v, 's> {
    kernel: MatchKernel,
    threshold: f64,
    view: QueryView<'v>,
    query_str: Option<&'v str>,
    profile: QgramProfile<'v, 's>,
    report: NtiReport,
    work: NtiWork,
}

impl Pass<'_, '_> {
    /// The length check: the distance cutoff of an input of `len` bytes
    /// when such an input can match the query within it; otherwise
    /// counts the skip.
    fn length_check(&mut self, len: usize) -> Option<usize> {
        let k = distance_cutoff(self.threshold, len)
            .filter(|&k| qgram::length_plausible(len, self.view.normalized.len(), k));
        if k.is_none() {
            self.report.comparisons_skipped += 1;
        }
        k
    }

    /// Runs the filters and, unless one skips the pair, the kernel for
    /// input `idx`: `p` is its folded bytes (`text` the same as a `str`,
    /// when UTF-8), `k` its distance cutoff.
    fn compare(&mut self, idx: usize, p: &[u8], text: Option<&str>, k: usize, keys: Keys<'_>) {
        // A short input's q-gram bound could not prune even one distance
        // past the cutoff, so it never builds the query's profile; its
        // pieces stand in for the bound.
        let short = qgram::bound_ceiling(p.len(), QGRAM) <= k + 1;
        let verbatim = self.verbatim(p, text);
        let skip = verbatim.is_none()
            && if short { self.pieces_absent(text, k) } else { self.qgram_exceeds(p, k, &keys) };
        if skip {
            self.report.comparisons_skipped += 1;
            return;
        }
        self.report.comparisons_run += 1;
        let query = self.view.normalized;
        let m = match (verbatim, self.kernel) {
            (Some(start), _) => Some(SubstringMatch { start, end: start + p.len(), distance: 0 }),
            (None, MatchKernel::Classic) => Some(substring_distance(p, query)),
            // Every span that survives the ratio filter below is within
            // `k`, so a `None` here and a filtered-out Classic match are
            // the same verdict.
            (None, MatchKernel::BitParallel) => bounded_myers_substring_distance(p, query, k),
        };
        let Some(m) = m else {
            return;
        };
        if m.is_empty() || m.diff_ratio() >= self.threshold {
            return;
        }
        let mark = TaintMark {
            input_index: idx,
            start: m.start,
            end: m.end,
            distance: m.distance,
            diff_ratio: m.diff_ratio(),
        };
        // Whole-token rule + critical coverage: find critical tokens
        // fully inside this marking.
        let mark_idx = self.report.markings.len();
        for c in self.view.criticals {
            if c.start >= mark.start && c.end <= mark.end {
                self.report.tainted_critical.push((mark_idx, *c));
            }
        }
        self.report.markings.push(mark);
    }

    /// The verbatim search: the leftmost occurrence of the input in the
    /// query (bit-parallel only; Classic stays the oracle). A hit passes
    /// every filter and is the kernel's own answer — distance 0, leftmost
    /// span.
    fn verbatim(&mut self, p: &[u8], text: Option<&str>) -> Option<usize> {
        debug_assert!(text.is_none_or(|t| t.as_bytes() == p));
        if self.kernel == MatchKernel::Classic {
            return None;
        }
        let (query, input) = self.query_str.zip(text)?;
        self.work.presence_bytes += query.len() as u64;
        swar::find_str(query, input)
    }

    /// The q-gram prefilter: whether the input's bound exceeds `k`.
    fn qgram_exceeds(&mut self, p: &[u8], k: usize, keys: &Keys<'_>) -> bool {
        self.work.gram_probes += (p.len() + 1).saturating_sub(QGRAM) as u64;
        match keys {
            Keys::Cached(set, entry) => self.profile.exceeds_keys(set.keys(entry), k),
            Keys::Fresh => self.profile.exceeds(p, k),
        }
    }

    /// The partition filter: splits the input into `k + 1` pieces and
    /// reports whether none of them occurs verbatim in the query. A span
    /// within `k` edits of the input leaves at least one piece untouched,
    /// and that piece occurs in the span, so `true` proves the pair has no
    /// match within `k`. An input too short for `k + 1` pieces of
    /// [`MIN_PIECE`] bytes, or one whose pieces would split a character,
    /// or a view that is not UTF-8, is never reported absent. Each piece
    /// is tested with `str::contains`, which decides absence with SIMD
    /// where `str::find` runs Two-Way a window at a time.
    fn pieces_absent(&mut self, text: Option<&str>, k: usize) -> bool {
        let Some((query, input)) = self.query_str.zip(text) else {
            return false;
        };
        let (n, parts) = (input.len(), k + 1);
        if n < MIN_PIECE * parts {
            return false;
        }
        (0..parts).all(|i| {
            input.get(i * n / parts..(i + 1) * n / parts).is_some_and(|piece| {
                self.work.presence_bytes += query.len() as u64;
                !query.contains(piece)
            })
        })
    }
}

/// The q-gram length NTI's prefilter uses.
const QGRAM: usize = 3;

/// Inputs shorter than this are ignored ("to alleviate false positives
/// that would result from matching very short inputs", §III-A).
const MIN_INPUT_LEN: usize = 3;

/// Shortest piece [`Pass::pieces_absent`] searches for: a shorter one
/// occurs in almost any query, so it could not skip a pair.
const MIN_PIECE: usize = 3;

/// NTI's distance cutoff: the largest distance `d ≤ |p|` at which a match
/// can still pass the ratio filter, that is, whose longest possible span
/// (`|p| + d` bytes) has a [difference ratio](SubstringMatch::diff_ratio)
/// below `threshold`. A span at a larger distance is at most that long,
/// so its ratio is no smaller. The ratio is the filter's own `f64`
/// expression, so the cutoff is exact, rounding included. `None` when
/// not even distance 0 passes (`threshold ≤ 0` or NaN). At `threshold ≥
/// 1` every distance passes, and the cutoff is `|p|`, which no best match
/// exceeds.
///
/// # Examples
///
/// ```
/// use joza_nti::distance_cutoff;
///
/// // 2/13 < 0.2 ≤ 3/14: an 11-byte input matches within 2 edits.
/// assert_eq!(distance_cutoff(0.2, 11), Some(2));
/// assert_eq!(distance_cutoff(0.0, 11), None);
/// assert_eq!(distance_cutoff(1.0, 11), Some(11));
/// ```
pub fn distance_cutoff(threshold: f64, input_len: usize) -> Option<usize> {
    let passes = |d: usize| {
        SubstringMatch { start: 0, end: input_len + d, distance: d }.diff_ratio() < threshold
    };
    if !passes(0) {
        return None;
    }
    // d/(|p| + d) < t ⟺ d < t·|p|/(1 − t): start next to that bound and
    // settle the last step with the filter's own expression.
    let estimate = threshold * input_len as f64 / (1.0 - threshold);
    let mut d = if estimate >= 0.0 { (estimate as usize).min(input_len) } else { input_len };
    while d > 0 && !passes(d) {
        d -= 1;
    }
    while d < input_len && passes(d + 1) {
        d += 1;
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nti() -> NtiAnalyzer {
        NtiAnalyzer::new(NtiConfig::default())
    }

    #[test]
    fn fig2a_benign_input_safe() {
        // Part A of Figure 2: input 5 appears in the query but covers no
        // critical token.
        let r = nti().analyze(&["5"], "SELECT * FROM data WHERE ID=5");
        assert!(!r.is_attack());
    }

    #[test]
    fn fig2b_tautology_detected() {
        // Part B of Figure 2: `-1 OR 1 = 1`.
        let q = "SELECT * FROM data WHERE ID=-1 OR 1 = 1";
        let r = nti().analyze(&["-1 OR 1 = 1"], q);
        assert!(r.is_attack());
        // The markings pinpoint `OR` (and `=`).
        assert!(!r.tainted_critical.is_empty());
    }

    #[test]
    fn fig2c_magic_quotes_evasion_succeeds() {
        // Part C of Figure 2: enough escaped quotes drive the difference
        // ratio above the threshold — NTI misses the attack.
        let input = "-1'OR/*''''''''*/1=1-- -";
        let escaped = input.replace('\'', "\\'");
        let q = format!("SELECT * FROM data WHERE ID='{escaped}'");
        let r = nti().analyze(&[input], &q);
        assert!(!r.is_attack(), "quote-stuffing must evade NTI: {r:?}");
    }

    #[test]
    fn small_transformation_still_detected() {
        // The application collapses double spaces; two removed bytes over
        // a long payload keep the ratio small and the attack visible.
        let input = "-1  UNION  SELECT user_pass FROM wp_users";
        let transformed = input.replace("  ", " ");
        let q = format!("SELECT * FROM posts WHERE id={transformed}");
        let r = nti().analyze(&[input], &q);
        assert!(r.is_attack(), "{r:?}");
    }

    #[test]
    fn union_attack_detected() {
        let payload = "-1 UNION SELECT username()";
        let q = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
        let r = nti().analyze(&[payload], &q);
        assert!(r.is_attack());
    }

    #[test]
    fn payload_construction_evades() {
        // §III-A: q1/q2/q3 concatenated inside the application; no single
        // input matches the final payload well enough.
        let q = "SELECT * FROM data WHERE ID=1 OR TRUE";
        let r = nti().analyze(&["1 OR 1=1", "R TR", "UE"], q);
        // "1 OR 1=1" has distance >= 4 to any substring ("1 OR TRUE"
        // region) — above threshold; short fragments are skipped or match
        // non-critical spans only.
        assert!(!r.is_attack(), "{r:?}");
    }

    #[test]
    fn markings_not_combined_across_inputs() {
        // Two inputs that each cover part of `OR` must not merge.
        let q = "SELECT * FROM t WHERE a=1 OR b=2";
        let r = nti().analyze(&["1 O", "R b"], q);
        assert!(!r.is_attack());
    }

    #[test]
    fn short_inputs_skipped() {
        let q = "SELECT * FROM t WHERE a=1 OR b=2";
        let r = nti().analyze(&["OR"], q);
        assert!(!r.is_attack());
        assert!(r.markings.is_empty());
    }

    #[test]
    fn base64_transformation_evades() {
        // Table II: the one plugin NTI missed base64-decodes its input.
        let raw = "LTEgVU5JT04gU0VMRUNUIHVzZXJuYW1lKCk="; // "-1 UNION SELECT username()"
        let q = "SELECT * FROM t WHERE id=-1 UNION SELECT username()";
        let r = nti().analyze(&[raw], q);
        assert!(!r.is_attack());
    }

    #[test]
    fn whitespace_padding_evades() {
        // Appending whitespace the app trims raises the distance.
        let payload = "-1 OR 1=1";
        let padded = format!("{payload}{}", " ".repeat(12));
        let q = format!("SELECT * FROM t WHERE id={payload}");
        let r = nti().analyze(&[padded.as_str()], &q);
        assert!(!r.is_attack(), "{r:?}");
    }

    #[test]
    fn case_insensitive_matching() {
        let q = "SELECT * FROM t WHERE id=-1 union select 1";
        let r = nti().analyze(&["-1 UNION SELECT 1"], q);
        assert!(r.is_attack());
    }

    #[test]
    fn threshold_sensitivity() {
        // App collapses double spaces: distance 2 over a ~40-byte match,
        // ratio ≈ 0.05 — detected at 0.20, missed at 0.03. "Setting the
        // threshold value too low yields too few taint markings, which
        // causes false negatives" (§III-A).
        let input = "-1  UNION  SELECT user_pass FROM wp_users";
        let transformed = input.replace("  ", " ");
        let q = format!("SELECT * FROM posts WHERE id={transformed}");
        let strict = NtiAnalyzer::new(NtiConfig { threshold: 0.03, ..Default::default() });
        assert!(!strict.analyze(&[input], &q).is_attack());
        let loose = NtiAnalyzer::new(NtiConfig { threshold: 0.20, ..Default::default() });
        assert!(loose.analyze(&[input], &q).is_attack());
    }

    #[test]
    fn prefilter_skips_unrelated_inputs() {
        let q = "SELECT option_value FROM wp_options WHERE option_name='siteurl'";
        let inputs = ["totally unrelated gibberish zzzz", "another unrelated thing qqqq"];
        let r = nti().analyze(&inputs, q);
        assert!(!r.is_attack());
        assert!(r.comparisons_skipped >= 1, "{r:?}");
    }

    #[test]
    fn markings_match_the_sellers_reference() {
        // The filters skip only pairs the alignment would not mark: every
        // marking is Sellers' best match over the folded query, kept when
        // its ratio passes the threshold.
        let cases = [
            ("-1 OR 1=1", "SELECT * FROM t WHERE id=-1 OR 1=1", true),
            ("benign", "SELECT * FROM t WHERE name='benign'", false),
            ("no match here", "SELECT 1", false),
        ];
        for (input, q, attack) in cases {
            let best = substring_distance(
                input.to_ascii_lowercase().as_bytes(),
                q.to_ascii_lowercase().as_bytes(),
            );
            let expected: Vec<_> = (!best.is_empty() && best.diff_ratio() < 0.2)
                .then_some((best.start, best.end, best.distance))
                .into_iter()
                .collect();
            let r = nti().analyze(&[input], q);
            let got: Vec<_> = r.markings.iter().map(|m| (m.start, m.end, m.distance)).collect();
            assert_eq!(got, expected, "{input} / {q}");
            assert_eq!(r.is_attack(), attack, "{input} / {q}");
        }
    }

    #[test]
    fn empty_inputs_and_query() {
        let r = nti().analyze(&[], "SELECT 1");
        assert!(!r.is_attack());
        let r = nti().analyze(&["payload"], "");
        assert!(!r.is_attack());
    }

    /// Classic and bit-parallel reports agree.
    fn assert_kernels_agree(inputs: &[&str], query: &str) {
        let with = |kernel| NtiAnalyzer::new(NtiConfig { kernel, ..Default::default() });
        assert_eq!(
            with(MatchKernel::Classic).analyze(inputs, query),
            with(MatchKernel::BitParallel).analyze(inputs, query),
            "inputs {inputs:?} in query {query:?}"
        );
    }

    #[test]
    fn verbatim_search_on_periodic_inputs() {
        // `a^n`, `a^n b` and `b a^n` against `a^m` and `a^m b a^m`: the
        // empty needle, periodic needles, needles equal to and longer than
        // the query, planted needles, and misses that fall through to the
        // kernel.
        for m in 0..20 {
            let plain = "a".repeat(m);
            let planted = format!("{plain}b{plain}");
            for n in 0..12 {
                let run = "a".repeat(n);
                for input in [run.clone(), format!("{run}b"), format!("b{run}")] {
                    assert_kernels_agree(&[&input], &plain);
                    assert_kernels_agree(&[&input], &planted);
                }
            }
        }
        assert_kernels_agree(&["abababc"], "abababababc");
        assert_kernels_agree(&["abaab"], "abaabaabaab");
        assert_kernels_agree(&["or 1=1"], "x or 1=1 or 1=1");
    }

    #[test]
    fn verbatim_search_is_linear_on_a_64k_periodic_pair() {
        // `a^32767 b` at the end of a 64 KB `a…ab`: a quadratic search
        // compares ~10^9 bytes here; a linear one answers at once.
        let input = format!("{}b", "a".repeat(32 * 1024 - 1));
        let query = format!("{}b", "a".repeat(64 * 1024 - 1));
        let r = nti().analyze(&[&input], &query);
        let m = &r.markings[0];
        assert_eq!((m.start, m.end, m.distance), (query.len() - input.len(), query.len(), 0));
        assert_eq!(r.comparisons_run, 1);
    }

    #[test]
    fn verbatim_search_stays_linear_once_its_budget_is_spent() {
        // `a^32766 ca` at the end of `a^65536 ca`: every `a` of the query
        // before the copy is a candidate whose first and last bytes match
        // and whose verification runs ~32k bytes before the `c` fails it.
        // Verifying them all compares ~10^9 bytes; the search stops after
        // about one query length of failed verification and hands the rest
        // to the linear Two-Way search.
        let input = format!("{}ca", "a".repeat(32 * 1024 - 2));
        let query = format!("{}ca", "a".repeat(64 * 1024));
        let r = nti().analyze(&[&input], &query);
        let m = &r.markings[0];
        assert_eq!((m.start, m.end, m.distance), (query.len() - input.len(), query.len(), 0));
        assert_eq!(r.comparisons_run, 1);
    }

    #[test]
    fn thresholds_at_and_above_one_neither_overflow_nor_skip() {
        // At t ≥ 1 every distance passes the ratio filter: the cutoff is
        // |p|, the length check must not overflow, and no input is skipped
        // for its length, not even one longer than the query.
        let q = "SELECT * FROM t WHERE id=-1 OR 1=1";
        let inputs = [q, "-1 OR 1=1", "zzzz", "a much longer input than the whole query is"];
        for threshold in [1.0, 1.5] {
            let with =
                |kernel| NtiAnalyzer::new(NtiConfig { threshold, kernel, ..Default::default() });
            let r = with(MatchKernel::BitParallel).analyze(&inputs, q);
            assert_eq!(with(MatchKernel::Classic).analyze(&inputs, q), r, "t = {threshold}");
            assert!(
                r.markings.iter().any(|m| m.input_index == 0 && (m.start, m.end) == (0, q.len())),
                "t = {threshold}: the whole-query input must be marked: {r:?}"
            );
            assert!(r.is_attack());
        }
    }

    /// A splitmix64 stream for the generated cases below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn text(&mut self, len: usize, alphabet: &[u8]) -> String {
            (0..len).map(|_| char::from(alphabet[self.below(alphabet.len())])).collect()
        }
    }

    /// A request's inputs and one of its queries: 1-2,000 captures
    /// (every fourth case past 40) drawn with duplicates from values of
    /// 3-12 and 30-200 bytes, some upper case, and a query of up to
    /// ~1.5 KB that embeds a few of them verbatim, folded, one edit away
    /// or with escaped quotes.
    fn multiset_case(seed: u64) -> (Vec<String>, String) {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789 '=";
        let mut rng = Rng(seed);
        let n = if rng.below(4) == 0 { 1 + rng.below(2000) } else { 1 + rng.below(40) };
        let distinct: Vec<String> = (0..n.div_ceil(2))
            .map(|_| {
                let len = if rng.below(2) == 0 { 3 + rng.below(10) } else { 30 + rng.below(171) };
                rng.text(len, ALPHABET)
            })
            .collect();
        let inputs: Vec<String> =
            (0..n).map(|_| distinct[rng.below(distinct.len())].clone()).collect();
        let mut query = String::from("SELECT * FROM t WHERE a='");
        for _ in 0..1 + rng.below(5) {
            let filler = rng.below(300);
            query.push_str(&rng.text(filler, &ALPHABET[..26]));
            let planted = &inputs[rng.below(n)];
            match rng.below(4) {
                0 => query.push_str(planted),
                1 => query.push_str(&planted.to_ascii_lowercase()),
                2 => {
                    let mut edited = planted.clone();
                    edited.replace_range(0..1, "#");
                    query.push_str(&edited);
                }
                _ => query.push_str(&planted.replace('\'', "\\\'")),
            }
        }
        query.push_str("' OR 1=1");
        (inputs, query)
    }

    proptest::proptest! {
        /// The set path gives `analyze`'s report over the set's distinct
        /// values (then the query-scoped values) under both kernels.
        #[test]
        fn set_path_matches_analyze(seed in 0u64..u64::MAX) {
            let (inputs, query) = multiset_case(seed);
            let mut set = InputSet::new();
            for (i, v) in inputs.iter().enumerate() {
                set.insert(&format!("p{i}"), v);
            }
            let distinct: Vec<&str> = set.values().collect();
            let extra = [inputs[0].as_str(), "x-scoped-value"];
            let mut all = distinct.clone();
            all.extend(extra);
            for kernel in [MatchKernel::Classic, MatchKernel::BitParallel] {
                let nti = NtiAnalyzer::new(NtiConfig { kernel, ..NtiConfig::default() });
                let reference = nti.analyze(&distinct, &query);
                let with_extra = nti.analyze(&all, &query);
                let (report, _) = nti.analyze_set(&set, &query);
                proptest::prop_assert_eq!(&report, &reference);
                let (report, _) = nti.analyze_inputs(Inputs::Set(&set, &extra), &query);
                proptest::prop_assert_eq!(&report, &with_extra);
            }
        }
    }

    #[test]
    fn work_count_of_10k_skipped_inputs_is_linear_in_their_bytes() {
        // 10k distinct 64-byte inputs, all skipped, against a 60-byte
        // query: each input meets one verbatim search and one q-gram
        // count, so the filters do at most c·(Σ|p| + |q|) units of work.
        let mut rng = Rng(7);
        let mut query = String::from("SELECT option_value FROM wp_options WHERE option_name='");
        while query.len() + 1 < 60 {
            query.push_str(&rng.text(1, b"abcdefghijklmnopqrstuvwxyz _"));
        }
        query.push('\'');
        let mut set = InputSet::new();
        for i in 0..10_000 {
            set.insert(&format!("p{i}"), &rng.text(64, b"abcdefghijklmnopqrstuvwxyz0123456789"));
        }
        assert_eq!(set.len(), 10_000);
        let bytes = (set.values().map(str::len).sum::<usize>() + query.len()) as u64;
        let (report, work) = nti().analyze_set(&set, &query);
        assert_eq!((report.comparisons_run, report.comparisons_skipped), (0, 10_000));
        assert!(work.total() <= 2 * bytes, "{work:?} over {bytes} bytes");
    }

    #[test]
    fn cookie_style_second_input_detected() {
        // Attack delivered via the second input (e.g. a cookie).
        let payload = "' OR '1'='1";
        let q = format!("SELECT * FROM users WHERE session='{payload}'");
        let r = nti().analyze(&["benign", payload], &q);
        assert!(r.is_attack());
        assert_eq!(r.markings[r.tainted_critical[0].0].input_index, 1);
    }
}
