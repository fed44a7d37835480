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
//! * very short inputs are skipped and a marking must cover at least one
//!   **whole SQL token** — both anti-false-positive measures from the
//!   paper;
//! * the threshold trades false positives (too high) against false
//!   negatives (too low); the paper's evasions exploit exactly this.
//!
//! Optimizations (§VI-B): a q-gram lower-bound prefilter and a length
//! plausibility check skip implausible input/query pairs before the
//! quadratic alignment runs. The query's q-gram profile is built lazily,
//! only once some input reaches that check, as sorted packed grams in a
//! recycled buffer (no hashing).
//!
//! Under [`MatchKernel::BitParallel`], each input that passes the length
//! check is first searched for *verbatim* in the normalized query with
//! `str::find` (std's Two-Way search, linear in the worst case). A hit is
//! taken as the comparison's result directly — the leftmost occurrence
//! at distance 0 — and is exactly what the q-gram prefilter plus kernel
//! would report: the prefilter cannot skip a distance-0 pair (all the
//! input's q-grams occur in the query), so the pair counts as one
//! comparison run; the Myers scan stops at its first zero-scoring
//! column, whose span is the leftmost occurrence; and Sellers' tie-break
//! (minimal distance, then minimal ratio — 0 for every exact span — then
//! leftmost) picks the same one. An input the application embeds
//! unchanged, such as a quote-free comment body, thus costs one linear
//! scan instead of a q-gram profile and an `O(|p|·|q|/64)` alignment; an
//! input it alters (an escaped quote, trimmed whitespace) misses the scan
//! and takes the full path. [`MatchKernel::Classic`] skips the shortcut
//! and stays the differential oracle.
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
use std::borrow::Cow;

/// Configuration for the NTI analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct NtiConfig {
    /// Maximum difference ratio for a match (§III-A). The paper's running
    /// example uses 20%.
    pub threshold: f64,
    /// Inputs shorter than this are ignored ("to alleviate false positives
    /// that would result from matching very short inputs").
    pub min_input_len: usize,
    /// Case-insensitive matching (applications commonly case-convert).
    pub normalize_case: bool,
    /// Use the q-gram lower bound to skip implausible comparisons (§VI-B).
    pub qgram_prefilter: bool,
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
            min_input_len: 3,
            normalize_case: true,
            qgram_prefilter: true,
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
    /// The query bytes in the analyzer's match normalization: case-folded
    /// when [`NtiConfig::normalize_case`] is set, raw otherwise.
    pub normalized: &'q [u8],
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
        let tokens = lex(query);
        let criticals = critical_tokens(query, &tokens, &self.config.critical);
        let query_bytes: Cow<'_, [u8]> = if self.config.normalize_case {
            to_lower(query.as_bytes())
        } else {
            Cow::Borrowed(query.as_bytes())
        };
        self.analyze_view_with(
            inputs,
            QueryView { query, criticals: &criticals, normalized: &query_bytes },
            &mut Vec::new(),
            &mut Vec::new(),
        )
    }

    /// [`NtiAnalyzer::analyze`] over precomputed query artifacts — the
    /// parse-once entry point. The caller supplies the critical tokens and
    /// normalized bytes (see [`QueryView`]) plus two scratch buffers whose
    /// capacity is reused: `fold_scratch` holds an input's case-folded
    /// copy when [`NtiConfig::normalize_case`] is set and the input
    /// actually contains uppercase ASCII, and `gram_scratch` holds the
    /// query's q-gram profile, built only if some input reaches the
    /// q-gram check. The engine passes buffers leased from its per-thread
    /// check arena, making the per-input loop allocation-free at steady
    /// state.
    ///
    /// Verdicts, markings, and counters are bit-identical to
    /// [`NtiAnalyzer::analyze`] when the view matches what that method
    /// would compute itself.
    pub fn analyze_view_with(
        &self,
        inputs: &[&str],
        view: QueryView<'_>,
        fold_scratch: &mut Vec<u8>,
        gram_scratch: &mut Vec<u64>,
    ) -> NtiReport {
        let mut report = NtiReport::default();
        let criticals = view.criticals;
        let query_bytes = view.normalized;
        let mut query_profile = QgramProfile::new(query_bytes, 3, gram_scratch);
        // The verbatim search (bit-parallel only; Classic stays the oracle)
        // runs on `str`s. Case folding changes ASCII bytes only, so a view
        // built from a query is UTF-8; any other view skips the shortcut.
        let query_str = match self.config.kernel {
            MatchKernel::Classic => None,
            MatchKernel::BitParallel => std::str::from_utf8(query_bytes).ok(),
        };

        for (idx, input) in inputs.iter().enumerate() {
            if input.len() < self.config.min_input_len {
                continue;
            }
            let bytes = input.as_bytes();
            let input_bytes: &[u8] = match if self.config.normalize_case {
                swar::first_ascii_upper(bytes)
            } else {
                None
            } {
                Some(first) => {
                    fold_scratch.clear();
                    fold_scratch.extend_from_slice(&bytes[..first]);
                    to_lower_into(&bytes[first..], fold_scratch);
                    fold_scratch
                }
                None => bytes,
            };
            // Allowed distance bound: ratio < t with matched_len <= |p| + d
            // implies d < t·|p| / (1 − t).
            let t = self.config.threshold;
            let cutoff = ((t * input_bytes.len() as f64) / (1.0 - t)).ceil() as usize;
            if !qgram::length_plausible(input_bytes.len(), query_bytes.len(), cutoff) {
                report.comparisons_skipped += 1;
                continue;
            }
            // A verbatim occurrence passes the q-gram check and is the
            // kernel's own answer — distance 0, leftmost span. Both
            // operands are UTF-8, so the leftmost byte match is what
            // `str::find` (Two-Way, linear in the worst case) returns.
            let verbatim = query_str.and_then(|q| q.find(std::str::from_utf8(input_bytes).ok()?));
            if verbatim.is_none()
                && self.config.qgram_prefilter
                && query_profile.lower_bound(input_bytes) > cutoff
            {
                report.comparisons_skipped += 1;
                continue;
            }
            report.comparisons_run += 1;
            let m = match (verbatim, self.config.kernel) {
                (Some(start), _) => {
                    Some(SubstringMatch { start, end: start + input_bytes.len(), distance: 0 })
                }
                (None, MatchKernel::Classic) => Some(substring_distance(input_bytes, query_bytes)),
                (None, MatchKernel::BitParallel) => {
                    // Any span that survives the ratio filter below has
                    // distance d < t·|p|/(1−t) ≤ cutoff, so a `None` here
                    // and a filtered-out Classic match are the same
                    // verdict. Outside t ∈ (0,1) the cutoff formula is
                    // meaningless; fall back to the unbounded scan
                    // (distances never exceed |p|).
                    let k = if t > 0.0 && t < 1.0 { cutoff } else { input_bytes.len() };
                    bounded_myers_substring_distance(input_bytes, query_bytes, k)
                }
            };
            let Some(m) = m else {
                continue;
            };
            if m.is_empty() || m.diff_ratio() >= t {
                continue;
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
            let mark_idx = report.markings.len();
            for c in criticals {
                if c.start >= mark.start && c.end <= mark.end {
                    report.tainted_critical.push((mark_idx, *c));
                }
            }
            report.markings.push(mark);
        }
        report
    }
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
    fn prefilter_does_not_change_verdict() {
        let cases: Vec<(&str, &str)> = vec![
            ("-1 OR 1=1", "SELECT * FROM t WHERE id=-1 OR 1=1"),
            ("benign", "SELECT * FROM t WHERE name='benign'"),
            ("no match here", "SELECT 1"),
        ];
        for (input, q) in cases {
            let with = NtiAnalyzer::new(NtiConfig { qgram_prefilter: true, ..Default::default() });
            let without =
                NtiAnalyzer::new(NtiConfig { qgram_prefilter: false, ..Default::default() });
            assert_eq!(
                with.analyze(&[input], q).is_attack(),
                without.analyze(&[input], q).is_attack(),
                "{input} / {q}"
            );
        }
    }

    #[test]
    fn empty_inputs_and_query() {
        let r = nti().analyze(&[], "SELECT 1");
        assert!(!r.is_attack());
        let r = nti().analyze(&["payload"], "");
        assert!(!r.is_attack());
    }

    /// Classic and bit-parallel reports agree, with no input too short
    /// to compare.
    fn assert_kernels_agree(inputs: &[&str], query: &str) {
        let with =
            |kernel| NtiAnalyzer::new(NtiConfig { kernel, min_input_len: 0, ..Default::default() });
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
    fn cookie_style_second_input_detected() {
        // Attack delivered via the second input (e.g. a cookie).
        let payload = "' OR '1'='1";
        let q = format!("SELECT * FROM users WHERE session='{payload}'");
        let r = nti().analyze(&["benign", payload], &q);
        assert!(r.is_attack());
        assert_eq!(r.markings[r.tainted_critical[0].0].input_index, 1);
    }
}
