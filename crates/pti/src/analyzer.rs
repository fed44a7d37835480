//! The PTI containment algorithm.

use crate::store::{FragmentStore, MatcherKind};
use joza_sqlparse::critical::{critical_tokens, CriticalPolicy};
use joza_sqlparse::lexer::lex;
use joza_sqlparse::token::Token;
use std::sync::Arc;

/// Configuration for the PTI analyzer. The default is the paper's
/// optimized analyzer (§VI-A): MRU matcher, parse-first, pragmatic
/// critical-token policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtiConfig {
    /// Matcher strategy.
    pub matcher: MatcherKind,
    /// Critical-token policy shared with NTI.
    pub critical: CriticalPolicy,
    /// Parse-first optimization (§VI-A): extract the critical-token set
    /// before matching and stop scanning once all critical tokens are
    /// covered. With it disabled every fragment occurrence is enumerated.
    pub parse_first: bool,
}

impl Default for PtiConfig {
    fn default() -> Self {
        PtiConfig {
            matcher: MatcherKind::Mru,
            critical: CriticalPolicy::default(),
            parse_first: true,
        }
    }
}

impl PtiConfig {
    /// The unoptimized prototype: naive scan, no parse-first.
    pub fn unoptimized() -> Self {
        PtiConfig { matcher: MatcherKind::Naive, parse_first: false, ..Self::default() }
    }
}

/// The outcome of one PTI analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PtiReport {
    /// Critical tokens *not* fully contained in any single fragment
    /// occurrence — the attack evidence.
    pub uncovered_critical: Vec<Token>,
    /// Total critical tokens in the query.
    pub critical_count: usize,
    /// Number of fragment occurrences found.
    pub occurrence_count: usize,
}

impl PtiReport {
    /// Whether PTI flags this query as an attack.
    pub fn is_attack(&self) -> bool {
        !self.uncovered_critical.is_empty()
    }
}

/// The PTI analysis engine: a fragment vocabulary plus the containment
/// check.
#[derive(Debug, Clone)]
pub struct PtiAnalyzer {
    store: Arc<FragmentStore>,
    config: PtiConfig,
}

impl PtiAnalyzer {
    /// Creates an analyzer over a prebuilt store.
    pub fn new(store: Arc<FragmentStore>, config: PtiConfig) -> Self {
        PtiAnalyzer { store, config }
    }

    /// Convenience constructor compiling the fragments with the
    /// configuration's matcher kind.
    pub fn from_fragments<I, S>(fragments: I, config: PtiConfig) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let store = Arc::new(FragmentStore::new(fragments, config.matcher));
        PtiAnalyzer { store, config }
    }

    /// The fragment store.
    pub fn store(&self) -> &FragmentStore {
        &self.store
    }

    /// The analyzer configuration.
    pub fn config(&self) -> &PtiConfig {
        &self.config
    }

    /// Analyzes one query: every critical token must be fully contained
    /// within a single fragment occurrence (§III-B).
    ///
    /// With `parse_first` enabled (§VI-A), the critical-token set is
    /// extracted before matching and the fragment scan stops as soon as
    /// every critical token is covered — "benign queries are therefore
    /// quickly matched, while malicious queries may require scanning the
    /// entire set of fragments".
    pub fn analyze(&self, query: &str) -> PtiReport {
        let tokens = lex(query);
        self.analyze_tokens(query, &tokens)
    }

    /// [`PtiAnalyzer::analyze`] over a pre-lexed token stream — the
    /// parse-once entry point. `tokens` must be `lex(query)`; the report is
    /// bit-identical to [`PtiAnalyzer::analyze`] under that contract.
    pub fn analyze_tokens(&self, query: &str, tokens: &[Token]) -> PtiReport {
        let criticals = critical_tokens(tokens, self.config.critical);
        let covered_by = |occ: &[joza_strmatch::Match], c: &Token| {
            occ.iter().any(|m| m.start <= c.start && c.end <= m.end)
        };
        let occurrences = if self.config.parse_first {
            // The closure only needs to borrow the criticals for the scan.
            self.store.occurrences_until(query, |occ| criticals.iter().all(|c| covered_by(occ, c)))
        } else {
            self.store.occurrences(query)
        };

        let mut uncovered = Vec::new();
        for c in &criticals {
            if !covered_by(&occurrences, c) {
                uncovered.push(*c);
            }
        }
        PtiReport {
            uncovered_critical: uncovered,
            critical_count: criticals.len(),
            occurrence_count: occurrences.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_analyzer() -> PtiAnalyzer {
        // Fragments from the §III-B example.
        PtiAnalyzer::from_fragments(
            ["id", "SELECT * FROM records WHERE ID=", " LIMIT 5"],
            PtiConfig::default(),
        )
    }

    #[test]
    fn fig3a_benign_covered() {
        let r = paper_analyzer().analyze("SELECT * FROM records WHERE ID=42 LIMIT 5");
        assert!(!r.is_attack(), "{r:?}");
        assert!(r.critical_count > 0);
    }

    #[test]
    fn fig3b_union_payload_uncovered() {
        let r = paper_analyzer()
            .analyze("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5");
        assert!(r.is_attack());
        let texts: Vec<String> = r
            .uncovered_critical
            .iter()
            .map(|t| {
                t.text("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5")
                    .to_string()
            })
            .collect();
        assert!(texts.contains(&"UNION".to_string()));
        assert!(texts.contains(&"SELECT".to_string()));
        assert!(texts.contains(&"username".to_string()));
    }

    #[test]
    fn fig3c_vocabulary_attack_covered() {
        // Part C of Figure 3: if the program contains `OR` and `=`
        // fragments, the tautology goes undetected.
        let pti = PtiAnalyzer::from_fragments(
            ["id", "SELECT * FROM records WHERE ID=", " LIMIT 5", "OR", "="],
            PtiConfig::default(),
        );
        let r = pti.analyze("SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5");
        assert!(!r.is_attack(), "{r:?}");
    }

    #[test]
    fn critical_token_must_come_from_single_fragment() {
        // Fragments `O` and `R` must not combine to cover `OR`.
        let pti = PtiAnalyzer::from_fragments(
            ["SELECT * FROM t WHERE id=", "O", "R"],
            PtiConfig::default(),
        );
        let r = pti.analyze("SELECT * FROM t WHERE id=1 OR 1");
        assert!(r.is_attack(), "{r:?}");
    }

    #[test]
    fn comment_must_be_one_fragment() {
        // A comment is a single critical token; `/*` + `*/` fragments must
        // not cover an attacker-stuffed comment.
        let pti = PtiAnalyzer::from_fragments(
            ["SELECT * FROM t WHERE id=", "/*", "*/"],
            PtiConfig::default(),
        );
        let r = pti.analyze("SELECT * FROM t WHERE id=1 /* stuffing */");
        assert!(r.is_attack());
        // But a whole-comment fragment covers it.
        let pti = PtiAnalyzer::from_fragments(
            ["SELECT * FROM t WHERE id=", "/* stuffing */"],
            PtiConfig::default(),
        );
        assert!(!pti.analyze("SELECT * FROM t WHERE id=1 /* stuffing */").is_attack());
    }

    #[test]
    fn second_order_style_coverage() {
        // PTI is input-independent: as long as the final query's critical
        // tokens come from program fragments it is safe, no matter where
        // the data travelled in between.
        let pti = PtiAnalyzer::from_fragments(
            ["SELECT body FROM cache WHERE key='", "'"],
            PtiConfig::default(),
        );
        let r = pti.analyze("SELECT body FROM cache WHERE key='whatever-data'");
        assert!(!r.is_attack());
    }

    #[test]
    fn empty_fragment_store_flags_everything_with_criticals() {
        let pti = PtiAnalyzer::from_fragments(Vec::<&str>::new(), PtiConfig::default());
        assert!(pti.analyze("SELECT 1").is_attack());
    }

    #[test]
    fn query_with_no_critical_tokens_is_safe() {
        let pti = PtiAnalyzer::from_fragments(Vec::<&str>::new(), PtiConfig::default());
        // A bare number has no critical tokens at all.
        let r = pti.analyze("42");
        assert!(!r.is_attack());
        assert_eq!(r.critical_count, 0);
    }

    #[test]
    fn overlapping_fragments_each_cover_their_tokens() {
        let pti = PtiAnalyzer::from_fragments(
            ["SELECT a FROM t", "FROM t WHERE b=", "="],
            PtiConfig::default(),
        );
        let r = pti.analyze("SELECT a FROM t WHERE b=1");
        assert!(!r.is_attack(), "{r:?}");
    }

    #[test]
    fn case_sensitive_matching() {
        // PTI matching is exact: Taintless must case-match tokens (§V-A).
        let pti = PtiAnalyzer::from_fragments(
            ["select * from t where id=", " limit 5"],
            PtiConfig::default(),
        );
        let r = pti.analyze("SELECT * FROM t WHERE id=1 LIMIT 5");
        assert!(r.is_attack(), "uppercase query vs lowercase fragments must mismatch");
    }

    #[test]
    fn all_matchers_same_verdict() {
        let frags = ["SELECT * FROM t WHERE id=", " LIMIT 1", "OR"];
        let queries = [
            "SELECT * FROM t WHERE id=1 LIMIT 1",
            "SELECT * FROM t WHERE id=1 OR 1=1 LIMIT 1",
            "SELECT * FROM t WHERE id=-1 UNION SELECT 1 LIMIT 1",
        ];
        for q in queries {
            let verdicts: Vec<bool> =
                [MatcherKind::Naive, MatcherKind::Mru, MatcherKind::AhoCorasick]
                    .into_iter()
                    .map(|m| {
                        PtiAnalyzer::from_fragments(
                            frags,
                            PtiConfig { matcher: m, ..Default::default() },
                        )
                        .analyze(q)
                        .is_attack()
                    })
                    .collect();
            assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{q}: {verdicts:?}");
        }
    }
}
