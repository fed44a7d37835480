//! Critical-token classification.
//!
//! The threat model (§II): "An SQL injection occurs when attacker-controlled
//! inputs are interpreted as SQL keywords, built-in functions, or
//! delimiters, or when they change the programmer-intended syntactic
//! structure of a command." Accordingly the paper's analyses check whether
//! *critical tokens* — keywords, function names, operators, and comments —
//! are tainted (NTI) or not positively covered (PTI).
//!
//! The paper deliberately adopts a pragmatic stance that tolerates common
//! practices such as passing field and table names through inputs, so bare
//! identifiers and literals are not critical. [`CriticalPolicy`] names the
//! two policies the paper discusses: that pragmatic one and the strict
//! one it rejects.

use crate::token::{Token, TokenKind};

/// Which token categories count as security-critical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CriticalPolicy {
    /// The paper's policy (§II): keywords, function-call heads (an
    /// identifier immediately followed by `(`), operators, comments (each
    /// one critical token, per §III-B) and bytes the lexer could not
    /// classify (stray quotes, control bytes: usually an escape from a
    /// string literal). Punctuation is not critical, so advanced-search
    /// style inputs like `1,2,3` are permitted.
    #[default]
    Pragmatic,
    /// The strict policy from Ray & Ligatti that the paper *rejects* as
    /// too brittle, kept for the policy ablation: everything
    /// [`CriticalPolicy::Pragmatic`] marks, plus parens, commas and
    /// semicolons.
    Strict,
}

impl CriticalPolicy {
    /// Decides whether token `i` of `tokens` is critical.
    pub fn is_critical(self, tokens: &[Token], i: usize) -> bool {
        match tokens[i].kind {
            TokenKind::Keyword | TokenKind::Operator | TokenKind::Comment | TokenKind::Unknown => {
                true
            }
            TokenKind::LParen | TokenKind::RParen | TokenKind::Comma | TokenKind::Semicolon => {
                self == CriticalPolicy::Strict
            }
            // A function call head: identifier immediately followed by `(`.
            TokenKind::Identifier => tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::LParen),
            _ => false,
        }
    }
}

/// Extracts the critical tokens of a query's lexed `tokens` under `policy`.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::{lex, critical_tokens, CriticalPolicy};
///
/// let q = "SELECT * FROM data WHERE ID=1 OR TRUE";
/// let crit = critical_tokens(&lex(q), CriticalPolicy::default());
/// let texts: Vec<&str> = crit.iter().map(|t| t.text(q)).collect();
/// assert_eq!(texts, ["SELECT", "*", "FROM", "WHERE", "=", "OR", "TRUE"]);
/// ```
pub fn critical_tokens(tokens: &[Token], policy: CriticalPolicy) -> Vec<Token> {
    let mut out = Vec::new();
    critical_tokens_into(tokens, policy, &mut out);
    out
}

/// [`critical_tokens`] into a caller-owned buffer (appended, not
/// cleared) — the per-check entry point: a recycled buffer makes
/// repeated classification allocation-free at steady state.
pub fn critical_tokens_into(tokens: &[Token], policy: CriticalPolicy, out: &mut Vec<Token>) {
    out.extend((0..tokens.len()).filter(|&i| policy.is_critical(tokens, i)).map(|i| tokens[i]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn crit_texts(q: &str) -> Vec<String> {
        let toks = lex(q);
        critical_tokens(&toks, CriticalPolicy::default())
            .iter()
            .map(|t| t.text(q).to_string())
            .collect()
    }

    #[test]
    fn benign_query_criticals() {
        let texts = crit_texts("SELECT * FROM records WHERE ID=5 LIMIT 5");
        assert_eq!(texts, ["SELECT", "*", "FROM", "WHERE", "=", "LIMIT"]);
    }

    #[test]
    fn union_attack_criticals() {
        let texts = crit_texts("SELECT * FROM r WHERE ID=-1 UNION SELECT username()");
        assert!(texts.contains(&"UNION".to_string()));
        assert!(texts.contains(&"username".to_string()));
    }

    #[test]
    fn comment_is_critical() {
        let texts = crit_texts("SELECT 1 -- tail");
        assert!(texts.contains(&"-- tail".to_string()));
    }

    #[test]
    fn literals_and_identifiers_not_critical() {
        let texts = crit_texts("SELECT name FROM users WHERE id=42 AND tag='x'");
        assert!(!texts.contains(&"name".to_string()));
        assert!(!texts.contains(&"42".to_string()));
        assert!(!texts.contains(&"'x'".to_string()));
    }

    #[test]
    fn punctuation_only_critical_under_strict() {
        let q = "SELECT a, b FROM t";
        let toks = lex(q);
        let default = critical_tokens(&toks, CriticalPolicy::default());
        assert!(!default.iter().any(|t| t.text(q) == ","));
        let strict = critical_tokens(&toks, CriticalPolicy::Strict);
        assert!(strict.iter().any(|t| t.text(q) == ","));
    }

    #[test]
    fn identifier_without_call_not_critical() {
        let texts = crit_texts("SELECT sleep FROM naps");
        assert!(!texts.contains(&"sleep".to_string()));
    }
}
