//! The MySQL keyword table.

/// Reserved and significant MySQL keywords, uppercase, sorted for binary
/// search. This list follows the MySQL 5.x grammar the paper's WordPress
/// testbed runs against, restricted to words that matter syntactically.
pub static KEYWORDS: &[&str] = &[
    "ALL",
    "ALTER",
    "AND",
    "AS",
    "ASC",
    "BEGIN",
    "BENCHMARK",
    "BETWEEN",
    "BY",
    "CASE",
    "COLLATE",
    "COMMIT",
    "CREATE",
    "CROSS",
    "DATABASE",
    "DEFAULT",
    "DELETE",
    "DESC",
    "DISTINCT",
    "DIV",
    "DROP",
    "ELSE",
    "END",
    "ESCAPE",
    "EXISTS",
    "FALSE",
    "FOR",
    "FROM",
    "GROUP",
    "HAVING",
    "IN",
    "INNER",
    "INSERT",
    "INTERVAL",
    "INTO",
    "IS",
    "JOIN",
    "KEY",
    "LEFT",
    "LIKE",
    "LIMIT",
    "LOCK",
    "MOD",
    "NOT",
    "NULL",
    "OFFSET",
    "ON",
    "OR",
    "ORDER",
    "OUTER",
    "OUTFILE",
    "PRIMARY",
    "PROCEDURE",
    "REGEXP",
    "REPLACE",
    "RIGHT",
    "RLIKE",
    "ROLLBACK",
    "SELECT",
    "SET",
    "SHOW",
    "TABLE",
    "THEN",
    "TRUE",
    "TRUNCATE",
    "UNION",
    "UPDATE",
    "USING",
    "VALUES",
    "WHEN",
    "WHERE",
    "XOR",
];

/// Returns `true` if `word` (any case) is a reserved SQL keyword.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::keywords::is_keyword;
///
/// assert!(is_keyword("select"));
/// assert!(is_keyword("UNION"));
/// assert!(!is_keyword("wp_posts"));
/// ```
pub fn is_keyword(word: &str) -> bool {
    canonical(word).is_some()
}

/// The canonical (uppercase, `'static`) spelling of `word` if it is a
/// reserved keyword — the allocation-free way to render a keyword token
/// into skeleton normal form: the table entry *is* the uppercased text.
/// A case-insensitive binary search that uppercases no copy of `word`:
/// the table is sorted by its (uppercase) bytes, so comparing each byte
/// of `word` ASCII-uppercased on the fly preserves the order.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::keywords::canonical;
///
/// assert_eq!(canonical("select"), Some("SELECT"));
/// assert_eq!(canonical("UnIoN"), Some("UNION"));
/// assert_eq!(canonical("wp_posts"), None);
/// ```
pub fn canonical(word: &str) -> Option<&'static str> {
    if word.len() > 24 || word.is_empty() {
        return None;
    }
    let idx = KEYWORDS
        .binary_search_by(|entry| {
            let mut ours = entry.bytes();
            let mut theirs = word.bytes().map(|b| b.to_ascii_uppercase());
            loop {
                match (ours.next(), theirs.next()) {
                    (None, None) => return std::cmp::Ordering::Equal,
                    (a, b) => match a.cmp(&b) {
                        std::cmp::Ordering::Equal => continue,
                        other => return other,
                    },
                }
            }
        })
        .ok()?;
    Some(KEYWORDS[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_table_is_sorted_and_unique() {
        for w in KEYWORDS.windows(2) {
            assert!(w[0] < w[1], "{} >= {}", w[0], w[1]);
        }
    }

    #[test]
    fn keyword_lookup_case_insensitive() {
        assert!(is_keyword("Union"));
        assert!(is_keyword("uNiOn"));
        assert!(is_keyword("where"));
        assert!(!is_keyword(""));
        assert!(!is_keyword("unions"));
    }

    #[test]
    fn long_words_rejected_quickly() {
        assert!(!is_keyword(&"a".repeat(100)));
    }

    #[test]
    fn canonical_matches_uppercase_rendering() {
        // The skeleton renderer relies on `canonical(w)` being exactly
        // `w.to_ascii_uppercase()` for every keyword, in any input case.
        for kw in KEYWORDS {
            assert_eq!(canonical(kw), Some(*kw));
            assert_eq!(canonical(&kw.to_ascii_lowercase()), Some(*kw));
        }
        assert_eq!(canonical("sElEcT"), Some("SELECT"));
        assert_eq!(canonical(""), None);
        assert_eq!(canonical("selects"), None);
        assert_eq!(canonical("sele"), None);
    }
}
