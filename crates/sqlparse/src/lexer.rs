//! A total lexer for the MySQL dialect.
//!
//! "Total" means every input string produces a token stream: injected
//! queries are frequently malformed (unbalanced quotes, truncated
//! comments), and the taint analyses must still see their token structure.
//! Unterminated strings and comments extend to the end of the input;
//! unclassifiable bytes become [`TokenKind::Unknown`] tokens.

use crate::keywords::is_keyword;
use crate::token::{Token, TokenKind};
use joza_strmatch::swar;

/// Lexes `source` into a whitespace-free token stream.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::lexer::lex;
/// use joza_sqlparse::token::TokenKind;
///
/// let toks = lex("SELECT id FROM t WHERE a='x' -- done");
/// let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
/// assert_eq!(kinds, [
///     TokenKind::Keyword,    // SELECT
///     TokenKind::Identifier, // id
///     TokenKind::Keyword,    // FROM
///     TokenKind::Identifier, // t
///     TokenKind::Keyword,    // WHERE
///     TokenKind::Identifier, // a
///     TokenKind::Operator,   // =
///     TokenKind::StringLit,  // 'x'
///     TokenKind::Comment,    // -- done
/// ]);
/// ```
pub fn lex(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    lex_into(source, &mut tokens);
    tokens
}

/// [`lex`] into a caller-owned buffer: `tokens` is cleared and refilled,
/// so a recycled buffer makes repeated lexing allocation-free once its
/// capacity has grown to the working set. This is the per-check entry
/// point (`joza-core` routes it through its check arena); byte scanning
/// runs on the word-parallel [`swar`] kernels.
pub fn lex_into(source: &str, tokens: &mut Vec<Token>) {
    tokens.clear();
    tokens.extend(Lexer { src: source.as_bytes(), pos: 0 });
    // Words lex as Identifier; promote reserved words to Keyword.
    for t in tokens {
        if t.kind == TokenKind::Identifier && is_keyword(t.text(source)) {
            t.kind = TokenKind::Keyword;
        }
    }
}

/// Whether `source` lexes to at least one token that is not
/// [`TokenKind::Unknown`] — the fragment extractor's retain rule (§IV-A).
/// Drives the same lexer as [`lex`] but stops at the first such token and
/// skips keyword promotion, which cannot turn a token into `Unknown`.
///
/// # Examples
///
/// ```
/// use joza_sqlparse::lexer::has_known_token;
///
/// assert!(has_known_token("  AND "));
/// assert!(!has_known_token("   "));
/// ```
pub fn has_known_token(source: &str) -> bool {
    Lexer { src: source.as_bytes(), pos: 0 }.any(|t| t.kind != TokenKind::Unknown)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

/// Yields tokens without whitespace and before keyword promotion.
impl Iterator for Lexer<'_> {
    type Item = Token;

    #[inline(always)]
    fn next(&mut self) -> Option<Token> {
        loop {
            if self.pos >= self.src.len() {
                return None;
            }
            let start = self.pos;
            let b = self.src[self.pos];
            let kind = match b {
                b if b.is_ascii_whitespace() => {
                    self.pos = swar::scan_ws(self.src, self.pos + 1);
                    continue;
                }
                b'\'' | b'"' => self.string_lit(b),
                b'`' => self.backtick_ident(),
                b'#' => self.line_comment(),
                b'-' if self.peek(1) == Some(b'-') && self.dash_dash_is_comment() => {
                    self.line_comment()
                }
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'0'..=b'9' => self.number(),
                b'.' if self.peek(1).is_some_and(|c| c.is_ascii_digit()) => self.number(),
                b'.' => {
                    self.pos += 1;
                    TokenKind::Dot
                }
                b'(' => {
                    self.pos += 1;
                    TokenKind::LParen
                }
                b')' => {
                    self.pos += 1;
                    TokenKind::RParen
                }
                b',' => {
                    self.pos += 1;
                    TokenKind::Comma
                }
                b';' => {
                    self.pos += 1;
                    TokenKind::Semicolon
                }
                b'?' => {
                    self.pos += 1;
                    TokenKind::Placeholder
                }
                b':' if self.peek(1).is_some_and(is_ident_start) => {
                    self.pos += 1;
                    self.ident_tail();
                    TokenKind::Placeholder
                }
                b'@' => {
                    self.pos += 1;
                    if self.peek(0) == Some(b'@') {
                        self.pos += 1;
                    }
                    self.ident_tail();
                    TokenKind::Variable
                }
                b if is_ident_start(b) => {
                    self.ident();
                    TokenKind::Identifier
                }
                b if is_operator_start(b) => self.operator(),
                _ => {
                    self.pos += 1;
                    TokenKind::Unknown
                }
            };
            return Some(Token { kind, start, end: self.pos });
        }
    }
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// MySQL requires `--` to be followed by whitespace (or end of input)
    /// to start a comment; `-1--2` is arithmetic.
    fn dash_dash_is_comment(&self) -> bool {
        match self.peek(2) {
            None => true,
            Some(c) => c.is_ascii_whitespace(),
        }
    }

    fn string_lit(&mut self, quote: u8) -> TokenKind {
        self.pos += 1; // opening quote
                       // Word-scan to the next byte that can end or escape the literal;
                       // everything between is plain content.
        while self.pos < self.src.len() {
            self.pos = swar::find_byte2(self.src, self.pos, quote, b'\\');
            if self.pos >= self.src.len() {
                break;
            }
            if self.src[self.pos] == b'\\' && self.pos + 1 < self.src.len() {
                self.pos += 2; // backslash escape
            } else if self.src[self.pos] == quote {
                if self.peek(1) == Some(quote) {
                    self.pos += 2; // doubled quote escape
                } else {
                    self.pos += 1; // closing quote
                    return TokenKind::StringLit;
                }
            } else {
                // Trailing backslash at end of input: plain content.
                self.pos += 1;
            }
        }
        TokenKind::StringLit // unterminated: extends to end of input
    }

    fn backtick_ident(&mut self) -> TokenKind {
        self.pos = swar::find_byte(self.src, self.pos + 1, b'`');
        if self.pos < self.src.len() {
            self.pos += 1; // closing backtick
        }
        TokenKind::QuotedIdentifier
    }

    fn line_comment(&mut self) -> TokenKind {
        self.pos = swar::find_byte(self.src, self.pos, b'\n');
        TokenKind::Comment
    }

    fn block_comment(&mut self) -> TokenKind {
        self.pos += 2; // consume `/*`
        while self.pos < self.src.len() {
            self.pos = swar::find_byte(self.src, self.pos, b'*');
            if self.peek(1) == Some(b'/') {
                self.pos += 2;
                return TokenKind::Comment;
            }
            if self.pos < self.src.len() {
                self.pos += 1;
            }
        }
        TokenKind::Comment // unterminated
    }

    fn number(&mut self) -> TokenKind {
        // Hex literal 0x...
        if self.src[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x') | Some(b'X'))
            && self.peek(2).is_some_and(|c| c.is_ascii_hexdigit())
        {
            self.pos = swar::scan_hex(self.src, self.pos + 2);
            return TokenKind::Number;
        }
        self.pos = swar::scan_digits(self.src, self.pos);
        if self.peek(0) == Some(b'.') && self.peek(1).is_none_or(|c| c.is_ascii_digit()) {
            self.pos = swar::scan_digits(self.src, self.pos + 1);
        }
        // Exponent part: 1e3, 1.5E-2
        if matches!(self.peek(0), Some(b'e') | Some(b'E')) {
            let mut ahead = 1;
            if matches!(self.peek(1), Some(b'+') | Some(b'-')) {
                ahead = 2;
            }
            if self.peek(ahead).is_some_and(|c| c.is_ascii_digit()) {
                self.pos = swar::scan_digits(self.src, self.pos + ahead);
            }
        }
        TokenKind::Number
    }

    fn ident(&mut self) {
        self.pos += 1;
        self.ident_tail();
    }

    fn ident_tail(&mut self) {
        self.pos = swar::scan_ident(self.src, self.pos);
    }

    fn operator(&mut self) -> TokenKind {
        let b = self.src[self.pos];
        let two: Option<[u8; 2]> = self.peek(1).map(|n| [b, n]);
        // Multi-byte operators, longest first.
        if let Some(t) = two {
            if TWO_BYTE_OPERATORS.iter().any(|o| o.as_bytes() == t) {
                self.pos += 2;
                return TokenKind::Operator;
            }
        }
        self.pos += 1;
        TokenKind::Operator
    }
}

/// The multi-byte operators the lexer recognizes; every other operator,
/// punctuation mark and unclassifiable byte is one byte. The symbol table
/// seeds these, so a checked query's operators never need a local id.
pub(crate) const TWO_BYTE_OPERATORS: &[&str] =
    &["<=", ">=", "<>", "!=", ":=", "||", "&&", "<<", ">>"];

fn is_ident_start(b: u8) -> bool {
    // Continue-set ([`swar::is_ident_byte`]) minus digits.
    !b.is_ascii_digit() && swar::is_ident_byte(b)
}

fn is_operator_start(b: u8) -> bool {
    matches!(
        b,
        b'=' | b'<'
            | b'>'
            | b'!'
            | b'+'
            | b'-'
            | b'*'
            | b'/'
            | b'%'
            | b'&'
            | b'|'
            | b'^'
            | b'~'
            | b':'
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(q: &str) -> Vec<TokenKind> {
        lex(q).iter().map(|t| t.kind).collect()
    }

    fn texts(q: &str) -> Vec<String> {
        lex(q).iter().map(|t| t.text(q).to_string()).collect()
    }

    #[test]
    fn empty_input() {
        assert!(lex("").is_empty());
        assert!(lex("   \t\n").is_empty());
    }

    #[test]
    fn keywords_promoted() {
        let q = "select * from t";
        let k = kinds(q);
        assert_eq!(k[0], TokenKind::Keyword);
        assert_eq!(k[2], TokenKind::Keyword);
        assert_eq!(k[3], TokenKind::Identifier);
    }

    #[test]
    fn string_with_backslash_escape() {
        let q = r"SELECT 'it\'s'";
        let t = lex(q);
        assert_eq!(t[1].kind, TokenKind::StringLit);
        assert_eq!(t[1].text(q), r"'it\'s'");
    }

    #[test]
    fn string_with_doubled_quote() {
        let q = "SELECT 'it''s'";
        let t = lex(q);
        assert_eq!(t[1].kind, TokenKind::StringLit);
        assert_eq!(t[1].text(q), "'it''s'");
    }

    #[test]
    fn unterminated_string_is_total() {
        let q = "SELECT 'oops";
        let t = lex(q);
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].kind, TokenKind::StringLit);
        assert_eq!(t[1].end, q.len());
    }

    #[test]
    fn comment_styles() {
        assert_eq!(kinds("-- hi"), [TokenKind::Comment]);
        assert_eq!(kinds("# hi"), [TokenKind::Comment]);
        assert_eq!(kinds("/* hi */"), [TokenKind::Comment]);
        assert_eq!(kinds("/*! hi */"), [TokenKind::Comment]);
    }

    #[test]
    fn unterminated_block_comment() {
        let q = "SELECT /* oops";
        let t = lex(q);
        assert_eq!(t[1].kind, TokenKind::Comment);
        assert_eq!(t[1].end, q.len());
    }

    #[test]
    fn dash_dash_requires_whitespace() {
        // `1--2` is `1 - (-2)`, not a comment.
        let q = "1--2";
        assert_eq!(
            kinds(q),
            [TokenKind::Number, TokenKind::Operator, TokenKind::Operator, TokenKind::Number]
        );
        // `1-- 2` is a comment.
        assert_eq!(kinds("1-- 2"), [TokenKind::Number, TokenKind::Comment]);
        // Trailing `--` at end of input is a comment.
        assert_eq!(kinds("1 --"), [TokenKind::Number, TokenKind::Comment]);
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42"), [TokenKind::Number]);
        assert_eq!(kinds("3.25"), [TokenKind::Number]);
        assert_eq!(kinds(".5"), [TokenKind::Number]);
        assert_eq!(kinds("0x41"), [TokenKind::Number]);
        assert_eq!(kinds("1e3"), [TokenKind::Number]);
        assert_eq!(kinds("1.5E-2"), [TokenKind::Number]);
    }

    #[test]
    fn hex_literal_span() {
        let q = "SELECT 0x414243";
        let t = lex(q);
        assert_eq!(t[1].text(q), "0x414243");
    }

    #[test]
    fn multi_byte_operators() {
        assert_eq!(
            texts("a <= b <> c != d || e"),
            ["a", "<=", "b", "<>", "c", "!=", "d", "||", "e"]
        );
    }

    #[test]
    fn backtick_identifier() {
        let q = "SELECT `wp_posts`.`ID` FROM `wp_posts`";
        let t = lex(q);
        assert_eq!(t[1].kind, TokenKind::QuotedIdentifier);
        assert_eq!(t[1].text(q), "`wp_posts`");
        assert_eq!(t[2].kind, TokenKind::Dot);
    }

    #[test]
    fn placeholders_and_variables() {
        assert_eq!(kinds("?"), [TokenKind::Placeholder]);
        assert_eq!(kinds(":name"), [TokenKind::Placeholder]);
        assert_eq!(kinds("@uservar"), [TokenKind::Variable]);
        assert_eq!(kinds("@@version"), [TokenKind::Variable]);
    }

    #[test]
    fn unknown_bytes_are_tokens() {
        let q = "SELECT \x01";
        let t = lex(q);
        assert_eq!(t[1].kind, TokenKind::Unknown);
    }

    #[test]
    fn full_injection_payload() {
        let q = "SELECT * FROM t WHERE id=-1 UNION SELECT username()-- -";
        let tx = texts(q);
        assert!(tx.contains(&"UNION".to_string()));
        assert!(tx.contains(&"username".to_string()));
        assert_eq!(lex(q).last().unwrap().kind, TokenKind::Comment);
    }

    #[test]
    fn spans_are_contiguous_and_in_bounds() {
        let q = "SELECT a, b FROM t WHERE x = 'y' AND z IN (1,2,3) -- tail";
        let mut prev_end = 0;
        for t in lex(q) {
            assert!(t.start >= prev_end);
            assert!(t.end <= q.len());
            assert!(t.start < t.end);
            prev_end = t.end;
        }
    }

    #[test]
    fn token_covers_expected_lexeme() {
        let q = "UPDATE wp_options SET option_value='x' WHERE option_name='siteurl'";
        let tx = texts(q);
        assert_eq!(tx[0], "UPDATE");
        assert_eq!(tx[tx.len() - 1], "'siteurl'");
    }
}
