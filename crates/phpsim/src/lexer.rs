//! Lexer for the PHP subset.
//!
//! Input is a plain PHP script (an optional `<?php` opener and `?>` closer
//! are tolerated and skipped). Double-quoted strings are lexed into
//! *parts* — literal runs and `$variable` interpolations — because both the
//! interpreter (concatenation semantics) and the fragment extractor
//! (placeholder splitting, §IV-A) need the split.
//!
//! One lexer serves both consumers. Its token stream borrows from the
//! source: names are slices, and a literal stays a slice until an escape
//! sequence forces a copy. [`lex_php_spanned`] turns that
//! stream into owned [`PTok`]s for the parser; the fragment extractor reads
//! the stream directly and never materializes a token vector.

use crate::span::Span;
use std::borrow::Cow;
use std::fmt;

/// One component of a double-quoted string literal.
#[derive(Debug, Clone, PartialEq)]
pub enum StrPart {
    /// A literal run of characters (escapes already processed).
    Lit(String),
    /// An interpolated `$name` or `{$name}` variable.
    Interp(String),
}

/// A lexed PHP token.
#[derive(Debug, Clone, PartialEq)]
pub enum PTok {
    /// `$name`.
    Var(String),
    /// A bare identifier or keyword (case preserved; keywords are matched
    /// case-insensitively by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal (also an integer literal past `i64::MAX`, as in PHP).
    Float(f64),
    /// A string literal, already split into parts. Single-quoted strings
    /// always produce a single `Lit` part.
    Str(Vec<StrPart>),
    /// An operator or punctuation lexeme (`.`, `.=`, `==`, `(`, `;`, …).
    Op(&'static str),
}

impl fmt::Display for PTok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PTok::Var(v) => write!(f, "${v}"),
            PTok::Ident(i) => f.write_str(i),
            PTok::Int(i) => write!(f, "{i}"),
            PTok::Float(x) => write!(f, "{x}"),
            PTok::Str(_) => f.write_str("<string>"),
            PTok::Op(o) => f.write_str(o),
        }
    }
}

/// An error produced while lexing PHP source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PHP lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Lexes PHP source into tokens.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated strings or unexpected bytes —
/// plugin sources are authored, not attacker-controlled, so strictness is
/// appropriate here (unlike the SQL lexer, which must be total).
pub fn lex_php(src: &str) -> Result<Vec<PTok>, LexError> {
    lex_php_spanned(src).map(|(toks, _)| toks)
}

/// Lexes PHP source into tokens plus a parallel table of byte [`Span`]s
/// (one per token, same index).
///
/// # Errors
///
/// Same failure modes as [`lex_php`].
pub fn lex_php_spanned(src: &str) -> Result<(Vec<PTok>, Vec<Span>), LexError> {
    let mut lx = PhpLexer::new(src);
    let (mut toks, mut spans) = (Vec::new(), Vec::new());
    while let Some((lexeme, span)) = lx.next_token()? {
        toks.push(match lexeme {
            Lexeme::Var(name) => PTok::Var(name.to_string()),
            Lexeme::Ident(name) => PTok::Ident(name.to_string()),
            Lexeme::Int(i) => PTok::Int(i),
            Lexeme::Float(x) => PTok::Float(x),
            Lexeme::Op(op) => PTok::Op(op),
            Lexeme::Str => PTok::Str(
                lx.parts
                    .drain(..)
                    .map(|part| match part {
                        RawPart::Lit(lit) => StrPart::Lit(lit.into_owned()),
                        RawPart::Interp(name) => StrPart::Interp(name.to_string()),
                    })
                    .collect(),
            ),
        });
        spans.push(span);
    }
    Ok((toks, spans))
}

/// A token borrowed from the source it was lexed from.
#[derive(Debug)]
pub(crate) enum Lexeme<'s> {
    Var(&'s str),
    Ident(&'s str),
    Int(i64),
    Float(f64),
    /// A string literal; its parts are in [`PhpLexer::parts`] until the
    /// next token is lexed.
    Str,
    Op(&'static str),
}

/// One part of a string literal, borrowed from the source where possible.
#[derive(Debug)]
pub(crate) enum RawPart<'s> {
    /// Literal text: a source slice unless an escape sequence forced a
    /// copy.
    Lit(Cow<'s, str>),
    /// An interpolated variable name.
    Interp(&'s str),
}

/// A streaming PHP lexer: [`PhpLexer::next_token`] yields one token at a
/// time.
pub(crate) struct PhpLexer<'s> {
    src: &'s str,
    pos: usize,
    /// The parts of the string literal last returned as [`Lexeme::Str`].
    pub(crate) parts: Vec<RawPart<'s>>,
}

impl<'s> PhpLexer<'s> {
    /// A lexer at the start of `src`, past any `<?php` or `<?` opener.
    pub(crate) fn new(src: &'s str) -> Self {
        let pos = if src.starts_with("<?php") {
            5
        } else if src.starts_with("<?") {
            2
        } else {
            0
        };
        PhpLexer { src, pos, parts: Vec::new() }
    }

    /// The next token and its byte span, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// The failure modes of [`lex_php`]; the lexer is not meant to be
    /// driven further after one.
    pub(crate) fn next_token(&mut self) -> Result<Option<(Lexeme<'s>, Span)>, LexError> {
        self.parts.clear();
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            let start = self.pos;
            let lexeme = match b {
                _ if b.is_ascii_whitespace() => {
                    self.pos += 1;
                    continue;
                }
                b'?' if self.peek(1) == Some(b'>') => {
                    // Closing tag: ignore the rest (no HTML mode).
                    self.pos = bytes.len();
                    continue;
                }
                b'/' if self.peek(1) == Some(b'/') => {
                    self.line_comment();
                    continue;
                }
                b'#' => {
                    self.line_comment();
                    continue;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment()?;
                    continue;
                }
                b'$' => self.variable()?,
                b'\'' => self.single_quoted()?,
                b'"' => self.double_quoted()?,
                b'0'..=b'9' => self.number(),
                b'.' if self.peek(1).is_some_and(|c| c.is_ascii_digit()) => self.number(),
                _ if is_ident_start_byte(b) => Lexeme::Ident(self.ident_run()),
                _ => self.operator()?,
            };
            return Ok(Some((lexeme, Span::new(start, self.pos))));
        }
        Ok(None)
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError { offset: self.pos, message: message.into() }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    /// Advances past identifier bytes and returns them.
    fn ident_run(&mut self) -> &'s str {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && is_ident_byte(bytes[self.pos]) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn line_comment(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    fn block_comment(&mut self) -> Result<(), LexError> {
        match self.src[self.pos + 2..].find("*/") {
            Some(end) => {
                self.pos += 2 + end + 2;
                Ok(())
            }
            None => Err(self.err("unterminated block comment")),
        }
    }

    fn variable(&mut self) -> Result<Lexeme<'s>, LexError> {
        self.pos += 1; // `$`
        let name = self.ident_run();
        if name.is_empty() {
            return Err(self.err("expected variable name after $"));
        }
        Ok(Lexeme::Var(name))
    }

    fn single_quoted(&mut self) -> Result<Lexeme<'s>, LexError> {
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let mut lit = Cow::Borrowed("");
        let mut run = self.pos;
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b'\\' if matches!(self.peek(1), Some(b'\'' | b'\\')) => {
                    // `\'` and `\\` keep only the escaped byte, which
                    // starts the next run.
                    append_run(&mut lit, &self.src[run..self.pos]);
                    run = self.pos + 1;
                    self.pos += 2;
                }
                b'\'' => {
                    append_run(&mut lit, &self.src[run..self.pos]);
                    self.pos += 1;
                    self.parts.push(RawPart::Lit(lit));
                    return Ok(Lexeme::Str);
                }
                // Any other backslash is literal.
                _ => self.pos = find_any(bytes, self.pos + 1, [b'\'', b'\\']),
            }
        }
        Err(self.err("unterminated single-quoted string"))
    }

    fn double_quoted(&mut self) -> Result<Lexeme<'s>, LexError> {
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let mut lit = Cow::Borrowed("");
        let mut run = self.pos;
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b'\\' => {
                    let decoded = match self.peek(1) {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'$') => '$',
                        // An unknown escape stays literal, backslash
                        // included. Before a multi-byte character only the
                        // backslash is consumed here; the character is
                        // copied whole with the rest of the run.
                        Some(next) => {
                            self.pos += if next.is_ascii() { 2 } else { 1 };
                            continue;
                        }
                        None => {
                            self.pos = bytes.len();
                            return Err(self.err("unterminated string escape"));
                        }
                    };
                    append_run(&mut lit, &self.src[run..self.pos]);
                    lit.to_mut().push(decoded);
                    self.pos += 2;
                    run = self.pos;
                }
                b'$' if self.peek(1).is_some_and(is_ident_start_byte) => {
                    append_run(&mut lit, &self.src[run..self.pos]);
                    self.pos += 1;
                    let name = self.ident_run();
                    self.flush_lit(&mut lit);
                    self.parts.push(RawPart::Interp(name));
                    run = self.pos;
                }
                b'{' if self.peek(1) == Some(b'$') => {
                    // `{$name}` form.
                    append_run(&mut lit, &self.src[run..self.pos]);
                    self.pos += 2;
                    let name = self.ident_run();
                    if self.peek(0) != Some(b'}') {
                        return Err(self.err("expected } after {$var"));
                    }
                    self.pos += 1;
                    self.flush_lit(&mut lit);
                    self.parts.push(RawPart::Interp(name));
                    run = self.pos;
                }
                b'"' => {
                    append_run(&mut lit, &self.src[run..self.pos]);
                    self.pos += 1;
                    self.flush_lit(&mut lit);
                    return Ok(Lexeme::Str);
                }
                _ => self.pos = find_any(bytes, self.pos + 1, [b'"', b'\\', b'$', b'{']),
            }
        }
        Err(self.err("unterminated double-quoted string"))
    }

    /// Ends the current literal part, if it has any text.
    fn flush_lit(&mut self, lit: &mut Cow<'s, str>) {
        if !lit.is_empty() {
            self.parts.push(RawPart::Lit(std::mem::take(lit)));
        }
    }

    fn number(&mut self) -> Lexeme<'s> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let mut is_float = false;
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b.is_ascii_digit() {
                self.pos += 1;
            } else if b == b'.' && !is_float && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        // Digits alone fail to parse as i64 only past `i64::MAX`, where
        // PHP reads the literal as a float.
        match text.parse() {
            Ok(i) if !is_float => Lexeme::Int(i),
            _ => Lexeme::Float(text.parse().unwrap_or(0.0)),
        }
    }

    /// Maximal munch over the operators that start with the current byte.
    fn operator(&mut self) -> Result<Lexeme<'s>, LexError> {
        let rest = &self.src.as_bytes()[self.pos..];
        let ops = ops_starting_with(rest[0]);
        match ops.iter().find(|op| rest.starts_with(op.as_bytes())) {
            Some(op) => {
                self.pos += op.len();
                Ok(Lexeme::Op(op))
            }
            None => Err(self.err(format!("unexpected byte {:?}", rest[0] as char))),
        }
    }
}

/// Appends a run of text to a literal being assembled, borrowing the run
/// while the literal is still empty.
pub(crate) fn append_run<'s>(lit: &mut Cow<'s, str>, run: &'s str) {
    if lit.is_empty() {
        *lit = Cow::Borrowed(run);
    } else if !run.is_empty() {
        lit.to_mut().push_str(run);
    }
}

/// Bit 0 of every byte lane of a word.
const LANES: u64 = 0x0101_0101_0101_0101;
/// Bit 7 of every byte lane of a word.
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Mask with bit 7 set in each byte lane of `w` that equals `b`. Exact
/// per lane: a lane's low seven bits plus `0x7f` cannot carry into the
/// next lane, unlike the borrowing `haszero` trick.
fn eq_lanes(w: u64, b: u8) -> u64 {
    let x = w ^ (LANES * u64::from(b));
    !(((x & !HIGHS) + !HIGHS) | x) & HIGHS
}

/// Index of the first byte at or after `from` that is one of `stops`, or
/// `bytes.len()` if there is none. String literals are mostly plain text
/// between the few bytes a scan must stop at, so this reads eight bytes
/// a word and finishes the last `len % 8` bytes one at a time. Stops are
/// ASCII, so the result is always a character boundary.
pub(crate) fn find_any<const N: usize>(bytes: &[u8], from: usize, stops: [u8; N]) -> usize {
    #[cfg(test)]
    if tests::BYTEWISE.get() {
        // The byte-at-a-time reference: advance one byte, and the caller
        // examines it.
        return from;
    }
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight-byte chunk"));
        let hits = stops.iter().fold(0, |m, &b| m | eq_lanes(w, b));
        if hits != 0 {
            return i + hits.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    bytes[i..].iter().position(|b| stops.contains(b)).map_or(bytes.len(), |k| i + k)
}

/// The operators beginning with `first`, longest first.
fn ops_starting_with(first: u8) -> &'static [&'static str] {
    match first {
        b'=' => &["===", "==", "=>", "="],
        b'!' => &["!==", "!=", "!"],
        b'<' => &["<=>", "<<=", "<>", "<=", "<<", "<"],
        b'>' => &[">>=", ">=", ">>", ">"],
        b'*' => &["**=", "*=", "*"],
        b'&' => &["&&", "&"],
        b'|' => &["||", "|"],
        b'-' => &["->", "--", "-=", "-"],
        b'+' => &["++", "+=", "+"],
        b'/' => &["/=", "/"],
        b'.' => &[".=", "."],
        b'%' => &["%=", "%"],
        b'?' => &["??", "?"],
        b'(' => &["("],
        b')' => &[")"],
        b'[' => &["["],
        b']' => &["]"],
        b'{' => &["{"],
        b'}' => &["}"],
        b',' => &[","],
        b';' => &[";"],
        b':' => &[":"],
        b'^' => &["^"],
        b'~' => &["~"],
        b'@' => &["@"],
        _ => &[],
    }
}

fn is_ident_start_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Turns [`find_any`] into the byte-at-a-time loop it replaced.
        pub(crate) static BYTEWISE: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with the literal scans advancing one byte at a time.
    pub(crate) fn bytewise<T>(f: impl FnOnce() -> T) -> T {
        BYTEWISE.set(true);
        let out = f();
        BYTEWISE.set(false);
        out
    }

    /// Runs of the bytes the literal scans stop at or branch on, and runs
    /// of plain text (identifier bytes and multi-byte characters) to put
    /// between them.
    const STOPS: &str = "[\\\\\"'${}%:]{0,3}";
    const PLAIN: &str = "[a-z_0-9 é€𝄞]{0,12}";

    proptest! {
        #[test]
        fn reference_scan_lexes_identically(
            stops in proptest::collection::vec(STOPS, 1..16),
            plain in proptest::collection::vec(PLAIN, 1..16),
        ) {
            let body: String = stops.iter().zip(&plain).map(|(s, p)| format!("{s}{p}")).collect();
            for src in [
                format!("$q = \"{body}\"; $r = '{body}';"),
                format!("$q = '{body}'; $r = \"{body}\";"),
            ] {
                let got = lex_php_spanned(&src);
                prop_assert_eq!(&got, &bytewise(|| lex_php_spanned(&src)), "{:?}", src);
            }
        }

        #[test]
        fn find_any_finds_the_first_stop(
            text in "[a\"\\\\$é{]{0,40}",
            from in 0usize..48,
        ) {
            let bytes = text.as_bytes();
            let from = from.min(bytes.len());
            let want = bytes[from..]
                .iter()
                .position(|b| b"\"\\$".contains(b))
                .map_or(bytes.len(), |k| from + k);
            prop_assert_eq!(find_any(bytes, from, [b'"', b'\\', b'$']), want);
        }
    }

    #[test]
    fn reference_scan_agrees_on_edge_cases() {
        for src in [
            r#"$q = "";"#,
            r#"$q = "abcdefgh";"#,
            r#"$q = "abcdefg\"";"#,
            r#"$q = "abcdefgh$x{$y}ijklmnop\$z\\";"#,
            r#"$q = "{ {$ ${ $1 é\é€ $é";"#,
            "$q = 'abcdefgh\\'ijklmnop\\\\qrstuvw\\x';",
            "$q = 'ünïcödé ünïcödé ünïcödé';",
            r#"$q = "unterminated"#,
            "$q = 'unterminated",
            r#"$q = "bad escape at the end\"#,
            r#"$q = "{$x";"#,
        ] {
            assert_eq!(lex_php_spanned(src), bytewise(|| lex_php_spanned(src)), "{src:?}");
        }
    }

    #[test]
    fn eq_lanes_is_exact_in_every_lane() {
        for b in 0..=255u8 {
            for v in [0u8, 1, 0x7f, 0x80, 0xff, b, b ^ 1, b.wrapping_add(1)] {
                for lane in 0..8 {
                    // Every other lane holds `b`'s neighbour, which must not
                    // leak a match into this lane.
                    let mut word = [b.wrapping_sub(1); 8];
                    word[lane] = v;
                    let mask = eq_lanes(u64::from_le_bytes(word), b);
                    let hit = mask >> (lane * 8 + 7) & 1 == 1;
                    assert_eq!(hit, v == b, "b={b} v={v} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn basic_assignment() {
        let toks = lex_php("$x = 5;").unwrap();
        assert_eq!(toks, vec![PTok::Var("x".into()), PTok::Op("="), PTok::Int(5), PTok::Op(";")]);
    }

    #[test]
    fn open_close_tags_skipped() {
        let toks = lex_php("<?php $x = 1; ?>").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn single_quoted_no_interpolation() {
        let toks = lex_php(r"$q = 'WHERE id=$id';").unwrap();
        assert_eq!(toks[2], PTok::Str(vec![StrPart::Lit("WHERE id=$id".into())]));
    }

    #[test]
    fn single_quoted_escapes() {
        let toks = lex_php(r"$q = 'it\'s \\ \n';").unwrap();
        // `\n` stays literal in single quotes.
        assert_eq!(toks[2], PTok::Str(vec![StrPart::Lit(r"it's \ \n".into())]));
    }

    #[test]
    fn double_quoted_interpolation_splits() {
        let toks = lex_php(r#"$q = "SELECT * FROM t WHERE id=$id LIMIT 5";"#).unwrap();
        assert_eq!(
            toks[2],
            PTok::Str(vec![
                StrPart::Lit("SELECT * FROM t WHERE id=".into()),
                StrPart::Interp("id".into()),
                StrPart::Lit(" LIMIT 5".into()),
            ])
        );
    }

    #[test]
    fn braced_interpolation() {
        let toks = lex_php(r#"$q = "a{$x}b";"#).unwrap();
        assert_eq!(
            toks[2],
            PTok::Str(vec![
                StrPart::Lit("a".into()),
                StrPart::Interp("x".into()),
                StrPart::Lit("b".into()),
            ])
        );
    }

    #[test]
    fn double_quoted_escapes() {
        let toks = lex_php(r#"$q = "a\"b\n\$x";"#).unwrap();
        assert_eq!(toks[2], PTok::Str(vec![StrPart::Lit("a\"b\n$x".into())]));
    }

    #[test]
    fn comments_skipped() {
        let toks = lex_php("// line\n# hash\n/* block */ $x = 1;").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn array_access_tokens() {
        let toks = lex_php("$id = $_GET['id'];").unwrap();
        assert_eq!(toks[0], PTok::Var("id".into()));
        assert_eq!(toks[2], PTok::Var("_GET".into()));
        assert_eq!(toks[3], PTok::Op("["));
    }

    #[test]
    fn operators_maximal_munch() {
        let toks = lex_php("$a .= $b === $c;").unwrap();
        assert_eq!(toks[1], PTok::Op(".="));
        assert_eq!(toks[3], PTok::Op("==="));
    }

    #[test]
    fn concat_vs_float() {
        let toks = lex_php("$a = $b . 'x'; $c = 1.5;").unwrap();
        assert!(toks.contains(&PTok::Op(".")));
        assert!(toks.contains(&PTok::Float(1.5)));
    }

    #[test]
    fn errors() {
        assert!(lex_php("$q = 'unterminated").is_err());
        assert!(lex_php("$q = \"unterminated").is_err());
        assert!(lex_php("/* unterminated").is_err());
        assert!(lex_php("$ = 5;").is_err());
    }

    #[test]
    fn spans_cover_tokens() {
        let src = "<?php $x = 'abc';";
        let (toks, spans) = lex_php_spanned(src).unwrap();
        assert_eq!(toks.len(), spans.len());
        assert_eq!(spans[0].slice(src), "$x");
        assert_eq!(spans[1].slice(src), "=");
        assert_eq!(spans[2].slice(src), "'abc'");
        assert_eq!(spans[3].slice(src), ";");
        // Spans are monotonically non-overlapping.
        for w in spans.windows(2) {
            assert!(w[0].hi <= w[1].lo);
        }
    }

    #[test]
    fn utf8_literals_are_copied_whole() {
        let toks = lex_php("$q = 'café';").unwrap();
        assert_eq!(toks[2], PTok::Str(vec![StrPart::Lit("café".into())]));
        // An unknown escape before a multi-byte character keeps both.
        let toks = lex_php("$q = \"a\\é $x ünï\\n\";").unwrap();
        assert_eq!(
            toks[2],
            PTok::Str(vec![
                StrPart::Lit("a\\é ".into()),
                StrPart::Interp("x".into()),
                StrPart::Lit(" ünï\n".into()),
            ])
        );
        let toks = lex_php("$q = 'ü\\'ö\\é';").unwrap();
        assert_eq!(toks[2], PTok::Str(vec![StrPart::Lit("ü'ö\\é".into())]));
    }

    #[test]
    fn integers_past_i64_max_are_floats() {
        let toks = lex_php("$a = 9223372036854775807; $b = 99999999999999999999;").unwrap();
        assert_eq!(toks[2], PTok::Int(i64::MAX));
        assert_eq!(toks[6], PTok::Float(1e20));
    }

    #[test]
    fn empty_literals_keep_their_shape() {
        let toks = lex_php(r#"$a = ''; $b = "";"#).unwrap();
        assert_eq!(toks[2], PTok::Str(vec![StrPart::Lit(String::new())]));
        assert_eq!(toks[6], PTok::Str(Vec::new()));
    }

    #[test]
    fn operator_dispatch_matches_maximal_munch_over_all_operators() {
        const OPS: &[&str] = &[
            "===", "!==", "<=>", "<<=", ">>=", "**=", "&&", "||", "==", "!=", "<>", "<=", ">=",
            "=>", "->", "++", "--", "+=", "-=", "*=", "/=", ".=", "%=", "??", "<<", ">>", "(", ")",
            "[", "]", "{", "}", ",", ";", ".", "+", "-", "*", "/", "%", "=", "<", ">", "!", "?",
            ":", "&", "|", "^", "~", "@",
        ];
        // Reference: scan the whole table, longest first.
        let reference = |rest: &str| OPS.iter().copied().find(|op| rest.starts_with(op));
        let alphabet: std::collections::BTreeSet<char> = OPS.concat().chars().collect();
        for &a in &alphabet {
            for &b in &alphabet {
                for &c in &alphabet {
                    let rest: String = [a, b, c].iter().collect();
                    let mut lx = PhpLexer { src: &rest, pos: 0, parts: Vec::new() };
                    let got = lx.operator().ok().map(|l| match l {
                        Lexeme::Op(op) => op,
                        other => panic!("operator() returned {other:?}"),
                    });
                    assert_eq!(got, reference(&rest), "{rest:?}");
                }
            }
        }
    }

    #[test]
    fn arrow_and_ternary() {
        let toks = lex_php("$a = $c ? $x : $y; $m => $n;").unwrap();
        assert!(toks.contains(&PTok::Op("?")));
        assert!(toks.contains(&PTok::Op(":")));
        assert!(toks.contains(&PTok::Op("=>")));
    }
}
