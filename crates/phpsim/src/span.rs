//! Byte spans into PHP source text.
//!
//! The lexer records a span per token and the parser aggregates them into
//! a span per statement (in statement *preorder*, the order the static
//! passes number statements in), so downstream consumers — chiefly the
//! static taint analyzer — can point findings back at source text.

/// A half-open byte range `[lo, hi)` into the original source string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub lo: usize,
    /// End byte offset (exclusive).
    pub hi: usize,
}

impl Span {
    /// Builds a span from byte offsets.
    pub fn new(lo: usize, hi: usize) -> Self {
        Span { lo, hi }
    }

    /// The source text this span covers (clamped to the string bounds).
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        let lo = self.lo.min(src.len());
        let hi = self.hi.clamp(lo, src.len());
        &src[lo..hi]
    }

    /// 1-based line number of the span start.
    pub fn line(&self, src: &str) -> usize {
        src.as_bytes()[..self.lo.min(src.len())].iter().filter(|&&b| b == b'\n').count() + 1
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_line() {
        let src = "ab\ncd\nef";
        let s = Span::new(3, 5);
        assert_eq!(s.slice(src), "cd");
        assert_eq!(s.line(src), 2);
        assert_eq!(Span::new(0, 2).line(src), 1);
        assert_eq!(Span::new(6, 8).line(src), 3);
        // Out-of-range spans clamp instead of panicking.
        assert_eq!(Span::new(7, 99).slice(src), "f");
    }
}
