//! ASCII case folding.
//!
//! NTI "makes allowance for common and small string transformations
//! performed by an application, such as stripping whitespace and performing
//! case-conversions" (§III-A). The approximate matcher already absorbs small
//! edits such as stripped whitespace; these helpers fold case before
//! matching.

use crate::swar;
use std::borrow::Cow;

/// ASCII-lowercases a byte string, borrowing when no byte needs changing.
///
/// Inputs and queries on the NTI hot path are overwhelmingly already
/// lowercase (numeric ids, slugs, lowercased SQL), so the common case
/// allocates nothing: the input is scanned eight bytes per word
/// ([`swar::first_ascii_upper`]) and returned as [`Cow::Borrowed`] unless
/// an uppercase ASCII byte is found; only then is an owned, folded copy
/// built ([`to_lower_into`]).
///
/// # UTF-8 / multi-byte passthrough
///
/// Only the 26 bytes `A..=Z` are rewritten. Every other byte — including
/// all bytes `≥ 0x80`, i.e. every byte of every multi-byte UTF-8
/// sequence — passes through **unchanged**, so valid UTF-8 stays valid
/// and non-ASCII letters keep their case. This mirrors PHP
/// `strtolower`'s byte-wise C-locale behaviour, which is what the
/// applications NTI models actually call.
///
/// # Examples
///
/// ```
/// use std::borrow::Cow;
/// use joza_strmatch::normalize::to_lower;
///
/// assert_eq!(to_lower(b"SeLeCt * FROM T").as_ref(), b"select * from t");
/// assert!(matches!(to_lower(b"already lower 1=1"), Cow::Borrowed(_)));
/// // Multi-byte UTF-8 passes through byte-for-byte: only ASCII folds.
/// assert_eq!(to_lower("Ärger OR 1=1".as_bytes()).as_ref(), "Ärger or 1=1".as_bytes());
/// ```
pub fn to_lower(s: &[u8]) -> Cow<'_, [u8]> {
    match swar::first_ascii_upper(s) {
        None => Cow::Borrowed(s),
        Some(first) => {
            let mut out = Vec::with_capacity(s.len());
            out.extend_from_slice(&s[..first]);
            to_lower_into(&s[first..], &mut out);
            Cow::Owned(out)
        }
    }
}

/// Appends the ASCII-lowercased copy of `s` to `out` without allocating
/// beyond `out`'s own growth — the arena-scratch flavour of [`to_lower`]
/// used on the per-check path where the destination buffer is recycled
/// across checks. Same byte-wise semantics, including the UTF-8
/// passthrough guarantee.
///
/// A plain byte map: the compiler vectorizes it, and it measured faster
/// than a hand-written eight-bytes-per-word fold at every length from
/// 32 B to 4 KB.
pub fn to_lower_into(s: &[u8], out: &mut Vec<u8>) {
    out.extend(s.iter().map(u8::to_ascii_lowercase));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_passes_non_ascii() {
        assert_eq!(to_lower("ÄB".as_bytes()).as_ref(), "Äb".as_bytes());
        // Every byte ≥ 0x80 must survive untouched, even mid-word and in
        // words mixed with ASCII uppercase.
        let mixed = "ÀÉÎÕÜ WHERE ÿ".as_bytes();
        let folded = to_lower(mixed);
        assert_eq!(folded.as_ref(), "ÀÉÎÕÜ where ÿ".as_bytes());
        assert!(std::str::from_utf8(folded.as_ref()).is_ok());
    }

    #[test]
    fn lower_into_matches_cow_flavor() {
        for s in [&b"SeLeCt 1"[..], b"", b"plain", "Ä Z ä".as_bytes()] {
            let mut out = Vec::new();
            to_lower_into(s, &mut out);
            assert_eq!(out.as_slice(), to_lower(s).as_ref());
        }
    }

    #[test]
    fn lower_borrows_when_already_lower() {
        assert!(matches!(to_lower(b"select * from t"), Cow::Borrowed(_)));
        assert!(matches!(to_lower(b""), Cow::Borrowed(_)));
        assert!(matches!(to_lower("ä 1=1 -- ".as_bytes()), Cow::Borrowed(_)));
        assert!(matches!(to_lower(b"x WHERE y"), Cow::Owned(_)));
    }
}
