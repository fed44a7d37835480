//! SWAR (SIMD-within-a-register) byte kernels for the per-check hot path.
//!
//! The gate's per-query constant costs are dominated by byte-at-a-time
//! scanning: the lexer classifies every byte of every query, and NTI
//! looks for an uppercase byte in the query and each captured input
//! before deciding whether to case-fold them. These kernels process
//! **eight bytes per `u64` word** with pure integer arithmetic — no
//! `unsafe`, no platform intrinsics — and fall back to a scalar tail for
//! the last `len % 8` bytes.
//!
//! # Lane-mask construction
//!
//! A word holds eight byte *lanes* (little-endian, so lane 0 is the
//! lowest-addressed byte). Every predicate below produces a mask with bit
//! 7 of each lane set iff the predicate holds for that lane's byte, built
//! from two exact, carry-free primitives:
//!
//! * `ge_lanes(w, n)` for `n ≤ 128`: clear each lane's high bit, add
//!   `128 - n` per lane (sums stay ≤ 254, so no lane ever carries into
//!   its neighbour), and read bit 7 — set iff the low 7 bits are `≥ n`;
//!   OR back the original high bits (a byte `≥ 128` is trivially `≥ n`).
//! * `zero_lanes(x)`: a lane's low 7 bits plus `0x7f` sets bit 7 iff
//!   they are nonzero; OR in the original bit 7 and complement.
//!
//! Unlike the classic `haszero` subtraction trick, neither primitive
//! borrows across lanes, so the masks are **exact per lane**, which
//! "find the first matching byte" scans rely on.
//!
//! Every kernel has a scalar reference (`*_scalar`) that is the semantic
//! ground truth; `tests/proptests.rs` checks them byte-for-byte equal on
//! arbitrary inputs, and the module tests check every classifier on all
//! 256 byte values in every lane position.

/// One bit set in lane position 0 of each byte lane (`0x01` per byte).
const LANES: u64 = 0x0101_0101_0101_0101;
/// Bit 7 of every byte lane (`0x80` per byte).
const HIGHS: u64 = 0x8080_8080_8080_8080;
/// Low seven bits of every byte lane (`0x7f` per byte).
const LOWS: u64 = !HIGHS;

/// Loads eight bytes as a little-endian word (lane 0 = `chunk[0]`).
#[inline]
fn load(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Mask of lanes whose byte is zero (bit 7 set per matching lane).
#[inline]
fn zero_lanes(x: u64) -> u64 {
    !(((x & LOWS) + LOWS) | x) & HIGHS
}

/// Mask of lanes whose byte equals `b` (any `b`, including `≥ 0x80`).
#[inline]
fn eq_lanes(w: u64, b: u8) -> u64 {
    zero_lanes(w ^ (LANES * u64::from(b)))
}

/// Mask of lanes whose byte is `≥ n`, for `n ≤ 128`.
#[inline]
fn ge_lanes(w: u64, n: u8) -> u64 {
    debug_assert!(n <= 128);
    (((w & LOWS) + (LANES * u64::from(128 - n))) | w) & HIGHS
}

/// Mask of lanes whose byte is in `lo..=hi`, for `hi < 128`.
#[inline]
fn range_lanes(w: u64, lo: u8, hi: u8) -> u64 {
    debug_assert!(hi < 128 && lo <= hi);
    ge_lanes(w, lo) & (ge_lanes(w, hi + 1) ^ HIGHS)
}

/// Mask of lanes holding an ASCII uppercase letter (`A..=Z`).
#[inline]
fn upper_lanes(w: u64) -> u64 {
    range_lanes(w, b'A', b'Z')
}

/// Mask of lanes holding an identifier-continue byte: ASCII alphanumeric,
/// `_`, `$`, or any byte `≥ 0x80` (the lexer treats multi-byte UTF-8
/// sequences as identifier characters).
#[inline]
fn ident_lanes(w: u64) -> u64 {
    range_lanes(w, b'0', b'9')
        | range_lanes(w, b'A', b'Z')
        | range_lanes(w, b'a', b'z')
        | eq_lanes(w, b'_')
        | eq_lanes(w, b'$')
        | (w & HIGHS)
}

/// Mask of lanes holding an ASCII whitespace byte (Rust's
/// `u8::is_ascii_whitespace` set: space, `\t`, `\n`, `\x0c`, `\r`).
#[inline]
fn ws_lanes(w: u64) -> u64 {
    range_lanes(w, 0x09, 0x0a) | range_lanes(w, 0x0c, 0x0d) | eq_lanes(w, b' ')
}

/// Mask of lanes holding an ASCII hex digit.
#[inline]
fn hex_lanes(w: u64) -> u64 {
    range_lanes(w, b'0', b'9') | range_lanes(w, b'A', b'F') | range_lanes(w, b'a', b'f')
}

/// Index (0..8) of the first set lane in `mask`, which must be nonzero.
#[inline]
fn first_lane(mask: u64) -> usize {
    (mask.trailing_zeros() as usize) / 8
}

/// The canonical scalar classifier behind the identifier lane mask; the
/// lexer's
/// identifier-continue predicate.
#[inline]
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$' || b >= 0x80
}

/// Generic word-at-a-time scan: advances from `from` while `stop_lanes`
/// stays all-clear, then finishes the sub-word tail with `stop_byte`.
/// Returns the index of the first byte for which `stop_byte` holds (or
/// `s.len()`).
#[inline]
fn scan(
    s: &[u8],
    from: usize,
    stop_lanes: impl Fn(u64) -> u64,
    stop_byte: impl Fn(u8) -> bool,
) -> usize {
    let mut i = from.min(s.len());
    let mut chunks = s[i..].chunks_exact(8);
    for chunk in &mut chunks {
        let stop = stop_lanes(load(chunk));
        if stop != 0 {
            return i + first_lane(stop);
        }
        i += 8;
    }
    while i < s.len() && !stop_byte(s[i]) {
        i += 1;
    }
    i
}

/// First index `≥ from` whose byte is **not** identifier-continue
/// ([`is_ident_byte`]), or `s.len()`.
pub fn scan_ident(s: &[u8], from: usize) -> usize {
    scan(s, from, |w| !ident_lanes(w) & HIGHS, |b| !is_ident_byte(b))
}

/// Scalar reference for [`scan_ident`]: one byte at a time, no words.
pub fn scan_ident_scalar(s: &[u8], from: usize) -> usize {
    let mut i = from.min(s.len());
    while i < s.len() && is_ident_byte(s[i]) {
        i += 1;
    }
    i
}

/// First index `≥ from` whose byte is not an ASCII digit, or `s.len()`.
pub fn scan_digits(s: &[u8], from: usize) -> usize {
    scan(s, from, |w| !range_lanes(w, b'0', b'9') & HIGHS, |b| !b.is_ascii_digit())
}

/// First index `≥ from` whose byte is not an ASCII hex digit, or `s.len()`.
pub fn scan_hex(s: &[u8], from: usize) -> usize {
    scan(s, from, |w| !hex_lanes(w) & HIGHS, |b| !b.is_ascii_hexdigit())
}

/// First index `≥ from` whose byte is not ASCII whitespace, or `s.len()`.
pub fn scan_ws(s: &[u8], from: usize) -> usize {
    scan(s, from, |w| !ws_lanes(w) & HIGHS, |b| !b.is_ascii_whitespace())
}

/// First index `≥ from` whose byte equals `b`, or `s.len()`.
pub fn find_byte(s: &[u8], from: usize, b: u8) -> usize {
    scan(s, from, |w| eq_lanes(w, b), |x| x == b)
}

/// First index `≥ from` whose byte equals `b1` or `b2`, or `s.len()`.
pub fn find_byte2(s: &[u8], from: usize, b1: u8, b2: u8) -> usize {
    scan(s, from, |w| eq_lanes(w, b1) | eq_lanes(w, b2), |x| x == b1 || x == b2)
}

/// Index of the first ASCII uppercase byte, or `None`.
pub fn first_ascii_upper(s: &[u8]) -> Option<usize> {
    let i = scan(s, 0, upper_lanes, |b| b.is_ascii_uppercase());
    (i < s.len()).then_some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Places byte `b` in every lane position of an otherwise-benign word
    /// and checks the lane mask against the scalar predicate.
    fn assert_lanes_exact(lanes: impl Fn(u64) -> u64, scalar: impl Fn(u8) -> bool) {
        for b in 0..=255u8 {
            for pos in 0..8 {
                let mut bytes = [b'x'; 8];
                bytes[pos] = b;
                let mask = lanes(load(&bytes));
                let got = mask & (0x80u64 << (pos * 8)) != 0;
                assert_eq!(got, scalar(b), "byte {b:#04x} in lane {pos}");
                // No mask bit may appear outside lane high-bit positions.
                assert_eq!(mask & !HIGHS, 0, "byte {b:#04x} in lane {pos}: stray bits");
            }
        }
    }

    #[test]
    fn upper_lanes_exact() {
        assert_lanes_exact(upper_lanes, |b| b.is_ascii_uppercase());
    }

    #[test]
    fn ident_lanes_exact() {
        assert_lanes_exact(ident_lanes, is_ident_byte);
    }

    #[test]
    fn ws_lanes_exact() {
        assert_lanes_exact(ws_lanes, |b| b.is_ascii_whitespace());
    }

    #[test]
    fn digit_and_hex_lanes_exact() {
        assert_lanes_exact(|w| range_lanes(w, b'0', b'9'), |b| b.is_ascii_digit());
        assert_lanes_exact(hex_lanes, |b| b.is_ascii_hexdigit());
    }

    #[test]
    fn eq_lanes_exact() {
        for target in [0u8, b'\'', b'\\', b'\n', b'`', 0x7f, 0x80, 0xff] {
            assert_lanes_exact(|w| eq_lanes(w, target), |b| b == target);
        }
    }

    #[test]
    fn scans_cross_word_boundaries() {
        let s = b"abcdefgh12345678_tail stop";
        assert_eq!(scan_ident(s, 0), 21);
        assert_eq!(scan_ident(s, 21), 21);
        assert_eq!(scan_ident(s, 22), s.len());
        assert_eq!(scan_digits(b"12345678901 x", 0), 11);
        assert_eq!(find_byte(b"aaaaaaaaaaaaaaaab", 0, b'b'), 16);
        assert_eq!(find_byte(b"abc", 0, b'z'), 3);
        assert_eq!(find_byte2(b"0123456789'x", 0, b'\'', b'\\'), 10);
        assert_eq!(scan_ws(b"   \t\n  x", 0), 7);
    }

    #[test]
    fn scan_from_past_end_is_len() {
        assert_eq!(scan_ident(b"ab", 5), 2);
        assert_eq!(find_byte(b"", 0, b'x'), 0);
    }

    #[test]
    fn first_upper_positions() {
        assert_eq!(first_ascii_upper(b"abcdefghijK"), Some(10));
        assert_eq!(first_ascii_upper(b"all lower"), None);
        assert_eq!(first_ascii_upper(b""), None);
        assert_eq!(first_ascii_upper("ä Z".as_bytes()), Some(3));
    }
}
