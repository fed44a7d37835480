//! Property-based tests for the string matching substrate.

use joza_strmatch::ahocorasick::AhoCorasick;
use joza_strmatch::levenshtein::{bounded_distance, distance};
use joza_strmatch::mru::{MruScanner, NaiveScanner};
use joza_strmatch::myers::{bounded_myers_substring_distance, myers_substring_distance};
use joza_strmatch::normalize::{to_lower, to_lower_into};
use joza_strmatch::qgram::{self, QgramProfile};
use joza_strmatch::sellers::{
    bounded_substring_distance, naive_substring_distance, substring_distance,
};
use joza_strmatch::swar;
use proptest::prelude::*;
use std::collections::HashMap;

/// Arbitrary byte strings, explicitly including non-ASCII and interior
/// NULs — the SWAR kernels must be differentially exact on *all* bytes,
/// not just the printable SQL subset.
fn any_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..96)
}

/// Byte strings over a four-letter alphabet that includes NUL and 0xFF:
/// short enough grams repeat, so multiplicities and partial overlaps
/// between pattern and text are common.
fn dense_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 0..80).prop_map(|v| v.into_iter().map(|b| b * 85).collect())
}

/// The q-gram bound computed the straightforward way, with `HashMap`
/// gram counts on both sides — the reference for the packed, sorted
/// profile.
fn hashmap_lower_bound(pattern: &[u8], text: &[u8], q: usize) -> usize {
    fn counts(s: &[u8], q: usize) -> HashMap<&[u8], usize> {
        let mut map = HashMap::new();
        for w in s.windows(q) {
            *map.entry(w).or_default() += 1;
        }
        map
    }
    if q == 0 || pattern.len() < q {
        return 0;
    }
    let text_counts = counts(text, q);
    let common: usize = counts(pattern, q)
        .iter()
        .map(|(gram, &n)| n.min(text_counts.get(gram).copied().unwrap_or(0)))
        .sum();
    (pattern.len() - q + 1 - common).div_ceil(q)
}

proptest! {
    #[test]
    fn distance_symmetric(a in ".{0,40}", b in ".{0,40}") {
        prop_assert_eq!(distance(a.as_bytes(), b.as_bytes()), distance(b.as_bytes(), a.as_bytes()));
    }

    #[test]
    fn distance_triangle_inequality(a in ".{0,25}", b in ".{0,25}", c in ".{0,25}") {
        let ab = distance(a.as_bytes(), b.as_bytes());
        let bc = distance(b.as_bytes(), c.as_bytes());
        let ac = distance(a.as_bytes(), c.as_bytes());
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn distance_zero_iff_equal(a in ".{0,30}", b in ".{0,30}") {
        let d = distance(a.as_bytes(), b.as_bytes());
        prop_assert_eq!(d == 0, a == b);
    }

    #[test]
    fn distance_bounded_by_max_len(a in ".{0,30}", b in ".{0,30}") {
        let d = distance(a.as_bytes(), b.as_bytes());
        prop_assert!(d <= a.len().max(b.len()));
        prop_assert!(d >= a.len().abs_diff(b.len()));
    }

    #[test]
    fn bounded_agrees_with_full(a in ".{0,25}", b in ".{0,25}", cutoff in 0usize..12) {
        let d = distance(a.as_bytes(), b.as_bytes());
        match bounded_distance(a.as_bytes(), b.as_bytes(), cutoff) {
            Some(bd) => { prop_assert_eq!(bd, d); prop_assert!(d <= cutoff); }
            None => prop_assert!(d > cutoff),
        }
    }

    #[test]
    fn sellers_never_exceeds_global(p in ".{0,25}", t in ".{0,40}") {
        let m = substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert!(m.distance <= distance(p.as_bytes(), t.as_bytes()));
    }

    #[test]
    fn sellers_span_distance_is_exact(p in ".{1,20}", t in ".{1,40}") {
        let m = substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert!(m.end <= t.len());
        prop_assert!(m.start <= m.end);
        // The reported distance must equal the Levenshtein distance of the
        // pattern against the reported span.
        let span = &t.as_bytes()[m.start..m.end];
        prop_assert_eq!(distance(p.as_bytes(), span), m.distance);
    }

    #[test]
    fn sellers_detects_exact_containment(prefix in ".{0,15}", p in ".{1,15}", suffix in ".{0,15}") {
        let t = format!("{prefix}{p}{suffix}");
        let m = substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(m.distance, 0);
    }

    /// The O(n·m) Sellers algorithm finds the same minimal distance as
    /// the paper's naive O(n²·m²) every-substring baseline.
    #[test]
    fn sellers_agrees_with_naive_baseline(p in ".{0,12}", t in ".{0,24}") {
        let fast = substring_distance(p.as_bytes(), t.as_bytes());
        let slow = naive_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast.distance, slow.distance, "fast {:?} vs slow {:?}", fast, slow);
    }

    /// The bit-parallel kernel is a drop-in for Sellers: identical
    /// distance, start, and end on arbitrary byte strings.
    #[test]
    fn myers_matches_classic(p in ".{0,30}", t in ".{0,60}") {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        let fast = myers_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast, classic);
    }

    /// Same, on a tiny alphabet: equal-distance ties are everywhere, so
    /// the span tie-break (min ratio, then leftmost) is exercised hard.
    #[test]
    fn myers_matches_classic_on_dense_ties(p in "[ab]{1,20}", t in "[ab]{0,60}") {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        let fast = myers_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast, classic);
    }

    /// Multi-word patterns (> 64 bytes, up to three blocks) agree too.
    #[test]
    fn myers_matches_classic_multiword(p in "[a-d]{60,150}", t in "[a-d]{0,200}") {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        let fast = myers_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast, classic);
    }

    /// An embedded noisy copy of the pattern forces a real match window;
    /// the recovered span must still be bit-identical.
    #[test]
    fn myers_matches_classic_on_embedded_payload(
        p in "[a-z '=0-9]{5,80}",
        prefix in "[a-z ]{0,60}",
        suffix in "[a-z ]{0,60}",
        flip in 0usize..80,
    ) {
        let mut noisy = p.clone().into_bytes();
        let i = flip % noisy.len();
        noisy[i] = if noisy[i] == b'x' { b'y' } else { b'x' };
        let t = [prefix.as_bytes(), &noisy, suffix.as_bytes()].concat();
        let classic = substring_distance(p.as_bytes(), &t);
        let fast = myers_substring_distance(p.as_bytes(), &t);
        prop_assert_eq!(fast, classic);
    }

    /// The threshold-aware kernel: `Some` iff the true distance is ≤ k,
    /// and when `Some` the match is the exact classic result.
    #[test]
    fn bounded_myers_agrees_with_classic(p in ".{0,40}", t in ".{0,80}", k in 0usize..20) {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        match bounded_myers_substring_distance(p.as_bytes(), t.as_bytes(), k) {
            Some(m) => {
                prop_assert_eq!(m, classic);
                prop_assert!(m.distance <= k);
            }
            None => prop_assert!(classic.distance > k, "classic {:?} within k {}", classic, k),
        }
    }

    #[test]
    fn qgram_bound_is_sound(p in ".{0,30}", t in ".{0,50}", q in 2usize..5) {
        let lb = qgram::lower_bound(p.as_bytes(), t.as_bytes(), q);
        let real = substring_distance(p.as_bytes(), t.as_bytes()).distance;
        prop_assert!(lb <= real, "lb {} > real {}", lb, real);
    }

    /// The packed, sorted profile returns exactly the `HashMap` reference's
    /// bound, through the free function, through one profile reused for
    /// several patterns, and for q past the 4-byte mark.
    #[test]
    fn qgram_packed_profile_matches_hashmap_reference(
        text in dense_bytes(),
        patterns in proptest::collection::vec(dense_bytes(), 1..4),
        q in 1usize..6,
    ) {
        let mut buf = Vec::new();
        let mut profile = QgramProfile::new(&text, q, &mut buf);
        for p in &patterns {
            let expect = hashmap_lower_bound(p, &text, q);
            prop_assert_eq!(qgram::lower_bound(p, &text, q), expect, "q {} p {:?}", q, p);
            prop_assert_eq!(profile.lower_bound(p), expect, "reused profile, q {}", q);
        }
    }

    /// Same on arbitrary bytes, where most grams are unique.
    #[test]
    fn qgram_packed_profile_matches_hashmap_reference_on_any_bytes(
        p in any_bytes(),
        t in any_bytes(),
        q in 1usize..6,
    ) {
        prop_assert_eq!(qgram::lower_bound(&p, &t, q), hashmap_lower_bound(&p, &t, q));
    }

    /// `sellers::bounded_substring_distance`, the free `lower_bound`'s
    /// other caller, skips exactly when the reference bound exceeds the
    /// cutoff.
    #[test]
    fn qgram_bounded_sellers_agrees_with_reference(
        p in dense_bytes(),
        t in dense_bytes(),
        cutoff in 0usize..12,
    ) {
        let expect = if hashmap_lower_bound(&p, &t, 3) > cutoff {
            None
        } else {
            let m = substring_distance(&p, &t);
            (m.distance <= cutoff).then_some(m)
        };
        prop_assert_eq!(bounded_substring_distance(&p, &t, cutoff), expect);
    }

    #[test]
    fn scanners_agree(
        pats in proptest::collection::vec("[a-c]{1,4}", 1..6),
        hay in "[a-c]{0,40}",
    ) {
        let ac = AhoCorasick::new(&pats);
        let naive = NaiveScanner::new(&pats);
        let mut mru = MruScanner::new(&pats);
        let mut a = ac.find_all(hay.as_bytes());
        let mut n = naive.find_all(hay.as_bytes());
        let mut m = mru.find_all(hay.as_bytes());
        let key = |x: &joza_strmatch::Match| (x.pattern, x.start, x.end);
        a.sort_unstable_by_key(key);
        n.sort_unstable_by_key(key);
        m.sort_unstable_by_key(key);
        prop_assert_eq!(&a, &n);
        prop_assert_eq!(&a, &m);
    }

    /// `to_lower` (the Cow front-end over the SWAR uppercase scan) agrees with the
    /// std byte map, borrows exactly when no byte changes, and
    /// `to_lower_into` produces the same bytes.
    #[test]
    fn to_lower_matches_reference(bytes in any_bytes()) {
        let std_ref: Vec<u8> = bytes.iter().map(|b| b.to_ascii_lowercase()).collect();
        let cow = to_lower(&bytes);
        prop_assert_eq!(cow.as_ref(), std_ref.as_slice());
        prop_assert_eq!(
            matches!(cow, std::borrow::Cow::Borrowed(_)),
            bytes == std_ref,
            "must borrow iff no byte needs rewriting"
        );
        let mut into = Vec::new();
        to_lower_into(&bytes, &mut into);
        prop_assert_eq!(into.as_slice(), std_ref.as_slice());
    }

    /// The word-parallel identifier scan stops exactly where the scalar
    /// classifier does, from every starting offset.
    #[test]
    fn swar_scan_ident_matches_scalar(bytes in any_bytes(), from in 0usize..100) {
        let from = from.min(bytes.len());
        prop_assert_eq!(swar::scan_ident(&bytes, from), swar::scan_ident_scalar(&bytes, from));
    }

    /// Every SWAR classifier scan agrees with a per-byte reference scan of
    /// the same predicate, from an arbitrary offset.
    #[test]
    fn swar_classifier_scans_match_reference(bytes in any_bytes(), from in 0usize..100) {
        let from = from.min(bytes.len());
        let reference = |pred: &dyn Fn(u8) -> bool| {
            let mut i = from;
            while i < bytes.len() && pred(bytes[i]) {
                i += 1;
            }
            i
        };
        prop_assert_eq!(swar::scan_ws(&bytes, from), reference(&|b| b.is_ascii_whitespace()));
        prop_assert_eq!(swar::scan_digits(&bytes, from), reference(&|b| b.is_ascii_digit()));
        prop_assert_eq!(swar::scan_hex(&bytes, from), reference(&|b| b.is_ascii_hexdigit()));
        prop_assert_eq!(swar::scan_ident(&bytes, from), reference(&|b| swar::is_ident_byte(b)));
    }

    /// Needle searches land on the first occurrence at-or-after `from`, or
    /// `len` when absent — same as a linear scan.
    #[test]
    fn swar_find_byte_matches_reference(
        bytes in any_bytes(),
        from in 0usize..100,
        b1 in any::<u8>(),
        b2 in any::<u8>(),
    ) {
        let from = from.min(bytes.len());
        let linear = |pred: &dyn Fn(u8) -> bool| {
            (from..bytes.len()).find(|&i| pred(bytes[i])).unwrap_or(bytes.len())
        };
        prop_assert_eq!(swar::find_byte(&bytes, from, b1), linear(&|b| b == b1));
        prop_assert_eq!(swar::find_byte2(&bytes, from, b1, b2), linear(&|b| b == b1 || b == b2));
    }

    /// `first_ascii_upper` finds the first `A..=Z` byte exactly; bytes
    /// ≥ 0x80 (UTF-8 continuation bytes and friends) never trigger it.
    #[test]
    fn swar_first_upper_matches_reference(bytes in any_bytes()) {
        let expect = bytes.iter().position(|b| b.is_ascii_uppercase());
        prop_assert_eq!(swar::first_ascii_upper(&bytes), expect);
    }

    #[test]
    fn mru_stable_across_repeats(
        pats in proptest::collection::vec("[a-b]{1,3}", 1..5),
        hay in "[a-b]{0,30}",
    ) {
        let mut mru = MruScanner::new(&pats);
        let first = mru.find_all(hay.as_bytes());
        let second = mru.find_all(hay.as_bytes());
        prop_assert_eq!(first, second);
    }
}
