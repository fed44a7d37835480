//! Levenshtein edit distance.
//!
//! The paper's NTI component uses PHP's built-in `levenshtein` for short
//! strings and a linear-memory variant for long strings (§VI-B). This is
//! the linear-memory variant: the reference the substring-distance
//! kernels are tested against.

/// Computes the Levenshtein edit distance between `a` and `b` using the
/// classic two-row dynamic program (linear memory, `O(|a|·|b|)` time).
///
/// Insertions, deletions and substitutions all cost 1.
///
/// # Examples
///
/// ```
/// use joza_strmatch::levenshtein::distance;
///
/// assert_eq!(distance(b"kitten", b"sitting"), 3);
/// assert_eq!(distance(b"", b"abc"), 3);
/// assert_eq!(distance(b"same", b"same"), 0);
/// ```
pub fn distance(a: &[u8], b: &[u8]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Iterate over the shorter string in the inner loop to minimize memory.
    let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<usize> = (0..=inner.len()).collect();
    let mut cur: Vec<usize> = vec![0; inner.len() + 1];
    for (i, &oc) in outer.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &ic) in inner.iter().enumerate() {
            let sub = prev[j] + usize::from(oc != ic);
            let del = prev[j + 1] + 1;
            let ins = cur[j] + 1;
            cur[j + 1] = sub.min(del).min(ins);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[inner.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vs_empty() {
        assert_eq!(distance(b"", b""), 0);
    }

    #[test]
    fn empty_vs_nonempty() {
        assert_eq!(distance(b"", b"abc"), 3);
        assert_eq!(distance(b"abc", b""), 3);
    }

    #[test]
    fn identical() {
        assert_eq!(distance(b"SELECT * FROM t", b"SELECT * FROM t"), 0);
    }

    #[test]
    fn single_substitution() {
        assert_eq!(distance(b"cat", b"car"), 1);
    }

    #[test]
    fn single_insertion() {
        assert_eq!(distance(b"cat", b"cart"), 1);
    }

    #[test]
    fn single_deletion() {
        assert_eq!(distance(b"cart", b"cat"), 1);
    }

    #[test]
    fn classic_kitten() {
        assert_eq!(distance(b"kitten", b"sitting"), 3);
    }

    #[test]
    fn symmetric() {
        assert_eq!(distance(b"abcdef", b"azced"), distance(b"azced", b"abcdef"));
    }

    #[test]
    fn magic_quotes_example() {
        // The paper's Fig. 2C scenario: magic quotes add one backslash per
        // quote, so the distance equals the number of quotes in the input.
        let input = "-1' OR '1'='1' OR '1'='1";
        let escaped = input.replace('\'', "\\'");
        let quotes = input.matches('\'').count();
        assert_eq!(distance(input.as_bytes(), escaped.as_bytes()), quotes);
    }
}
