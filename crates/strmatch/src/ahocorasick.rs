//! From-scratch Aho–Corasick multi-pattern matcher.
//!
//! PTI must find every occurrence of every program string fragment inside
//! an intercepted query (§III-B). The paper's daemon does this with a
//! fragment scan plus caching; we additionally provide an Aho–Corasick
//! automaton so the `bench` crate can compare the naive scanner, the MRU
//! scanner (the paper's optimization), and the automaton.
//!
//! The automaton is byte-oriented. Construction is the textbook algorithm:
//! a trie of all patterns, breadth-first computation of failure links, and
//! output sets merged along failure links.

/// An occurrence of one pattern in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// Index of the pattern (in construction order).
    pub pattern: usize,
    /// Byte offset where the occurrence starts.
    pub start: usize,
    /// Byte offset one past the end of the occurrence.
    pub end: usize,
}

#[derive(Debug, Clone)]
struct Node {
    /// Sparse transitions: sorted by byte for binary search.
    trans: Vec<(u8, u32)>,
    fail: u32,
    /// Pattern ids ending at this node (including via failure links).
    out: Vec<u32>,
}

impl Node {
    fn new() -> Self {
        Node { trans: Vec::new(), fail: 0, out: Vec::new() }
    }

    fn next(&self, b: u8) -> Option<u32> {
        self.trans.binary_search_by_key(&b, |&(byte, _)| byte).ok().map(|i| self.trans[i].1)
    }
}

/// A multi-pattern matcher over byte strings.
///
/// # Examples
///
/// ```
/// use joza_strmatch::ahocorasick::AhoCorasick;
///
/// let ac = AhoCorasick::new(["SELECT", "FROM", "OR"]);
/// let hits = ac.find_all(b"SELECT x FROM t");
/// let pats: Vec<usize> = hits.iter().map(|m| m.pattern).collect();
/// assert_eq!(pats, [0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    pattern_lens: Vec<usize>,
}

impl AhoCorasick {
    /// Builds the automaton from an iterator of patterns.
    ///
    /// Empty patterns are accepted but never match. Duplicate patterns each
    /// get their own id and all ids are reported on a hit.
    pub fn new<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let mut nodes = vec![Node::new()];
        let mut pattern_lens = Vec::new();
        for pat in patterns {
            let pat = pat.as_ref();
            let id = pattern_lens.len() as u32;
            pattern_lens.push(pat.len());
            if pat.is_empty() {
                continue;
            }
            let mut cur = 0u32;
            for &b in pat {
                cur = match nodes[cur as usize].next(b) {
                    Some(n) => n,
                    None => {
                        let n = nodes.len() as u32;
                        nodes.push(Node::new());
                        let node = &mut nodes[cur as usize];
                        let pos =
                            node.trans.binary_search_by_key(&b, |&(byte, _)| byte).unwrap_err();
                        node.trans.insert(pos, (b, n));
                        n
                    }
                };
            }
            nodes[cur as usize].out.push(id);
        }

        // BFS to compute failure links and merge outputs.
        let mut queue = std::collections::VecDeque::new();
        let root_children: Vec<(u8, u32)> = nodes[0].trans.clone();
        for &(_, child) in &root_children {
            nodes[child as usize].fail = 0;
            queue.push_back(child);
        }
        while let Some(v) = queue.pop_front() {
            let trans = nodes[v as usize].trans.clone();
            for (b, child) in trans {
                queue.push_back(child);
                let mut f = nodes[v as usize].fail;
                let fail_target = loop {
                    if let Some(n) = nodes[f as usize].next(b) {
                        break n;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f as usize].fail;
                };
                // Avoid self-loop when the child hangs off the root.
                let fail_target = if fail_target == child { 0 } else { fail_target };
                nodes[child as usize].fail = fail_target;
                let inherited = nodes[fail_target as usize].out.clone();
                nodes[child as usize].out.extend(inherited);
            }
        }

        AhoCorasick { nodes, pattern_lens }
    }

    /// Number of patterns in the automaton.
    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }

    /// Length of pattern `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pattern_len(&self, id: usize) -> usize {
        self.pattern_lens[id]
    }

    /// Finds all occurrences of all patterns in `haystack`, in increasing
    /// order of end offset.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.for_each_match(haystack, |m| out.push(m));
        out
    }

    /// Streams every occurrence to `f` without allocating.
    pub fn for_each_match<F: FnMut(Match)>(&self, haystack: &[u8], mut f: F) {
        let mut state = 0u32;
        for (i, &b) in haystack.iter().enumerate() {
            loop {
                if let Some(n) = self.nodes[state as usize].next(b) {
                    state = n;
                    break;
                }
                if state == 0 {
                    break;
                }
                state = self.nodes[state as usize].fail;
            }
            for &pat in &self.nodes[state as usize].out {
                let len = self.pattern_lens[pat as usize];
                f(Match { pattern: pat as usize, start: i + 1 - len, end: i + 1 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(ac: &AhoCorasick, hay: &[u8]) -> Vec<(usize, usize, usize)> {
        ac.find_all(hay).iter().map(|m| (m.pattern, m.start, m.end)).collect()
    }

    #[test]
    fn single_pattern() {
        let ac = AhoCorasick::new(["abc"]);
        assert_eq!(spans(&ac, b"zabcz"), vec![(0, 1, 4)]);
    }

    #[test]
    fn overlapping_patterns() {
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]);
        let got = spans(&ac, b"ushers");
        assert!(got.contains(&(1, 1, 4))); // she
        assert!(got.contains(&(0, 2, 4))); // he
        assert!(got.contains(&(3, 2, 6))); // hers
    }

    #[test]
    fn repeated_occurrences() {
        let ac = AhoCorasick::new(["aa"]);
        assert_eq!(spans(&ac, b"aaaa"), vec![(0, 0, 2), (0, 1, 3), (0, 2, 4)]);
    }

    #[test]
    fn pattern_is_prefix_of_other() {
        let ac = AhoCorasick::new(["SELECT", "SELECT *"]);
        let got = spans(&ac, b"SELECT * FROM t");
        assert!(got.contains(&(0, 0, 6)));
        assert!(got.contains(&(1, 0, 8)));
    }

    #[test]
    fn empty_pattern_never_matches() {
        let ac = AhoCorasick::new(["", "x"]);
        assert_eq!(spans(&ac, b"x"), vec![(1, 0, 1)]);
    }

    #[test]
    fn no_patterns() {
        let ac = AhoCorasick::new(Vec::<&str>::new());
        assert!(ac.find_all(b"whatever").is_empty());
    }

    #[test]
    fn duplicate_patterns_both_reported() {
        let ac = AhoCorasick::new(["ab", "ab"]);
        let got = spans(&ac, b"ab");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn sql_fragments() {
        let frags = ["SELECT * FROM records WHERE ID=", " LIMIT 5", "id"];
        let ac = AhoCorasick::new(frags);
        let q = b"SELECT * FROM records WHERE ID=42 LIMIT 5";
        let got = spans(&ac, q);
        assert!(got.contains(&(0, 0, 31)));
        assert!(got.contains(&(1, 33, 41)));
    }

    #[test]
    fn matches_agree_with_naive_scan() {
        let pats: [&[u8]; 5] = [b"ab", b"bc", b"abc", b"c", b"cab"];
        let hay = b"abcabcababccab";
        let ac = AhoCorasick::new(pats);
        let mut expected = Vec::new();
        for (pi, p) in pats.iter().enumerate() {
            let mut i = 0;
            while i + p.len() <= hay.len() {
                if &hay[i..i + p.len()] == *p {
                    expected.push((pi, i, i + p.len()));
                }
                i += 1;
            }
        }
        let mut got = spans(&ac, hay);
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}
