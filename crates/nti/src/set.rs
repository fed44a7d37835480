//! The per-request input set: every captured value once, with the names
//! it arrived under.
//!
//! A request's inputs are compared with each of its queries, so whatever
//! an input costs before its comparison is paid once per query. The set
//! pays it once per request instead: the case fold at capture, and the
//! sorted q-gram keys only when a q-gram count needs them — a long body
//! found verbatim in every query never builds them. A value
//! captured again (the same parameter in `$_GET` and `$_REQUEST`, a
//! stored row fetched twice) adds a name, not a comparison: markings
//! from one value are the same whichever name carried it.

use crate::QGRAM;
use joza_strmatch::qgram::sorted_keys;
use joza_strmatch::swar;
use std::cell::OnceCell;
use std::collections::HashMap;

/// Up to this many distinct values a capture finds its duplicate by a
/// linear scan, which hashes nothing (a request's few inputs include
/// multi-KB bodies); past it, through a map of entry indices.
const LINEAR_MAX: usize = 16;

/// Room a set's first capture makes beyond its own bytes, and the
/// captures it makes room for: a small request's names and values then
/// fit without regrowing the buffers. Regrowing them from empty made a
/// short request's captures cost more than one `String` per name and
/// value, and gate-dynamic's benign p50 read ~3% worse for it.
const SMALL_REQUEST: (usize, usize) = (256, 8);

/// A request's captured inputs, de-duplicated by value.
///
/// Entries keep first-capture order: an analysis over the set reports
/// entry `i` as input `i`. The values, their folds and the names sit end
/// to end in one buffer, so a capture rarely allocates and a pass over
/// many entries reads memory in order.
///
/// # Examples
///
/// ```
/// use joza_nti::{InputSet, NtiAnalyzer, NtiConfig};
///
/// let nti = NtiAnalyzer::new(NtiConfig::default());
/// let mut set = InputSet::new();
/// set.insert("id", "-1 OR 1=1");
/// set.insert("REQUEST:id", "-1 OR 1=1");
/// assert_eq!(set.len(), 1);
/// assert_eq!(set.names(0).collect::<Vec<_>>(), ["id", "REQUEST:id"]);
/// let (report, _work) = nti.analyze_set(&set, "SELECT * FROM t WHERE id=-1 OR 1=1");
/// assert!(report.is_attack());
/// ```
#[derive(Debug, Clone, Default)]
pub struct InputSet {
    /// Each entry's value, then its ASCII case fold when that differs,
    /// and each capture's name, in capture order.
    text: String,
    pub(crate) entries: Vec<Entry>,
    /// `(entry, its name's range in text)` per capture, in capture order.
    names: Vec<(usize, (usize, usize))>,
    /// Entry index by value once the set outgrows the linear scan (std's
    /// randomly keyed hasher: values arrive from outside the program).
    by_value: HashMap<Box<str>, usize>,
}

/// One distinct captured value.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// The value's byte range in the set's text.
    value: (usize, usize),
    /// Its case fold's range: the value's own when folding changes
    /// nothing.
    folded: (usize, usize),
    /// Sorted packed q-grams of the folded value, built on first use.
    keys: OnceCell<Box<[u64]>>,
}

impl InputSet {
    /// An empty set.
    pub fn new() -> InputSet {
        InputSet::default()
    }

    /// Captures `value` under `name` and returns its entry index: a new
    /// entry for a value not in the set yet, the existing one otherwise.
    pub fn insert(&mut self, name: &str, value: &str) -> usize {
        if self.text.capacity() == 0 {
            let (bytes, captures) = SMALL_REQUEST;
            self.text.reserve(name.len() + 2 * value.len() + bytes);
            self.entries.reserve(captures);
            self.names.reserve(captures);
        }
        let found = if self.entries.len() <= LINEAR_MAX {
            self.entries.iter().position(|e| self.value(e) == value)
        } else {
            self.by_value.get(value).copied()
        };
        let entry = match found {
            Some(i) => i,
            None => {
                self.push(value);
                let i = self.entries.len() - 1;
                if i == LINEAR_MAX {
                    // The set outgrows the scan: map every value so far.
                    for (j, e) in self.entries.iter().enumerate() {
                        self.by_value.insert(self.text[e.value.0..e.value.1].into(), j);
                    }
                } else if i > LINEAR_MAX {
                    self.by_value.insert(value.into(), i);
                }
                i
            }
        };
        let start = self.text.len();
        self.text.push_str(name);
        self.names.push((entry, (start, self.text.len())));
        entry
    }

    /// Appends a new entry for `value`, folding it once.
    fn push(&mut self, value: &str) {
        let start = self.text.len();
        self.text.push_str(value);
        let end = self.text.len();
        let folded = match swar::first_ascii_upper(value.as_bytes()) {
            Some(_) => {
                self.text.push_str(value);
                self.text[end..].make_ascii_lowercase();
                (end, self.text.len())
            }
            None => (start, end),
        };
        self.entries.push(Entry { value: (start, end), folded, keys: OnceCell::new() });
    }

    /// Entry `e`'s raw value.
    pub(crate) fn value(&self, e: &Entry) -> &str {
        &self.text[e.value.0..e.value.1]
    }

    /// Entry `e`'s value in NTI's match normalization.
    pub(crate) fn folded(&self, e: &Entry) -> &str {
        &self.text[e.folded.0..e.folded.1]
    }

    /// Entry `e`'s sorted q-gram keys, built on first use.
    pub(crate) fn keys<'s>(&'s self, e: &'s Entry) -> &'s [u64] {
        e.keys.get_or_init(|| sorted_keys(self.folded(e).as_bytes(), QGRAM).into())
    }

    /// Empties the set (the start of a new request), keeping capacity.
    pub fn clear(&mut self) {
        self.text.clear();
        self.entries.clear();
        self.names.clear();
        self.by_value.clear();
    }

    /// The number of distinct values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct values, in first-capture order.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| self.value(e))
    }

    /// Every name entry `entry`'s value was captured under, in capture
    /// order: the evidence a marking of that entry points back to.
    pub fn names(&self, entry: usize) -> impl Iterator<Item = &str> {
        self.names
            .iter()
            .filter(move |&&(e, _)| e == entry)
            .map(|&(_, (start, end))| &self.text[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_add_names_not_entries_past_the_linear_scan() {
        let mut set = InputSet::new();
        for i in 0..200 {
            set.insert(&format!("get:{i}"), &format!("value-{}", i % 50));
        }
        assert_eq!(set.len(), 50);
        let values: Vec<String> = (0..50).map(|i| format!("value-{i}")).collect();
        assert!(set.values().eq(values.iter().map(String::as_str)), "first-capture order");
        assert_eq!(set.names(7).collect::<Vec<_>>(), ["get:7", "get:57", "get:107", "get:157"]);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.insert("a", "x"), 0);
        assert_eq!(set.insert("b", "x"), 0);
    }

    #[test]
    fn entries_fold_at_capture_and_key_on_first_use() {
        let mut set = InputSet::new();
        set.insert("q", "Search TERM");
        set.insert("id", "42");
        let (upper, short) = (&set.entries[0], &set.entries[1]);
        assert_eq!((set.value(upper), set.folded(upper)), ("Search TERM", "search term"));
        assert_eq!((set.value(short), set.folded(short)), ("42", "42"));
        assert!(upper.keys.get().is_none());
        assert_eq!(set.keys(upper), &sorted_keys(b"search term", 3)[..]);
    }
}
