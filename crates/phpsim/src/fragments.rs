//! String-fragment extraction — the PTI installer (§IV-A).
//!
//! "Joza recursively parses all source code files reachable from the top
//! directory and extracts string literals from each file to form the final
//! set of string fragments. … In the case of format strings or other
//! strings with placeholders, Joza breaks them down into multiple
//! fragments. … Note that only fragments that contain at least one valid
//! SQL token need to be retained."
//!
//! Extraction rules reproduced here:
//!
//! * every string literal in the source yields fragments;
//! * double-quoted strings are split at `$var` interpolations;
//! * `%s`/`%d`/`%f` format specifiers split fragments further (covers
//!   `sprintf`/`$wpdb->prepare`-style queries);
//! * fragments that lex to zero SQL tokens are dropped.
//!
//! Extraction reads the PHP lexer's token stream directly: literal text
//! and the pieces split from it stay slices of the source until a fragment
//! is kept, and the retain test stops at the first SQL token. A large
//! application is lexed on several threads at once (see
//! [`FragmentSet::from_sources`]); the vocabulary does not depend on how
//! many.

use crate::lexer::{append_run, find_any, Lexeme, PhpLexer, RawPart};
use joza_sqlparse::lexer::has_known_token;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{btree_set, BTreeSet};
use std::ops::Range;
use std::sync::OnceLock;
use std::{panic, thread};

/// Smallest share of the source bytes worth a thread of its own: lexing
/// and sorting 64 KiB takes about a third of a millisecond on one core of
/// a 2-vCPU Xeon host, several times a thread's start-up.
const MIN_PART_BYTES: usize = 64 * 1024;
/// Most parts, and so threads, one extraction uses.
const MAX_PARTS: usize = 8;
/// Source bytes per raw piece to size a part's buffer for: a little below
/// the ~55 of the benchmark application, so one allocation usually holds a
/// part's pieces.
const BYTES_PER_PIECE: usize = 48;

/// A de-duplicated, ordered set of program string fragments.
///
/// Ordering is lexicographic (via [`BTreeSet`]) so extraction is
/// deterministic regardless of source iteration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragmentSet {
    fragments: BTreeSet<String>,
}

impl FragmentSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the fragments of every source file (the installer).
    /// Sources that fail to lex contribute nothing (real Joza skips
    /// unparseable files).
    ///
    /// The sources are split into contiguous parts of about equal byte
    /// size, one per available core (at most eight, and none smaller than
    /// 64 KiB), and each part is lexed, sorted and de-duplicated on a
    /// scoped thread of its own; the calling thread takes the first part,
    /// and a single part spawns no thread. The sorted runs are merged, so
    /// the retain test runs once per distinct piece, and only the kept
    /// fragments are copied out of the sources. The result is the same set
    /// whatever the number of parts.
    pub fn from_sources(sources: &[&str]) -> Self {
        let lens: Vec<usize> = sources.iter().map(|s| s.len()).collect();
        Self::from_parts(sources, &part_plan(&lens, cores()))
    }

    /// [`FragmentSet::from_sources`] with the part count forced to
    /// `parts` (clamped to the number of sources), whatever the input's
    /// size and the machine's cores. A test seam: the vocabulary must not
    /// depend on the count.
    #[cfg(any(test, feature = "test-seam"))]
    pub fn from_sources_in_parts(sources: &[&str], parts: usize) -> Self {
        let lens: Vec<usize> = sources.iter().map(|s| s.len()).collect();
        let parts = parts.clamp(1, lens.len().max(1));
        Self::from_parts(sources, &split_even(&lens, parts))
    }

    /// Extracts the fragments of `sources`, one part of the plan per
    /// thread.
    fn from_parts(sources: &[&str], plan: &[Range<usize>]) -> Self {
        // Each part's buffer is allocated here, on the calling thread.
        // glibc's `realloc` keeps a block in the arena it came from, so a
        // worker's pushes grow the buffer there: the largest allocations of
        // an extraction stay out of the worker's own malloc arena.
        let mut parts = plan.iter().map(|range| {
            let files = &sources[range.clone()];
            let bytes: usize = files.iter().map(|s| s.len()).sum();
            (files, Vec::with_capacity(bytes / BYTES_PER_PIECE))
        });
        let (files, buf) = parts.next().expect("a plan has at least one part");
        let runs = thread::scope(|scope| {
            let workers: Vec<_> =
                parts.map(|(files, buf)| scope.spawn(move || sorted_run(files, buf))).collect();
            let mut runs = vec![sorted_run(files, buf)];
            runs.extend(
                workers.into_iter().map(|w| w.join().unwrap_or_else(|e| panic::resume_unwind(e))),
            );
            runs
        });
        let pieces = runs.into_iter().reduce(merge_two).unwrap_or_default();
        // A copy, not `into_owned`: a `%%`-joined piece was allocated on
        // its worker's arena, and the vocabulary lives on.
        let fragments =
            pieces.into_iter().filter(|p| has_known_token(p)).map(|p| String::from(&*p));
        FragmentSet { fragments: fragments.collect() }
    }

    /// Adds one fragment verbatim (used for framework-provided vocabulary).
    pub fn insert(&mut self, fragment: impl Into<String>) {
        let f = fragment.into();
        if !f.is_empty() {
            self.fragments.insert(f);
        }
    }

    /// Extends with fragments extracted from one PHP source file, as
    /// [`FragmentSet::from_sources`] does.
    pub fn add_source(&mut self, php_source: &str) {
        self.fragments.extend(Self::from_sources(&[php_source]).fragments);
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Whether the exact fragment is present.
    pub fn contains(&self, fragment: &str) -> bool {
        self.fragments.contains(fragment)
    }

    /// Iterates fragments in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.fragments.iter().map(String::as_str)
    }
}

/// Moves the fragments out, in lexicographic order.
impl IntoIterator for FragmentSet {
    type Item = String;
    type IntoIter = btree_set::IntoIter<String>;

    fn into_iter(self) -> Self::IntoIter {
        self.fragments.into_iter()
    }
}

impl FromIterator<String> for FragmentSet {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        let mut s = FragmentSet::new();
        for f in iter {
            s.insert(f);
        }
        s
    }
}

impl<'a> FromIterator<&'a str> for FragmentSet {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        iter.into_iter().map(str::to_string).collect()
    }
}

/// Extracts retained fragments from one PHP source file.
///
/// # Examples
///
/// ```
/// use joza_phpsim::fragments::extract_fragments;
///
/// let src = r#"
///     $q = "SELECT * FROM records WHERE ID=" . $_GET['id'] . " LIMIT 5";
/// "#;
/// let frags = extract_fragments(src);
/// assert!(frags.contains(&"SELECT * FROM records WHERE ID=".to_string()));
/// assert!(frags.contains(&" LIMIT 5".to_string()));
/// assert!(frags.contains(&"id".to_string()));
/// ```
pub fn extract_fragments(php_source: &str) -> Vec<String> {
    let mut pieces = Vec::new();
    source_pieces(php_source, &mut pieces);
    pieces.into_iter().filter(|piece| has_known_token(piece)).map(Cow::into_owned).collect()
}

/// Appends the placeholder-split pieces of every string literal in
/// `php_source` to `out`, in source order and before the retain test. A
/// source that fails to lex appends nothing.
fn source_pieces<'s>(php_source: &'s str, out: &mut Vec<Cow<'s, str>>) {
    let mark = out.len();
    let mut lx = PhpLexer::new(php_source);
    loop {
        match lx.next_token() {
            Ok(Some((Lexeme::Str, _))) => {
                for part in lx.parts.drain(..) {
                    match part {
                        RawPart::Lit(Cow::Borrowed(lit)) => {
                            split_placeholders(lit, |p| out.push(p))
                        }
                        RawPart::Lit(Cow::Owned(lit)) => {
                            split_placeholders(&lit, |p| out.push(Cow::Owned(p.into_owned())))
                        }
                        RawPart::Interp(_) => {}
                    }
                }
            }
            Ok(Some(_)) => {}
            Ok(None) => return,
            Err(_) => {
                out.truncate(mark);
                return;
            }
        }
    }
}

/// The machine's core count, read once: `available_parallelism` reads the
/// affinity mask and cgroup quota on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// The part plan: contiguous ranges of source indices, in order, covering
/// every source once. The count is `min(cores, sources, total bytes /
/// MIN_PART_BYTES)`, capped at [`MAX_PARTS`] and at least one, so a single
/// file or a small input is one part.
fn part_plan(lens: &[usize], cores: usize) -> Vec<Range<usize>> {
    let total: usize = lens.iter().sum();
    let parts = cores.min(lens.len()).min(total / MIN_PART_BYTES).clamp(1, MAX_PARTS);
    split_even(lens, parts)
}

/// Splits `lens` into `parts` contiguous, non-empty ranges of about equal
/// byte size (`parts` must be at most `lens.len()`, or 1). Part `k` ends
/// after the first file that brings the running total to `k / parts` of
/// the bytes, or earlier if the parts still to come need the files left.
fn split_even(lens: &[usize], parts: usize) -> Vec<Range<usize>> {
    let total: usize = lens.iter().sum();
    let mut plan = Vec::with_capacity(parts);
    let (mut start, mut bytes) = (0, 0);
    for (i, len) in lens.iter().enumerate() {
        bytes += len;
        let (k, left) = (plan.len() + 1, lens.len() - (i + 1));
        if k < parts && (left == parts - k || (left > parts - k && bytes * parts >= total * k)) {
            plan.push(start..i + 1);
            start = i + 1;
        }
    }
    plan.push(start..lens.len());
    plan
}

/// The distinct pieces of `files`, sorted, pushed onto `run`.
fn sorted_run<'s>(files: &[&'s str], mut run: Vec<Cow<'s, str>>) -> Vec<Cow<'s, str>> {
    for src in files {
        source_pieces(src, &mut run);
    }
    run.sort_unstable();
    run.dedup();
    run
}

/// Merges two sorted, duplicate-free runs into one, dropping the pieces
/// both hold from the second.
fn merge_two<'s>(a: Vec<Cow<'s, str>>, b: Vec<Cow<'s, str>>) -> Vec<Cow<'s, str>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        match x.cmp(y) {
            Ordering::Less => out.extend(a.next()),
            Ordering::Greater => out.extend(b.next()),
            Ordering::Equal => {
                b.next();
                out.extend(a.next());
            }
        }
    }
    out.extend(a.chain(b));
    out
}

/// Splits a literal at `%s`/`%d`/`%f`/`%05d`-style printf placeholders and
/// at `:name` prepared-statement placeholders ("in the case of format
/// strings or other strings with placeholders, Joza breaks them down into
/// multiple fragments", §IV-A). Placeholder positions are filled at run
/// time — by `sprintf` arguments or by parameter expansion — so the text
/// around them, not the placeholder itself, is what the program
/// contributes to queries.
///
/// Pieces go to `emit` in order, non-empty, and as slices of `lit` except
/// where a `%%` (a literal percent) joins two runs.
fn split_placeholders<'a>(lit: &'a str, mut emit: impl FnMut(Cow<'a, str>)) {
    let b = lit.as_bytes();
    let mut piece = Cow::Borrowed("");
    // Start of the run of `lit` not yet appended to `piece`.
    let mut run = 0;
    let mut i = 0;
    let mut end_piece = |piece: &mut Cow<'a, str>, last_run: &'a str| {
        append_run(piece, last_run);
        if !piece.is_empty() {
            emit(std::mem::take(piece));
        }
    };
    while i < b.len() {
        match b[i] {
            b':' if b.get(i + 1).is_some_and(|n| n.is_ascii_alphabetic() || *n == b'_') => {
                // `:name` prepared-statement placeholder: split and
                // swallow the identifier.
                end_piece(&mut piece, &lit[run..i]);
                i += 1;
                while b.get(i).is_some_and(|n| n.is_ascii_alphanumeric() || *n == b'_') {
                    i += 1;
                }
                run = i;
            }
            b'%' if b.get(i + 1) == Some(&b'%') => {
                // `%%` is a literal percent: keep the first, drop the
                // second.
                append_run(&mut piece, &lit[run..=i]);
                i += 2;
                run = i;
            }
            b'%' => {
                // Look ahead over digits and dots to a conversion char;
                // anything else leaves the `%` and the lookahead as text.
                let mut j = i + 1;
                while b.get(j).is_some_and(|c| c.is_ascii_digit() || *c == b'.') {
                    j += 1;
                }
                if matches!(b.get(j), Some(b's' | b'd' | b'f')) {
                    end_piece(&mut piece, &lit[run..i]);
                    i = j + 1;
                    run = i;
                } else {
                    i = j;
                }
            }
            _ => i = find_any(b, i + 1, [b':', b'%']),
        }
    }
    end_piece(&mut piece, &lit[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char placeholder splitter the byte splitter replaced,
    /// kept as the differential reference.
    fn reference_split(lit: &str) -> Vec<String> {
        let mut pieces = Vec::new();
        let mut cur = String::new();
        let mut chars = lit.chars().peekable();
        while let Some(c) = chars.next() {
            if c == ':' && chars.peek().is_some_and(|n| n.is_ascii_alphabetic() || *n == '_') {
                if !cur.is_empty() {
                    pieces.push(std::mem::take(&mut cur));
                }
                while chars.peek().is_some_and(|n| n.is_ascii_alphanumeric() || *n == '_') {
                    chars.next();
                }
            } else if c == '%' {
                if chars.peek() == Some(&'%') {
                    chars.next();
                    cur.push('%');
                    continue;
                }
                let mut lookahead = String::new();
                while chars.peek().is_some_and(|c| c.is_ascii_digit() || *c == '.') {
                    lookahead.push(chars.next().unwrap());
                }
                match chars.peek() {
                    Some('s') | Some('d') | Some('f') => {
                        chars.next();
                        if !cur.is_empty() {
                            pieces.push(std::mem::take(&mut cur));
                        }
                    }
                    _ => {
                        cur.push('%');
                        cur.push_str(&lookahead);
                    }
                }
            } else {
                cur.push(c);
            }
        }
        if !cur.is_empty() {
            pieces.push(cur);
        }
        pieces
    }

    /// The full-lex retain test the early-exit one replaced.
    fn reference_retain(fragment: &str) -> bool {
        use joza_sqlparse::token::TokenKind;
        joza_sqlparse::lexer::lex(fragment).iter().any(|t| t.kind != TokenKind::Unknown)
    }

    fn split(lit: &str) -> Vec<String> {
        let mut pieces = Vec::new();
        split_placeholders(lit, |p| pieces.push(p.into_owned()));
        pieces
    }

    /// Literal text dense in what the splitter and the retain test branch
    /// on: `%`, `:`, digits, `.`, `_`, conversion letters, quotes, and
    /// multi-byte characters.
    const DENSE: &str = "[%%%%::::...__0-9sdfxaZ é€𝄞'#=-]{0,40}";

    proptest! {
        #[test]
        fn reference_split_agrees(lits in proptest::collection::vec(DENSE, 16..32)) {
            for lit in &lits {
                prop_assert_eq!(split(lit), reference_split(lit), "{:?}", lit);
            }
        }

        #[test]
        fn reference_retain_agrees(lits in proptest::collection::vec(DENSE, 16..32)) {
            for lit in &lits {
                prop_assert_eq!(has_known_token(lit), reference_retain(lit), "{:?}", lit);
                for piece in split(lit) {
                    prop_assert_eq!(
                        has_known_token(&piece),
                        reference_retain(&piece),
                        "{:?}",
                        piece
                    );
                }
            }
        }
    }

    /// Every piece a source yields, borrowed or not, in order.
    fn pieces(src: &str) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        source_pieces(src, &mut out);
        out.into_iter().map(|p| (p.to_string(), matches!(p, Cow::Borrowed(_)))).collect()
    }

    proptest! {
        #[test]
        fn reference_scan_yields_identical_pieces(lits in proptest::collection::vec(DENSE, 8..16)) {
            let src: String = lits
                .iter()
                .enumerate()
                .map(|(i, lit)| {
                    let dq = lit.replace('\\', "\\\\").replace('"', "\\\"");
                    format!("$a{i} = \"{dq} $x {{$y}}{dq}\"; $b{i} = '{}';", lit.replace('\'', "\\'"))
                })
                .collect();
            prop_assert_eq!(pieces(&src), crate::lexer::tests::bytewise(|| pieces(&src)));
        }
    }

    #[test]
    fn reference_split_agrees_on_edge_cases() {
        for lit in [
            "",
            "%",
            "%%",
            "%%%",
            "%%s",
            "%5",
            "%5.",
            "%5.2f",
            "%.s",
            "%5%s",
            "a%",
            ":",
            ":a",
            "::a",
            ":_1b c",
            "a:1",
            "é:é",
            "%é",
            "x%%y%%z",
            "%s%d%f",
            "WHERE a=%s AND b=:b",
        ] {
            assert_eq!(split(lit), reference_split(lit), "{lit:?}");
        }
    }

    #[test]
    fn pieces_borrow_unless_a_percent_escape_joins_runs() {
        let mut pieces = Vec::new();
        split_placeholders("a %s b %%c :d e", |p| pieces.push(p));
        let borrowed: Vec<bool> = pieces.iter().map(|p| matches!(p, Cow::Borrowed(_))).collect();
        assert_eq!(pieces, ["a ", " b %c ", " e"]);
        assert_eq!(borrowed, [true, false, true]);
    }

    #[test]
    fn utf8_fragments_survive_extraction() {
        let frags =
            extract_fragments("$q = 'SELECT * FROM t WHERE name = \"café\"'; $e = \"ünï $x\";");
        assert_eq!(frags, ["SELECT * FROM t WHERE name = \"café\"", "ünï "]);
    }

    #[test]
    fn bulk_extraction_equals_file_by_file() {
        let sources = [
            r#"$a = "SELECT * FROM t WHERE id=%d"; $b = 'x';"#,
            r#"$c = "SELECT * FROM t WHERE id=%d"; $d = " AND :name OR ";"#,
            r#"$bad = 'unterminated"#,
            r#"$e = "   "; $f = "ORDER BY $col DESC";"#,
        ];
        let mut incremental = FragmentSet::new();
        for src in sources {
            incremental.add_source(src);
        }
        assert_eq!(FragmentSet::from_sources(&sources), incremental);
        let all: Vec<&str> = incremental.iter().collect();
        assert_eq!(all, [" AND ", " DESC", " OR ", "ORDER BY ", "SELECT * FROM t WHERE id=", "x"]);
        assert!(FragmentSet::from_sources(&[]).is_empty());
    }

    /// File-by-file extraction: no sort, no parts, no merge.
    fn file_by_file(sources: &[&str]) -> FragmentSet {
        sources.iter().flat_map(|src| extract_fragments(src)).collect()
    }

    /// A literal most generated files hold, so that it falls on both sides
    /// of every part boundary. The `%%` makes its piece an owned one.
    const SHARED: &str = "SELECT shared %% FROM t WHERE a=%d";

    proptest! {
        #[test]
        fn every_part_count_gives_the_file_by_file_set(
            kinds in proptest::collection::vec(0usize..5, 1..12),
            lits in proptest::collection::vec(DENSE, 12..24),
        ) {
            let srcs: Vec<String> = kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| {
                    let lit = |j: usize| {
                        lits[(3 * i + j) % lits.len()].replace('\\', "\\\\").replace('\'', "\\'")
                    };
                    match kind {
                        0 => String::new(),
                        1 => format!("$s = '{SHARED}'; $a = '{}'; $bad = 'unterminated", lit(0)),
                        2 => format!("$s = '{SHARED}'; $a = '{}';", lit(0)),
                        _ => format!("$a = '{}%%{}'; $s = '{SHARED}'; $b = '{}';", lit(0), lit(1), lit(2)),
                    }
                })
                .collect();
            let sources: Vec<&str> = srcs.iter().map(String::as_str).collect();
            let reference = file_by_file(&sources);
            prop_assert_eq!(FragmentSet::from_sources(&sources), reference.clone());
            for parts in 1..=4 {
                prop_assert_eq!(
                    FragmentSet::from_sources_in_parts(&sources, parts),
                    reference.clone(),
                    "{} parts",
                    parts
                );
            }
        }
    }

    #[test]
    fn a_literal_on_both_sides_of_a_part_boundary_is_kept_once() {
        let a = "$q = 'SELECT id FROM t'; $p = 'a %% b'; $u = 'UNION';";
        let b = "$q = 'SELECT id FROM t'; $p = 'a %% b'; $o = 'OR';";
        let sources = [a, b];
        assert_eq!(split_even(&[a.len(), b.len()], 2), [0..1, 1..2]);
        let set = FragmentSet::from_sources_in_parts(&sources, 2);
        assert_eq!(set, file_by_file(&sources));
        assert_eq!(set.iter().collect::<Vec<_>>(), ["OR", "SELECT id FROM t", "UNION", "a % b"]);
    }

    /// Checks that `plan` is non-empty, contiguous, in order and covers
    /// every index of `lens` once, and returns each part's byte size.
    fn part_bytes(lens: &[usize], plan: &[Range<usize>]) -> Vec<usize> {
        assert_eq!(plan.first().map(|r| r.start), Some(0), "{plan:?}");
        assert_eq!(plan.last().map(|r| r.end), Some(lens.len()), "{plan:?}");
        assert!(plan.windows(2).all(|w| w[0].end == w[1].start), "{plan:?}");
        assert!(lens.is_empty() || plan.iter().all(|r| r.start < r.end), "{plan:?}");
        plan.iter().map(|r| lens[r.clone()].iter().sum()).collect()
    }

    #[test]
    fn one_file_or_a_small_input_is_one_part() {
        let whole = |n| vec![Range { start: 0, end: n }];
        assert_eq!(part_plan(&[], 8), whole(0));
        assert_eq!(part_plan(&[100 * MIN_PART_BYTES], 8), whole(1));
        assert_eq!(part_plan(&[MIN_PART_BYTES / 4; 7], 8), whole(7));
        assert_eq!(part_plan(&[MIN_PART_BYTES; 4], 1), whole(4));
        assert_eq!(part_plan(&[MIN_PART_BYTES; 4], 2), [0..2, 2..4]);
    }

    #[test]
    fn a_thousand_cores_are_capped() {
        let lens = vec![MIN_PART_BYTES; 1000];
        let plan = part_plan(&lens, 1000);
        assert_eq!(plan.len(), MAX_PARTS);
        assert!(part_bytes(&lens, &plan).iter().all(|&b| b == 125 * MIN_PART_BYTES));
    }

    proptest! {
        #[test]
        fn parts_are_contiguous_ordered_and_cover_every_source(
            lens in proptest::collection::vec(0usize..4 * MIN_PART_BYTES, 0..40),
            cores in 1usize..1000,
        ) {
            let total: usize = lens.iter().sum();
            let plan = part_plan(&lens, cores);
            let parts = cores.min(lens.len()).min(total / MIN_PART_BYTES).clamp(1, MAX_PARTS);
            prop_assert_eq!(plan.len(), parts);
            // Each part overshoots its share by at most one file.
            let widest = lens.iter().copied().max().unwrap_or(0);
            for bytes in part_bytes(&lens, &plan) {
                prop_assert!(bytes <= total / parts + widest + 1, "{} of {}", bytes, total);
            }
            for forced in 1..=lens.len() {
                let plan = split_even(&lens, forced);
                prop_assert_eq!(plan.len(), forced);
                part_bytes(&lens, &plan);
            }
        }
    }

    #[test]
    fn paper_example_fragments() {
        // The §III-B example program.
        let src = r#"
            $postid = $_GET['id'];
            $query = "SELECT * FROM records WHERE ID=" . $postid . " LIMIT 5";
            $result = mysql_query($query);
        "#;
        let frags: FragmentSet = extract_fragments(src).into_iter().collect();
        assert!(frags.contains("id"));
        assert!(frags.contains("SELECT * FROM records WHERE ID="));
        assert!(frags.contains(" LIMIT 5"));
    }

    #[test]
    fn interpolated_string_splits_at_variable() {
        let src = r#"$q = "SELECT * from users where id = $id and password=$password";"#;
        let frags = extract_fragments(src);
        assert!(frags.contains(&"SELECT * from users where id = ".to_string()));
        assert!(frags.contains(&" and password=".to_string()));
    }

    #[test]
    fn format_string_splits_at_specifiers() {
        let src = r#"$q = sprintf("SELECT * FROM t WHERE id=%d AND name='%s'", $id, $n);"#;
        let frags = extract_fragments(src);
        assert!(frags.contains(&"SELECT * FROM t WHERE id=".to_string()));
        assert!(frags.contains(&" AND name='".to_string()));
        assert!(frags.contains(&"'".to_string()));
    }

    #[test]
    fn percent_literal_not_split() {
        let src = r#"$q = "LIKE '%foo%'";"#;
        let frags = extract_fragments(src);
        // `%f` would be a specifier, but `%fo` — the lookahead sees 'f' and
        // splits; `%%` stays literal. Here '%foo%' contains %f → split.
        // Document actual behaviour: the pieces still carry SQL tokens.
        assert!(!frags.is_empty());
    }

    #[test]
    fn whitespace_only_fragment_dropped() {
        let frags = extract_fragments(r#"$pad = "   ";"#);
        assert!(frags.is_empty());
    }

    #[test]
    fn unlexable_source_contributes_nothing() {
        let frags = extract_fragments(r#"$x = 'unterminated"#);
        assert!(frags.is_empty());
        // Not even the literals lexed before the error.
        let bad = r#"$q = "SELECT id FROM t"; $x = 'unterminated"#;
        assert!(extract_fragments(bad).is_empty());
        let mut set = FragmentSet::new();
        set.add_source(bad);
        assert!(set.is_empty());
        let set = FragmentSet::from_sources(&[r#"$a = "AND";"#, bad, r#"$b = "OR";"#]);
        assert_eq!(set.iter().collect::<Vec<_>>(), ["AND", "OR"]);
    }

    #[test]
    fn fragment_set_dedups_and_orders() {
        let mut set = FragmentSet::new();
        set.add_source(r#"$a = "SELECT"; $b = "SELECT";"#);
        assert_eq!(set.len(), 1);
        set.insert("AND");
        set.insert("");
        assert_eq!(set.len(), 2);
        let v: Vec<&str> = set.iter().collect();
        assert_eq!(v, ["AND", "SELECT"]);
    }

    #[test]
    fn wordpress_style_vocabulary() {
        // Table III of the paper: WordPress contains fragments like UNION,
        // AND, OR, SELECT, CHAR, quotes, GROUP BY, ORDER BY, CAST, WHERE 1.
        let src = r#"
            $q1 = "SELECT ID FROM wp_posts WHERE 1";
            $q2 = "ORDER BY post_date";
            $q3 = "GROUP BY post_author";
            $sep = " AND ";
            $or = " OR ";
            $u = "UNION";
            $c = "CAST";
            $ch = "CHAR";
        "#;
        let set: FragmentSet = extract_fragments(src).into_iter().collect();
        for frag in ["UNION", "CAST", "CHAR", " AND ", " OR ", "ORDER BY post_date"] {
            assert!(set.contains(frag), "missing {frag:?}");
        }
    }
}
