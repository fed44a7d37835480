//! Property-based tests for the NTI analyzer's invariants.

use joza_nti::{distance_cutoff, MatchKernel, NtiAnalyzer, NtiConfig, NtiReport};
use joza_strmatch::sellers::{substring_distance, SubstringMatch};
use proptest::prelude::*;

fn analyzer(threshold: f64) -> NtiAnalyzer {
    NtiAnalyzer::new(NtiConfig { threshold, ..NtiConfig::default() })
}

/// A report's markings as `(input index, start, end, distance)`.
fn markings(r: &NtiReport) -> Vec<(usize, usize, usize, usize)> {
    r.markings.iter().map(|m| (m.input_index, m.start, m.end, m.distance)).collect()
}

/// The filter-free reference: for each input of three bytes or more (NTI
/// ignores shorter ones), Sellers' best match over the case-folded query,
/// kept when its ratio passes `threshold`. No length check, verbatim
/// search, piece filter or q-gram check runs.
fn sellers_markings(
    inputs: &[&str],
    query: &str,
    threshold: f64,
) -> Vec<(usize, usize, usize, usize)> {
    let query = query.to_ascii_lowercase();
    inputs
        .iter()
        .enumerate()
        .filter(|(_, input)| input.len() >= 3)
        .filter_map(|(i, input)| {
            let best = substring_distance(input.to_ascii_lowercase().as_bytes(), query.as_bytes());
            (!best.is_empty() && best.diff_ratio() < threshold).then_some((
                i,
                best.start,
                best.end,
                best.distance,
            ))
        })
        .collect()
}

proptest! {
    /// The analyzer is total: any inputs + any query produce a report
    /// with in-bounds, well-formed markings.
    #[test]
    fn analysis_is_total(
        inputs in proptest::collection::vec(".{0,30}", 0..4),
        query in ".{0,120}",
    ) {
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let report = analyzer(0.2).analyze(&refs, &query);
        for m in &report.markings {
            prop_assert!(m.start <= m.end);
            prop_assert!(m.end <= query.len());
            prop_assert!(m.input_index < inputs.len());
            prop_assert!(m.diff_ratio >= 0.0);
        }
        for (mi, _) in &report.tainted_critical {
            prop_assert!(*mi < report.markings.len());
        }
    }

    /// Benign numeric inputs in numeric position never flag.
    #[test]
    fn numeric_inputs_are_benign(id in 0i64..1_000_000) {
        let input = id.to_string();
        let query = format!("SELECT * FROM data WHERE ID={id} LIMIT 5");
        let report = analyzer(0.2).analyze(&[&input], &query);
        prop_assert!(!report.is_attack(), "{report:?}");
    }

    /// A verbatim tautology payload is always detected, whatever the
    /// numeric dressing.
    #[test]
    fn verbatim_tautology_detected(id in 0i64..1000, rhs in 1i64..1000) {
        let payload = format!("{id} OR {rhs}={rhs}");
        let query = format!("SELECT * FROM data WHERE ID={payload}");
        let report = analyzer(0.2).analyze(&[&payload], &query);
        prop_assert!(report.is_attack(), "{payload}: {report:?}");
    }

    /// Markings (and hence detections) are monotone in the threshold: any
    /// attack found at a low threshold is still found at a higher one
    /// (for thresholds below the 0.5 degeneracy point).
    #[test]
    fn detection_monotone_in_threshold(id in 0i64..100, quotes in 0usize..12) {
        let stuffed = format!("{id}/*{}*/OR 1=1", "'".repeat(quotes));
        let in_query = stuffed.replace('\'', "\\'");
        let query = format!("SELECT * FROM data WHERE ID={in_query}");
        let low = analyzer(0.10).analyze(&[&stuffed], &query).is_attack();
        let high = analyzer(0.40).analyze(&[&stuffed], &query).is_attack();
        prop_assert!(!low || high, "detected at 0.10 but not at 0.40");
    }

    /// The no-combination rule: splitting a payload across inputs so no
    /// single input covers a whole critical token never flags.
    #[test]
    fn split_payloads_never_flag(id in 0i64..1000) {
        // `OR` and `TRUE` are each split across the two inputs.
        let q1 = format!("{id} O");
        let q2 = "R TRUE".to_string();
        let query = format!("SELECT * FROM data WHERE ID={id} OR TRUE");
        // q2 covers "R TRU"? give NTI only fragments that split criticals:
        let report = analyzer(0.2).analyze(&[&q1, "R TR", "UE"], &query);
        prop_assert!(!report.is_attack(), "{report:?}");
        let _ = q2;
    }

    /// Inputs below the minimum length are ignored entirely.
    #[test]
    fn short_inputs_ignored(c in "[a-zA-Z]") {
        let query = format!("SELECT * FROM data WHERE name='{c}' OR 1=1");
        let report = analyzer(0.2).analyze(&[&c], &query);
        prop_assert!(report.markings.is_empty());
    }

    /// Case normalization: detection is invariant under input case.
    #[test]
    fn case_invariant(id in 0i64..100) {
        let payload = format!("{id} or 1=1");
        let upper = payload.to_uppercase();
        let q_lower = format!("SELECT * FROM data WHERE ID={payload}");
        let q_upper = format!("SELECT * FROM data WHERE ID={upper}");
        let a = analyzer(0.2).analyze(&[&upper], &q_lower).is_attack();
        let b = analyzer(0.2).analyze(&[&payload], &q_upper).is_attack();
        prop_assert_eq!(a, b);
    }

    /// The filters are exact on arbitrary printable pairs: under both
    /// kernels the markings are the ones the alignment alone gives.
    #[test]
    fn markings_match_the_sellers_reference(
        input in "[ -~]{0,40}",
        query in "[ -~]{0,80}",
    ) {
        let expected = sellers_markings(&[&input], &query, 0.2);
        for kernel in [MatchKernel::Classic, MatchKernel::BitParallel] {
            let r = NtiAnalyzer::new(NtiConfig { kernel, ..NtiConfig::default() })
                .analyze(&[&input], &query);
            prop_assert_eq!(&markings(&r), &expected, "{}", kernel);
        }
    }

    /// An input of at most 11 bytes has at most 9 q-grams, a bound of at
    /// most 3, and a cutoff of at least 2 at t = 0.2: a bound that could
    /// not prune one distance past the cutoff, so NTI never consults the
    /// q-gram prefilter for it (the piece filter runs instead). Both
    /// kernels give the same report, counters included, and its markings
    /// are the alignment's alone.
    #[test]
    fn kernels_agree_with_the_sellers_reference_on_short_inputs(
        inputs in proptest::collection::vec("[a-z0-9 =']{3,11}", 1..5),
        query in "[ -~]{0,160}",
    ) {
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let report = |kernel| {
            NtiAnalyzer::new(NtiConfig { kernel, ..NtiConfig::default() }).analyze(&refs, &query)
        };
        let classic = report(MatchKernel::Classic);
        prop_assert_eq!(&report(MatchKernel::BitParallel), &classic);
        prop_assert_eq!(markings(&classic), sellers_markings(&refs, &query, 0.2));
    }

    /// The filters are exact: a name planted with a few substitutions in a
    /// long query gets the markings the alignment alone gives, with no
    /// length check, verbatim search, piece filter or q-gram check, under
    /// both kernels.
    #[test]
    fn filters_never_drop_a_marking(
        input in "[a-z0-9 ]{3,24}",
        edits in 0usize..7,
        filler in "[a-z ]{0,300}",
        t_idx in 0usize..4,
    ) {
        let threshold = [0.05, 0.20, 0.35, 0.60][t_idx];
        let planted: String = input
            .char_indices()
            .map(|(i, c)| if i % 2 == 1 && i / 2 < edits { '#' } else { c })
            .collect();
        let query = format!("SELECT * FROM t WHERE a='{filler}{planted}{filler}'");
        let expected = sellers_markings(&[&input], &query, threshold);
        for kernel in [MatchKernel::Classic, MatchKernel::BitParallel] {
            let r = NtiAnalyzer::new(NtiConfig { threshold, kernel, ..NtiConfig::default() })
                .analyze(&[&input], &query);
            prop_assert_eq!(&markings(&r), &expected, "{} at t = {}", kernel, threshold);
        }
    }

    /// The bit-parallel kernel is verdict- AND span-identical to Classic:
    /// the full reports (markings, tainted criticals, skip/run counters)
    /// must be equal on arbitrary inputs, queries, and thresholds.
    #[test]
    fn kernels_produce_identical_reports(
        inputs in proptest::collection::vec("[ -~]{0,50}", 0..4),
        query in "[ -~]{0,120}",
        t_idx in 0usize..4,
    ) {
        let threshold = [0.05, 0.20, 0.35, 0.60][t_idx];
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let classic = NtiAnalyzer::new(NtiConfig {
            threshold, kernel: MatchKernel::Classic, ..NtiConfig::default()
        });
        let fast = NtiAnalyzer::new(NtiConfig {
            threshold, kernel: MatchKernel::BitParallel, ..NtiConfig::default()
        });
        prop_assert_eq!(classic.analyze(&refs, &query), fast.analyze(&refs, &query));
    }

    /// Same report identity on payload-like inputs embedded (with an app
    /// transformation) in realistic queries — the path where markings
    /// actually fire, including inputs longer than one 64-bit word.
    #[test]
    fn kernels_identical_on_embedded_payloads(
        column in "[a-z_]{1,12}",
        payload in "[a-z0-9 '=()_,]{3,90}",
        escape in 0usize..2,
    ) {
        let in_query =
            if escape == 1 { payload.replace('\'', "\\'") } else { payload.replace("  ", " ") };
        let query = format!("SELECT * FROM t WHERE {column}='{in_query}' LIMIT 3");
        let classic = NtiAnalyzer::new(NtiConfig {
            kernel: MatchKernel::Classic, ..NtiConfig::default()
        });
        let fast = NtiAnalyzer::new(NtiConfig {
            kernel: MatchKernel::BitParallel, ..NtiConfig::default()
        });
        prop_assert_eq!(
            classic.analyze(&[&payload], &query),
            fast.analyze(&[&payload], &query)
        );
    }

    /// Report identity where the bit-parallel path answers from its
    /// verbatim search: the input is planted 1-3 times (overlapping when
    /// it is periodic and a copy carries extra periods), in mixed ASCII
    /// case so input folding runs, up to ~2 KB long (multi-word), with
    /// non-ASCII UTF-8. A second input differs from its copy in the query
    /// by one escaped quote, and a third is not planted at all, so the
    /// prefilter and kernel paths run in the same report.
    #[test]
    fn kernels_identical_on_verbatim_inputs(
        unit in "[a-zA-Z0-9 ,.=()_éü€—]{1,40}",
        reps in 1usize..50,
        copies in 1usize..4,
        extra in 0usize..3,
        filler in "[a-z0-9 ,=]{0,30}",
        other in "[a-zA-Z ]{3,40}",
        case in 0usize..3,
        t_idx in 0usize..4,
    ) {
        let threshold = [0.05, 0.20, 0.35, 0.60][t_idx];
        let input = unit.repeat(reps);
        // Each copy carries `extra` more periods of the input, so with
        // `extra > 0` the occurrences inside one copy overlap.
        let copy = unit.repeat(reps + extra);
        let copy = match case {
            0 => copy,
            1 => copy.to_ascii_lowercase(),
            _ => copy.to_ascii_uppercase(),
        };
        let planted = vec![copy; copies].join(filler.as_str());
        let altered = format!("{other}'s {input}");
        let altered_in_query = format!("{other}\\'s {input}");
        let query = format!(
            "SELECT * FROM t WHERE a='{filler}' AND body='{planted}' OR c='{altered_in_query}' LIMIT 3"
        );
        let refs = [input.as_str(), altered.as_str(), "no such input anywhere"];
        let classic = NtiAnalyzer::new(NtiConfig {
            threshold, kernel: MatchKernel::Classic, ..NtiConfig::default()
        });
        let fast = NtiAnalyzer::new(NtiConfig {
            threshold, kernel: MatchKernel::BitParallel, ..NtiConfig::default()
        });
        let report = fast.analyze(&refs, &query);
        prop_assert_eq!(&classic.analyze(&refs, &query), &report);
        // NTI ignores inputs shorter than three bytes.
        if input.len() >= 3 {
            prop_assert!(
                report.markings.iter().any(|m| m.input_index == 0 && m.distance == 0),
                "the planted input must be marked at distance 0: {report:?}"
            );
        }
    }
}

/// The largest distance `d ≤ |p|` whose longest span, `|p| + d` bytes,
/// passes the ratio filter, by trying every one.
fn largest_passing_distance(t: f64, n: usize) -> Option<usize> {
    (0..=n).filter(|&d| SubstringMatch { start: 0, end: n + d, distance: d }.diff_ratio() < t).max()
}

proptest! {
    /// The derived cutoff is exactly the largest distance the ratio
    /// filter can pass, for thresholds in (0, 1) and inputs up to 4 KB.
    #[test]
    fn distance_cutoff_is_the_largest_passing_distance(micros in 1u64..1_000_000, n in 0usize..4097) {
        let t = micros as f64 / 1e6;
        prop_assert_eq!(distance_cutoff(t, n), largest_passing_distance(t, n), "t = {}, |p| = {}", t, n);
    }

    /// Edge thresholds: at t ≤ 0 no distance passes, at t ≥ 1 every one up
    /// to |p| does.
    #[test]
    fn distance_cutoff_at_edge_thresholds(t_idx in 0usize..6, n in 0usize..4097) {
        let t = [-1.0, -0.0, 0.0, 1.0, 1.5, f64::INFINITY][t_idx];
        let expected = if t > 0.0 { Some(n) } else { None };
        prop_assert_eq!(distance_cutoff(t, n), expected);
        prop_assert_eq!(largest_passing_distance(t, n), expected);
    }
}

/// Regression: the paper's Figure 2 walkthrough.
#[test]
fn figure2_walkthrough() {
    let nti = NtiAnalyzer::new(NtiConfig::default());

    // Part A: benign.
    let r = nti.analyze(&["1"], "SELECT * FROM data WHERE ID=1");
    assert!(!r.is_attack());

    // Part B: the tautology is marked and critical tokens are tainted.
    let r = nti.analyze(&["-1 OR 1 = 1"], "SELECT * FROM data WHERE ID=-1 OR 1 = 1");
    assert!(r.is_attack());

    // Part C: magic-quotes stuffing pushes the ratio past the threshold.
    let input = "-1 OR/*'''''*/1=1";
    let in_query = input.replace('\'', "\\'");
    let q = format!("SELECT * FROM data WHERE ID={in_query}");
    let r = nti.analyze(&[input], &q);
    assert!(!r.is_attack(), "stuffed payload must evade: {r:?}");
}
