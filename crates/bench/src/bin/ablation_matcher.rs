//! Ablation: matcher strategy vs workload size, for both components.
//!
//! The paper's PTI optimizations (§VI-A) are the MRU fragment cache and
//! parse-first early exit. The first sweep shows how each strategy's
//! per-query cost scales with the fragment vocabulary — including the
//! Aho–Corasick automaton, our beyond-paper alternative whose matching
//! cost is independent of vocabulary size (at the price of build time and
//! memory).
//!
//! The paper's MRU+parse-first pair is also timed on an attack query:
//! parse-first exits early only once every critical token is covered, so
//! an uncovered `UNION` forces the full fragment scan — the worst case.
//!
//! The second sweep is the NTI analogue: the Sellers-classic kernel vs
//! the bit-parallel path as the intercepted query grows — the Fig. 7-style
//! side-by-side across all four matching strategies the engine can run.
//! Each size is measured twice: with the inputs in the query verbatim
//! (the bit-parallel path answers from its exact search) and with one
//! quote per input escaped (the Myers kernel runs). A last table times
//! requests whose inputs miss the exact search: long comment bodies with
//! escaped apostrophes, and many short inputs absent from a long query.

use joza_bench::report::render_table;
use joza_lab::wordpress;
use joza_nti::{MatchKernel, NtiAnalyzer, NtiConfig};
use joza_phpsim::fragments::FragmentSet;
use joza_pti::analyzer::{PtiAnalyzer, PtiConfig};
use joza_pti::MatcherKind;
use std::time::{Duration, Instant};

const QUERY: &str = "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1";
const ATTACK_QUERY: &str = "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' \
                            UNION SELECT user_pass FROM wp_users LIMIT 1";

fn fragments(files: usize) -> Vec<String> {
    let mut set = FragmentSet::new();
    for src in wordpress::core_sources() {
        set.add_source(&src);
    }
    for src in wordpress::synthetic_core_sources(files) {
        set.add_source(&src);
    }
    set.iter().map(str::to_string).collect()
}

fn time_analyze(analyzer: &PtiAnalyzer, query: &str, reps: usize) -> Duration {
    // Warm (MRU ordering, caches inside the matcher).
    let _ = analyzer.analyze(query);
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = analyzer.analyze(query);
    }
    t0.elapsed() / reps as u32
}

/// Times NTI on one request under both kernels, after checking that they
/// report the same: the two times and the speedup.
fn time_nti_kernels(inputs: &[&str], query: &str, reps: usize) -> Vec<String> {
    let mut cells = Vec::new();
    let mut times = Vec::new();
    let mut reports = Vec::new();
    for kernel in [MatchKernel::Classic, MatchKernel::BitParallel] {
        let nti = NtiAnalyzer::new(NtiConfig { kernel, ..NtiConfig::default() });
        reports.push(nti.analyze(inputs, query));
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(nti.analyze(inputs, query));
        }
        let t = t0.elapsed() / reps as u32;
        times.push(t);
        cells.push(format!("{t:?}"));
    }
    assert_eq!(reports[0], reports[1], "kernels must agree on a {}-byte query", query.len());
    cells.push(format!("{:.2}x", times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-12)));
    cells
}

/// A comment body of `len` bytes in which every eighth word carries an
/// apostrophe, as an INSERT built by an application that escapes quotes
/// (magic quotes): the body reaches the query altered, so NTI's verbatim
/// search misses and the full path runs.
fn escaped_comment(len: usize) -> (String, String) {
    const WORDS: [&str; 8] = ["great", "post", "really", "liked", "the", "part", "about", "don't"];
    let mut body = String::new();
    let mut i = 0usize;
    while body.len() < len {
        body.push_str(WORDS[i * 5 % WORDS.len()]);
        body.push(' ');
        i += 1;
    }
    let query = format!(
        "INSERT INTO wp_comments (comment_post_ID, comment_author, comment_content) \
         VALUES (7, 'visitor12', '{}')",
        body.replace('\'', "\\'")
    );
    (body, query)
}

fn main() {
    println!("ABLATION: fragment matcher vs vocabulary size (warm)\n");
    let reps = 200;
    let mut rows = Vec::new();
    let mut attack_times = Vec::new();
    for files in [10usize, 40, 160, 320] {
        let frags = fragments(files);
        let mut row = vec![format!("{}", frags.len())];
        for (label, cfg) in [
            (
                "naive",
                PtiConfig { matcher: MatcherKind::Naive, parse_first: false, ..Default::default() },
            ),
            (
                "naive+parse-first",
                PtiConfig { matcher: MatcherKind::Naive, parse_first: true, ..Default::default() },
            ),
            ("MRU+parse-first (paper)", PtiConfig::optimized()),
            (
                "Aho-Corasick",
                PtiConfig {
                    matcher: MatcherKind::AhoCorasick,
                    parse_first: false,
                    ..Default::default()
                },
            ),
        ] {
            let analyzer = PtiAnalyzer::from_fragments(frags.clone(), cfg);
            let t = time_analyze(&analyzer, QUERY, reps);
            row.push(format!("{t:?}"));
            if label == "MRU+parse-first (paper)" {
                assert!(
                    analyzer.analyze(ATTACK_QUERY).is_attack(),
                    "the attack query must be flagged"
                );
                attack_times.push(time_analyze(&analyzer, ATTACK_QUERY, reps / 10));
            }
        }
        rows.push(row);
    }
    for (row, t) in rows.iter_mut().zip(&attack_times) {
        row.push(format!("{t:?}"));
    }
    println!(
        "{}",
        render_table(
            &[
                "Fragments",
                "naive",
                "naive+parse-first",
                "MRU+parse-first (paper)",
                "Aho-Corasick",
                "MRU+parse-first, attack",
            ],
            &rows
        )
    );
    println!("\nReading: the first four columns time a benign query. Naive scanning grows");
    println!("linearly with the vocabulary; the paper's MRU+parse-first pair cuts warm");
    println!("benign-query cost by ~6-10x at every size; Aho-Corasick is flat and fastest");
    println!("per query but pays its cost at build time (see the");
    println!("`fragment_matching/aho_corasick_build` criterion bench). The last column is");
    println!("MRU+parse-first on an attack query: an uncovered critical token means no");
    println!("early exit, so it pays the full fragment scan and grows with the vocabulary.");

    println!("\nABLATION: NTI approximate-matching kernel vs query length\n");
    // One quote per input, so the escaped rows differ from the query by
    // exactly one inserted backslash each.
    let inputs: Vec<String> = vec![
        "-1' OR 1=1 -- probe".to_string(),
        // Multi-word regime: > 64 bytes, spans two kernel blocks.
        "-1 UNION SELECT user_login, user_pass, user_email FROM wp_users WHERE user_login='admin"
            .to_string(),
    ];
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let mut nti_rows = Vec::new();
    for target_len in [100usize, 400, 1600, 6400] {
        for escaped in [false, true] {
            let embed = |input: &str| {
                let lower = input.to_lowercase();
                if escaped {
                    lower.replace('\'', "\\'")
                } else {
                    lower
                }
            };
            let mut query = format!(
                "SELECT * FROM wp_posts WHERE post_author={} AND post_title LIKE '%{}%'",
                embed(&inputs[0]),
                embed(&inputs[1])
            );
            let mut pad = 100_000usize;
            while query.len() < target_len {
                query.push_str(&format!(" OR ID={pad}"));
                pad += 1;
            }
            let label = if escaped { "one escaped quote" } else { "verbatim" };
            let mut row = vec![format!("{}", query.len()), label.to_string()];
            row.extend(time_nti_kernels(&input_refs, &query, reps));
            nti_rows.push(row);
        }
    }
    println!(
        "{}",
        render_table(
            &["Query bytes", "Inputs in query", "Sellers-classic", "bit-parallel", "speedup"],
            &nti_rows
        )
    );
    println!("\nReading: the Sellers DP grows as |input|x|query|. On the verbatim rows the");
    println!("bit-parallel path finds each input with a linear exact search and runs no");
    println!("alignment at all, so its cost is the query's lexing plus two scans. On the");
    println!("escaped rows it runs the Myers kernel, which advances 64 DP rows per word op");
    println!("with a threshold cutoff, then recovers the span with a Sellers traceback over");
    println!("a window of about 4x|input| columns. On short queries that window is the");
    println!("whole query, so the two kernels cost about the same; the gap widens with query");
    println!("length. Verdicts and spans are identical by construction (asserted above, and");
    println!("by the differential property tests and the nti_kernel corpus identity check).");

    println!("\nABLATION: NTI requests whose inputs miss the verbatim search\n");
    let mut miss_rows = Vec::new();
    for len in [1024usize, 4096] {
        let (body, query) = escaped_comment(len);
        let mut row =
            vec![format!("{} B comment, quotes escaped", body.len()), query.len().to_string()];
        row.extend(time_nti_kernels(&["visitor12", &body], &query, reps / 4));
        miss_rows.push(row);
    }
    let mut query = String::from("SELECT * FROM wp_posts WHERE ID=0");
    let mut pad = 100_000usize;
    while query.len() < 6400 {
        query.push_str(&format!(" OR ID={pad}"));
        pad += 1;
    }
    // Letters the query does not use, so the q-gram check skips them all.
    let fields: Vec<String> = (0..40)
        .map(|i| format!("{}-{i}", ["banjo-quokka-jazz", "yak-vixen-kumquat"][i % 2]))
        .collect();
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut row = vec!["40 short inputs, none in the query".to_string(), query.len().to_string()];
    row.extend(time_nti_kernels(&field_refs, &query, reps));
    miss_rows.push(row);
    println!(
        "{}",
        render_table(
            &["Request", "Query bytes", "Sellers-classic", "bit-parallel", "speedup"],
            &miss_rows
        )
    );
    println!("\nReading: an input that misses the verbatim search pays that failed linear");
    println!("scan, then the q-gram check, then (if it passes) the kernel. A comment whose");
    println!("apostrophes are escaped passes the check; its Myers scan is cheap, but the");
    println!("span recovery window covers the whole query, so both kernels run a full");
    println!("Sellers DP and cost the same. Short inputs absent from a long query each pay");
    println!("one scan of the query and a galloping gram merge before the check skips them.");
}
