//! The timed sections: the §VI overhead tables (V-VII), Figures 7 and 8,
//! and the matcher ablation.

use super::{outln, Claim, Paper, Report, Test};
use crate::report::{pct, render_table};
use crate::workload::{
    crawl_requests, measure, mix_requests_pass, search_requests, wordpress_fragments,
    write_requests_pass, Measurement, Setup,
};
use crate::wpcom::five_year_average;
use joza_nti::{MatchKernel, NtiAnalyzer, NtiConfig};
use joza_pti::analyzer::{PtiAnalyzer, PtiConfig};
use joza_pti::MatcherKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Table V's configurations, in row order.
const TABLE5_SETUPS: [Setup; 4] = [
    Setup::DaemonNoCache,
    Setup::DaemonQueryCache,
    Setup::DaemonFullCache,
    Setup::ExtensionEstimate,
];
/// Index of the shipped configuration in [`TABLE5_SETUPS`].
const FULL_CACHE: usize = 2;

/// Table V's measurements, which Table VII and Figure 8 reuse.
pub(super) struct Overheads {
    reads: Measurement,
    writes: Measurement,
}

impl Paper {
    fn overheads(&mut self) -> &Overheads {
        self.overheads.get_or_insert_with(|| Overheads {
            reads: measure(&TABLE5_SETUPS, |_| crawl_requests(150)),
            writes: measure(&TABLE5_SETUPS, |p| write_requests_pass(50, p)),
        })
    }
}

/// Table V: read/write overhead per cache configuration (plus the
/// PHP-extension estimate of §VI-C).
pub(super) fn table5(paper: &mut Paper) -> Report {
    let Overheads { reads, writes } = paper.overheads();
    let mut r = Report::default();
    outln!(r, "TABLE V: Overhead by request type and cache configuration\n");
    let rows: Vec<Vec<String>> = TABLE5_SETUPS
        .iter()
        .enumerate()
        .map(|(i, setup)| {
            vec![
                setup.label().to_string(),
                format!("{:?}", reads.plain.per_request()),
                format!("{:?}", reads.protected[i].per_request()),
                pct(reads.overhead(i)),
                format!("{:?}", writes.plain.per_request()),
                format!("{:?}", writes.protected[i].per_request()),
                pct(writes.overhead(i)),
            ]
        })
        .collect();
    outln!(
        r,
        "{}",
        render_table(
            &[
                "Configuration",
                "Read plain",
                "Read protected",
                "Read ovh",
                "Write plain",
                "Write protected",
                "Write ovh",
            ],
            &rows
        )
    );

    // The paper's Table V extension row is *PTI-only* overhead ("our
    // results estimate that implementing PTI as a PHP extension would
    // incur only 0.2% ... 3.2%"). Report the same quantity: PTI analysis
    // time as a fraction of the plain request, in-process deployment.
    let ext = TABLE5_SETUPS.len() - 1;
    let pti_share = |m: &Measurement| {
        m.protected[ext].pti_per_request().as_secs_f64() / m.plain.per_request().as_secs_f64()
    };
    let (pti_read, pti_write) = (pct(pti_share(reads)), pct(pti_share(writes)));
    outln!(r, "PTI-as-PHP-extension estimate (PTI time only): read {pti_read}, write {pti_write}");

    let [w_none, w_query, w_full] = [0, 1, FULL_CACHE].map(|i| writes.overhead(i));
    let [r_none, r_query, r_full] = [0, 1, FULL_CACHE].map(|i| reads.overhead(i));
    let ours = format!("{} > {} > {}", pct(w_none), pct(w_query), pct(w_full));
    let falls = w_none > w_query && w_query > w_full;
    let read = format!("{} < {}", pct(r_query), pct(r_none));
    r.claims = vec![
        Claim::new(
            "Write overhead: no cache > query > structure",
            "34% > 12%",
            ours,
            Test::Direction,
            falls,
        ),
        Claim::new(
            "Read overhead: query cache < no cache",
            "< 4% with query cache",
            read,
            Test::Direction,
            r_query < r_none,
        ),
        Claim::new(
            "Read overhead, shipped config",
            "< 4%",
            pct(r_full),
            Test::Below,
            r_full < 0.04,
        )
        .informational(),
        Claim::exact(
            "PTI-as-extension, read / write",
            "0.2% / 3.2%",
            format!("{pti_read} / {pti_write}"),
        )
        .informational(),
    ];
    r
}

/// Table VI: overall overhead across read/write workload mixes.
pub(super) fn table6(_: &mut Paper) -> Report {
    let mut r = Report::default();
    outln!(r, "TABLE VI: Overhead of Joza on different workloads\n");
    let mut rows = Vec::new();
    let mut overheads = Vec::new();
    for writes_pct in [50usize, 10, 5, 1] {
        let m = measure(&[Setup::DaemonFullCache], |p| mix_requests_pass(writes_pct, 200, p));
        overheads.push(m.overhead(0));
        rows.push(vec![
            format!("{writes_pct}%"),
            format!("{}%", 100 - writes_pct),
            format!("{:?}", m.plain.per_request()),
            format!("{:?}", m.protected[0].per_request()),
            pct(m.overhead(0)),
        ]);
    }
    outln!(
        r,
        "{}",
        render_table(&["Writes", "Reads", "Plain Time", "Protected Time", "Overhead"], &rows)
    );
    let (heavy, light) = (overheads[0], overheads[overheads.len() - 1]);
    let ours = format!("{} > {}", pct(heavy), pct(light));
    let claim = "Overhead at 50% writes > at 1% writes";
    r.claims.push(Claim::new(claim, "8.96% > 4.03%", ours, Test::Direction, heavy > light));
    r
}

/// Table VII: Wordpress.com workload statistics and the deployment
/// overhead they predict from Table V's shipped-configuration rows.
pub(super) fn table7(paper: &mut Paper) -> Report {
    let s = five_year_average();
    let mut r = Report::default();
    outln!(r, "TABLE VII: Wordpress.com workload statistics (annual averages, millions)\n");
    let rows = vec![
        vec!["New blog posts".to_string(), format!("{:.0}", s.posts_m)],
        vec!["New pages".to_string(), format!("{:.0}", s.pages_m)],
        vec!["New comments".to_string(), format!("{:.0}", s.comments_m)],
        vec!["RPC posts".to_string(), format!("{:.0}", s.rpc_posts_m)],
        vec!["Page views".to_string(), format!("{:.0}", s.pageviews_m)],
        vec!["Write requests total".to_string(), format!("{:.0}", s.writes_m())],
        vec!["Write fraction".to_string(), pct(s.write_fraction())],
    ];
    outln!(r, "{}", render_table(&["Statistic", "Value (M/yr)"], &rows));

    let o = paper.overheads();
    let (read, write) = (o.reads.overhead(FULL_CACHE), o.writes.overhead(FULL_CACHE));
    let predicted = s.expected_overhead(read, write);
    outln!(r, "measured read overhead:  {} (Table V, shipped config)", pct(read));
    outln!(r, "measured write overhead: {} (Table V, shipped config)", pct(write));
    outln!(r, "predicted wordpress.com overhead: {}", pct(predicted));
    let claim = Claim::new(
        "Predicted wordpress.com overhead",
        "< 4%",
        pct(predicted),
        Test::Below,
        predicted < 0.04,
    );
    r.claims.push(claim.informational());
    r
}

/// Figure 7: PTI per-request time breakdown, unoptimized vs. optimized
/// daemon.
///
/// The paper reports that running PTI as a reusable daemon with the MRU
/// fragment cache and parse-first token matching cuts PTI processing time
/// by ~66% on a WordPress read request.
pub(super) fn fig7(_: &mut Paper) -> Report {
    let m = measure(&[Setup::Unoptimized, Setup::DaemonNoCache], |_| crawl_requests(60));
    let (unopt, opt) = (&m.protected[0], &m.protected[1]);
    let mut r = Report::default();
    outln!(r, "FIGURE 7: PTI time breakdown for WordPress read requests\n");
    let mut rows = Vec::new();
    for (label, s) in [("unoptimized", unopt), ("optimized daemon", opt)] {
        let (pti, nti) = (s.pti_per_request(), s.nti_per_request());
        let rest = s.per_request().saturating_sub(pti).saturating_sub(nti);
        rows.push(vec![
            label.to_string(),
            format!("{:?}", s.per_request()),
            format!("{pti:?}"),
            format!("{nti:?}"),
            format!("{rest:?}"),
        ]);
    }
    outln!(r, "{}", render_table(&["Configuration", "Request total", "PTI", "NTI", "Rest"], &rows));
    outln!(r, "plain (unprotected) request: {:?}", m.plain.per_request());

    let (opt_pti, unopt_pti) = (opt.pti_per_request(), unopt.pti_per_request());
    let reduction = 1.0 - opt_pti.as_secs_f64() / unopt_pti.as_secs_f64();
    outln!(r, "\nPTI processing reduction from optimizations: {}", pct(reduction));
    let ours = format!("{opt_pti:?} < {unopt_pti:?}");
    r.claims = vec![
        Claim::new(
            "Optimized PTI per request < unoptimized",
            "~66% less",
            ours,
            Test::Direction,
            opt_pti < unopt_pti,
        ),
        Claim::new(
            "PTI reduction by the optimizations (>= 50%)",
            "~66%",
            pct(reduction),
            Test::AtLeast,
            reduction >= 0.5,
        ),
    ];
    r
}

/// Figure 8: read / write / search request times with and without Joza,
/// with the NTI/PTI split. The read and write rows are Table V's shipped
/// configuration rows; only the search row is measured here.
pub(super) fn fig8(paper: &mut Paper) -> Report {
    let searches = search_requests(40, &mut StdRng::seed_from_u64(42));
    let search = measure(&[Setup::DaemonFullCache], |_| searches.clone());
    let o = paper.overheads();
    let typed = [
        ("read (site crawl)", &o.reads, FULL_CACHE),
        ("write (random comments)", &o.writes, FULL_CACHE),
        ("search (random terms)", &search, 0),
    ];
    let mut r = Report::default();
    outln!(r, "FIGURE 8: Request times with and without Joza\n");
    let rows: Vec<Vec<String>> = typed
        .iter()
        .map(|&(label, m, i)| {
            let protected = &m.protected[i];
            vec![
                label.to_string(),
                format!("{:?}", m.plain.per_request()),
                format!("{:?}", protected.per_request()),
                format!("{:?}", protected.nti_per_request()),
                format!("{:?}", protected.pti_per_request()),
                pct(m.overhead(i)),
            ]
        })
        .collect();
    outln!(
        r,
        "{}",
        render_table(
            &["Workload", "Plain", "With Joza", "NTI time", "PTI time", "Overhead"],
            &rows
        )
    );
    outln!(r, "(paper's shape: writes are by far the costliest to protect; reads are a few");
    outln!(r, " percent; searches issue few queries and are cheapest. PTI is amortized by");
    outln!(r, " caching on reads/searches and dominates on writes; NTI cost tracks input size.)");
    let [read, write, search] = typed.map(|(_, m, i)| m.overhead(i));
    let ours = format!("write {} vs read {}, search {}", pct(write), pct(read), pct(search));
    let largest = write > read && write > search;
    r.claims.push(Claim::new(
        "Writes have the largest overhead",
        "writes costliest",
        ours,
        Test::Direction,
        largest,
    ));
    r
}

const QUERY: &str = "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1";
const ATTACK_QUERY: &str = "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' \
                            UNION SELECT user_pass FROM wp_users LIMIT 1";

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

/// `query` grown to at least `len` bytes with ` OR ID=<n>` disjuncts.
fn padded(mut query: String, len: usize) -> String {
    for pad in 100_000usize.. {
        if query.len() >= len {
            break;
        }
        query.push_str(&format!(" OR ID={pad}"));
    }
    query
}

/// A quote-free comment body of `len` bytes and the duplicate-comment
/// check the post-comment route runs on it, the shape of a gate-dynamic
/// post: the body reaches the query unchanged, and the author input does
/// not reach this query at all.
fn dup_check(len: usize) -> (String, String) {
    const WORDS: [&str; 8] = ["great", "post", "really", "liked", "the", "part", "about", "joza"];
    let mut body = String::new();
    let mut i = 0usize;
    while body.len() < len {
        body.push_str(WORDS[i * 5 % WORDS.len()]);
        body.push(' ');
        i += 1;
    }
    let query = format!(
        "SELECT COUNT(*) FROM wp_comments WHERE comment_post_ID = 7 AND comment_content = '{body}'"
    );
    (body, query)
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

/// Ablation: matcher strategy vs workload size, for both components.
///
/// The paper's PTI optimizations (§VI-A) are the MRU fragment cache and
/// parse-first early exit. The first sweep shows how each strategy's
/// per-query cost scales with the fragment vocabulary — including the
/// Aho–Corasick automaton, our beyond-paper alternative whose matching
/// cost is independent of vocabulary size (at the price of build time and
/// memory).
///
/// The paper's MRU+parse-first pair is also timed on an attack query:
/// parse-first exits early only once every critical token is covered, so
/// an uncovered `UNION` forces the full fragment scan — the worst case.
///
/// The second sweep is the NTI analogue: the Sellers-classic kernel vs
/// the bit-parallel path as the intercepted query grows — the Fig. 7-style
/// side-by-side across all four matching strategies the engine can run.
/// Each size is measured twice: with the inputs in the query verbatim
/// (the bit-parallel path answers from its exact search) and with one
/// quote per input escaped (the Myers kernel runs). A last table times
/// requests whose inputs miss the exact search: long comment bodies with
/// escaped apostrophes, a verbatim body next to an author the query lacks
/// (a gate-dynamic post), and many short inputs absent from a long query.
pub(super) fn ablation_matcher(_: &mut Paper) -> Report {
    let mut r = Report::default();
    outln!(r, "ABLATION: fragment matcher vs vocabulary size (warm)\n");
    let reps = 200;
    let mut rows = Vec::new();
    let mut attack_times = Vec::new();
    for files in [10usize, 40, 160, 320] {
        let frags = wordpress_fragments(files);
        let mut row = vec![format!("{}", frags.len())];
        let config =
            |matcher, parse_first| PtiConfig { matcher, parse_first, ..Default::default() };
        for (label, cfg) in [
            ("naive", config(MatcherKind::Naive, false)),
            ("naive+parse-first", config(MatcherKind::Naive, true)),
            ("MRU+parse-first (paper)", PtiConfig::default()),
            ("Aho-Corasick", config(MatcherKind::AhoCorasick, false)),
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
    outln!(
        r,
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
    outln!(r, "\nReading: the first four columns time a benign query. Naive scanning grows");
    outln!(r, "linearly with the vocabulary. The paper's MRU+parse-first pair keeps a warm");
    outln!(r, "benign query flat: its fragments sit at the front of the MRU order, the scan");
    outln!(r, "exits once they cover every critical token, and promotion moves only them.");
    outln!(r, "Aho-Corasick is flat too but pays its cost at build time (see the");
    outln!(r, "`fragment_matching/aho_corasick_build` criterion bench). The last column is");
    outln!(r, "MRU+parse-first on an attack query: an uncovered critical token means no");
    outln!(r, "early exit, so it pays the full fragment scan and grows with the vocabulary.");

    outln!(r, "\nABLATION: NTI approximate-matching kernel vs query length\n");
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
            let query = padded(
                format!(
                    "SELECT * FROM wp_posts WHERE post_author={} AND post_title LIKE '%{}%'",
                    embed(&inputs[0]),
                    embed(&inputs[1])
                ),
                target_len,
            );
            let label = if escaped { "one escaped quote" } else { "verbatim" };
            let mut row = vec![format!("{}", query.len()), label.to_string()];
            row.extend(time_nti_kernels(&input_refs, &query, reps));
            nti_rows.push(row);
        }
    }
    outln!(
        r,
        "{}",
        render_table(
            &["Query bytes", "Inputs in query", "Sellers-classic", "bit-parallel", "speedup"],
            &nti_rows
        )
    );
    outln!(r, "\nReading: the Sellers DP grows as |input|x|query|. On the verbatim rows the");
    outln!(r, "bit-parallel path finds each input with a linear exact search and runs no");
    outln!(r, "alignment at all, so its cost is the query's lexing plus two scans. On the");
    outln!(r, "escaped rows it runs the Myers kernel, which advances 64 DP rows per word op");
    outln!(r, "with a threshold cutoff, then recovers the span with a Sellers traceback over");
    outln!(r, "a window of about 4x|input| columns. On short queries that window is the");
    outln!(r, "whole query, so the two kernels cost about the same; the gap widens with query");
    outln!(r, "length. Verdicts and spans are identical by construction (asserted above, and");
    outln!(r, "by the differential property tests and tests/nti_kernel_identity.rs).");

    outln!(r, "\nABLATION: NTI requests whose inputs miss the verbatim search\n");
    let mut miss_rows = Vec::new();
    for len in [1024usize, 4096] {
        let (body, query) = escaped_comment(len);
        let mut row =
            vec![format!("{} B comment, quotes escaped", body.len()), query.len().to_string()];
        row.extend(time_nti_kernels(&["visitor12", &body], &query, reps / 4));
        miss_rows.push(row);
    }
    for len in [1024usize, 4096] {
        let (body, query) = dup_check(len);
        let mut row = vec![
            format!("{} B comment verbatim, author absent", body.len()),
            query.len().to_string(),
        ];
        row.extend(time_nti_kernels(&["7", "visitor12", &body], &query, reps));
        miss_rows.push(row);
    }
    let query = padded("SELECT * FROM wp_posts WHERE ID=0".to_string(), 6400);
    // Letters the query does not use, so the q-gram check skips them all.
    let fields: Vec<String> = (0..40)
        .map(|i| format!("{}-{i}", ["banjo-quokka-jazz", "yak-vixen-kumquat"][i % 2]))
        .collect();
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut row = vec!["40 short inputs, none in the query".to_string(), query.len().to_string()];
    row.extend(time_nti_kernels(&field_refs, &query, reps));
    miss_rows.push(row);
    outln!(
        r,
        "{}",
        render_table(
            &["Request", "Query bytes", "Sellers-classic", "bit-parallel", "speedup"],
            &miss_rows
        )
    );
    outln!(r, "\nReading: an input that misses the verbatim search pays that failed linear");
    outln!(r, "scan, then the q-gram check, then (if it passes) the kernel. A comment whose");
    outln!(r, "apostrophes are escaped passes the check; its Myers scan is cheap, but the");
    outln!(r, "span recovery window covers the whole query, so both kernels run a full");
    outln!(r, "Sellers DP and cost the same. A gate-dynamic comment post finds its body at");
    outln!(r, "once; its 9-byte author, absent from the duplicate check's query, is too short");
    outln!(r, "for the q-gram bound to prune, so it skips the check and runs the single-word");
    outln!(r, "Myers scan over the query. Short inputs absent from a long query each pay one");
    outln!(r, "scan of the query and a galloping gram merge before the check skips them.");
    r
}
