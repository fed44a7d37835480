//! The two NTI matching kernels must produce identical full reports
//! (markings, spans, distances, tainted criticals): BitParallel
//! (Myers/Hyyrö, verbatim-first) is a pure optimization of Classic
//! (Sellers). Checked on these workloads:
//!
//! * every lab plugin and CMS case served ungated with its exploit and
//!   its benign request — the (inputs, query) pairs the gate really sees;
//! * synthetic multi-kilobyte queries (large `IN`-lists) embedding
//!   payload-like inputs after an app transformation, including inputs
//!   longer than one 64-bit Myers block;
//! * the comment posts of the benchmark's gate-dynamic workload: a
//!   quote-free 1-4 KB body found verbatim in every query of the
//!   post-comment route, and a 9-byte author that the duplicate check's
//!   query lacks;
//! * 6-16 byte names in 1-8 KB comment queries: absent, and planted one
//!   edit inside, at and one edit past NTI's distance cutoff;
//! * apostrophe-dense comment bodies up to 8 KB escaped by magic quotes,
//!   where span recovery runs over the whole body.

use joza_lab::build_lab;
use joza_lab::verify::request_for;
use joza_nti::{MatchKernel, NtiAnalyzer, NtiConfig};

/// One (captured inputs, intercepted query) pair — the unit of NTI work.
type Pair = (Vec<String>, String);

/// Asserts both kernels agree on every pair and returns how many pairs
/// were attacks.
fn assert_kernels_agree(pairs: &[Pair]) -> usize {
    let analyzer = |kernel| NtiAnalyzer::new(NtiConfig { kernel, ..NtiConfig::default() });
    let (classic, fast) = (analyzer(MatchKernel::Classic), analyzer(MatchKernel::BitParallel));
    let mut attacks = 0;
    for (inputs, query) in pairs {
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let report = classic.analyze(&refs, query);
        assert_eq!(fast.analyze(&refs, query), report, "kernels diverged on {inputs:?} / {query}");
        attacks += usize::from(report.is_attack());
    }
    attacks
}

#[test]
fn kernels_agree_on_every_lab_request() {
    let mut lab = build_lab();
    let targets: Vec<_> = lab.plugins.iter().chain(&lab.cms_cases).cloned().collect();
    let mut pairs = Vec::new();
    for p in &targets {
        for payload in [p.exploit.primary_payload(), p.benign_value.as_str()] {
            let req = request_for(p, payload);
            let inputs: Vec<String> = req.all_inputs().into_iter().map(|(_, _, v)| v).collect();
            for q in lab.server.handle(&req).queries {
                pairs.push((inputs.clone(), q));
            }
        }
    }
    assert!(pairs.len() >= 2 * targets.len(), "every request issues a query");
    assert!(assert_kernels_agree(&pairs) > 0, "the exploits must yield attack reports");
}

/// Payload-like inputs embedded (lowercased, quotes escaped) in ~3 KB
/// queries next to a search term and a slug; every fourth payload lands
/// in a numeric (unquoted) context, so the set carries attack verdicts.
fn long_pairs(n: usize) -> Vec<Pair> {
    (0..n)
        .map(|i| {
            let payload = match i % 4 {
                0 => format!("-{} OR {}={} -- probe", i + 1, 1 + i % 9, 1 + i % 9),
                1 => format!(
                    "-1 UNION SELECT user_login, user_pass, {} FROM wp_users WHERE id={} LIMIT 1",
                    1000 + i,
                    1 + i % 7
                ),
                2 => format!("' OR '{0}'='{0}' /*{1}*/ -- -", i % 13, "x".repeat(12 + i % 9)),
                _ => format!("category-{}-with-a-perfectly-benign-slug-{}", i % 5, i),
            };
            let search = format!("annual budget overview {} quarterly report", 2000 + i % 30);
            let slug = format!("widget-area-{}-sidebar-position-{}-theme-default", i % 9, i % 4);
            let embedded = payload.to_lowercase().replace('\'', "\\'");
            let author = if i % 4 == 0 { embedded } else { format!("'{embedded}'") };
            let in_list: Vec<String> =
                (0..380).map(|j| (100_000 + (i * 380 + j) % 900_000).to_string()).collect();
            let query = format!(
                "SELECT p.ID, p.post_title, p.post_date FROM wp_posts p \
                 JOIN wp_term_relationships tr ON tr.object_id = p.ID \
                 WHERE p.ID IN ({}) AND p.post_author={author} AND p.post_title LIKE '%{search}%' \
                 AND p.post_name <> '{slug}' AND p.post_status='publish' \
                 ORDER BY p.post_date DESC LIMIT 50",
                in_list.join(",")
            );
            let session = format!("sess-{:08x}", (i as u64).wrapping_mul(2_654_435_761));
            (vec![(1 + i % 37).to_string(), session, payload, search, slug], query)
        })
        .collect()
}

#[test]
fn kernels_agree_on_multi_kilobyte_queries() {
    let pairs = long_pairs(48);
    assert!(pairs.iter().all(|(_, q)| q.len() > 2048));
    assert!(assert_kernels_agree(&pairs) > 0, "the numeric-context payloads must be attacks");
}

/// The post-comment route's first three queries for a comment on post 7:
/// the duplicate check (body only), the flood check and the INSERT
/// (author and body). Inputs are the raw post id, author and body.
fn comment_post_pairs() -> Vec<Pair> {
    const WORDS: [&str; 8] =
        ["great", "post", "really", "liked", "taint", "inference", "and", "more"];
    [1024usize, 2048, 4096]
        .into_iter()
        .enumerate()
        .flat_map(|(i, len)| {
            let mut body = format!("[1.{i:x}]");
            for w in (i..).map(|w| w * 5 + 3) {
                if body.len() >= len {
                    break;
                }
                body.push(' ');
                body.push_str(WORDS[w % WORDS.len()]);
                if w % 11 == 0 {
                    body.push('!');
                }
            }
            body.truncate(len);
            let author = format!("visitor{}", 40 + i);
            let inputs = vec!["7".to_string(), author.clone(), body.clone()];
            [
                format!(
                    "SELECT COUNT(*) FROM wp_comments WHERE comment_post_ID = 7 \
                     AND comment_content = '{body}'"
                ),
                format!(
                    "SELECT comment_ID FROM wp_comments WHERE comment_author = '{author}' \
                     AND comment_content = '{body}' LIMIT 1"
                ),
                format!(
                    "INSERT INTO wp_comments (comment_post_ID, comment_author, comment_content, \
                     comment_approved) VALUES (7, '{author}', '{body}', '1')"
                ),
            ]
            .map(|query| (inputs.clone(), query))
        })
        .collect()
}

#[test]
fn kernels_agree_on_gate_dynamic_comment_posts() {
    let pairs = comment_post_pairs();
    assert_eq!(assert_kernels_agree(&pairs), 0, "comment posts are benign");
    let nti = NtiAnalyzer::new(NtiConfig::default());
    for (inputs, query) in &pairs {
        let (author, body) = (inputs[1].as_str(), inputs[2].as_str());
        assert_eq!(author.len(), 9);
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let r = nti.analyze(&refs, query);
        let body_at = query.find(body).expect("the body is embedded verbatim");
        assert!(
            r.markings.iter().any(|m| (m.input_index, m.start, m.distance) == (2, body_at, 0)),
            "the body must be marked where it sits: {:?}",
            r.markings
        );
        assert_eq!(r.markings.iter().any(|m| m.input_index == 1), query.contains(author));
        // The post id is too short to compare. The author's three pieces
        // (cutoff 2) occur nowhere in the duplicate check's query, so the
        // piece filter skips it there; where it is present it is compared.
        let present = usize::from(query.contains(author));
        assert_eq!((r.comparisons_run, r.comparisons_skipped), (1 + present, 1 - present));
    }
}

/// The piece filter's count over the comment-post pairs: it skips the
/// author's scan in exactly the queries that lack the author, and never
/// the body's.
#[test]
fn piece_filter_skips_absent_authors_on_comment_posts() {
    let pairs = comment_post_pairs();
    let absent = pairs.iter().filter(|(inputs, q)| !q.contains(inputs[1].as_str())).count();
    assert_eq!(absent, 3, "one duplicate check per body size lacks the author");
    for kernel in [MatchKernel::Classic, MatchKernel::BitParallel] {
        let nti = NtiAnalyzer::new(NtiConfig { kernel, ..NtiConfig::default() });
        let (mut run, mut skipped) = (0, 0);
        for (inputs, query) in &pairs {
            let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
            let r = nti.analyze(&refs, query);
            run += r.comparisons_run;
            skipped += r.comparisons_skipped;
        }
        assert_eq!((run, skipped), (2 * pairs.len() - absent, absent), "{kernel}");
    }
}

/// A name in a comment query of `len` bytes, planted `edits` substitutions
/// away from the input (`None`: not planted at all).
fn name_in_comment(name: &str, edits: Option<usize>, len: usize) -> String {
    let filler = "a nice long comment about taint inference, with words and more words ";
    let mut body: String = filler.chars().cycle().take(len).collect();
    if let Some(edits) = edits {
        // Substitute `#` (in no name) for every other byte from the start.
        let planted: String = name
            .char_indices()
            .map(|(i, c)| if i % 2 == 0 && i / 2 < edits { '#' } else { c })
            .collect();
        body.insert_str(len / 2, &planted);
    }
    format!(
        "INSERT INTO wp_comments (comment_post_ID, comment_author, comment_content) \
         VALUES (7, 'someone', '{body}')"
    )
}

#[test]
fn kernels_agree_on_short_names_near_the_cutoff() {
    let t = NtiConfig::default().threshold;
    let mut pairs = Vec::new();
    let mut absent = 0;
    for n in 6..=16 {
        let name: String = "qvzkxjwpyfgbmhtd".chars().take(n).collect();
        let k = joza_nti::distance_cutoff(t, n).expect("a positive threshold");
        for len in [1024, 4096, 8192] {
            pairs.push((vec![name.clone()], name_in_comment(&name, None, len)));
            absent += 1;
            for edits in [k.saturating_sub(1), k, k + 1] {
                pairs.push((vec![name.clone()], name_in_comment(&name, Some(edits), len)));
            }
        }
    }
    assert_kernels_agree(&pairs);
    // No piece of an absent name occurs in its query: the filter skips
    // every one of those pairs (each name's pieces are at least 3 bytes
    // at t = 0.2, except the 5-byte name's, which is not in the set).
    let nti = NtiAnalyzer::new(NtiConfig::default());
    let skipped: usize = pairs
        .iter()
        .filter(|(inputs, q)| !q.contains('#') && !q.contains(inputs[0].as_str()))
        .map(|(inputs, q)| nti.analyze(&[inputs[0].as_str()], q).comparisons_skipped)
        .sum();
    assert_eq!(skipped, absent);
}

/// Apostrophe-dense comment bodies under magic quotes: every `'` reaches
/// the query as `\'`, so the body is not there verbatim, and both the
/// bounded scan and span recovery run over the whole body.
#[test]
fn kernels_agree_on_escaped_apostrophe_comments() {
    let unit = "it's the author's dog's bone, isn't it? ";
    let pairs: Vec<Pair> = [512usize, 2048, 8192]
        .into_iter()
        .map(|len| {
            let body: String = unit.chars().cycle().take(len).collect();
            let escaped = body.replace('\'', "\\'");
            let query = format!(
                "INSERT INTO wp_comments (comment_post_ID, comment_author, comment_content) \
                 VALUES (7, 'visitor7', '{escaped}')"
            );
            (vec!["7".to_string(), "visitor7".to_string(), body], query)
        })
        .collect();
    assert_eq!(assert_kernels_agree(&pairs), 0, "escaped comments are benign");
    let nti = NtiAnalyzer::new(NtiConfig::default());
    for (inputs, query) in &pairs {
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let r = nti.analyze(&refs, query);
        let quotes = inputs[2].matches('\'').count();
        let at = query.find("'it").expect("the body is embedded") + 1;
        assert!(
            r.markings.iter().any(|m| (m.input_index, m.start, m.distance) == (2, at, quotes)),
            "the body must be marked at its escaped copy: {:?}",
            r.markings
        );
    }
}
