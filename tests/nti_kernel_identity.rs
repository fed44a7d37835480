//! The two NTI matching kernels must produce identical full reports
//! (markings, spans, distances, tainted criticals): BitParallel
//! (Myers/Hyyrö, verbatim-first) is a pure optimization of Classic
//! (Sellers). Checked on two workloads:
//!
//! * every lab plugin and CMS case served ungated with its exploit and
//!   its benign request — the (inputs, query) pairs the gate really sees;
//! * synthetic multi-kilobyte queries (large `IN`-lists) embedding
//!   payload-like inputs after an app transformation, including inputs
//!   longer than one 64-bit Myers block;
//! * the comment posts of the benchmark's gate-dynamic workload: a
//!   quote-free 1-4 KB body found verbatim in every query of the
//!   post-comment route, and a 9-byte author that the duplicate check's
//!   query lacks.

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
        // The post id is too short to compare; the author's q-gram bound
        // cannot prune it, so it is compared even where it is absent.
        assert_eq!((r.comparisons_run, r.comparisons_skipped), (2, 0));
    }
}
