//! Audit an application's PTI attack surface (the paper's Table III).
//!
//! PTI's security is application-dependent: the extracted fragment
//! vocabulary is exactly the set of building blocks an attacker may reuse.
//! This example extracts the vocabulary from the simulated WordPress
//! testbed, reports which dangerous tokens it exposes, and then renders
//! per-token coverage for a benign query and an injected one — the +/-
//! markings of the paper's Figures 2 and 3.
//!
//! ```text
//! cargo run --example fragment_audit
//! ```

use joza::lab::build_lab;
use joza::phpsim::fragments::FragmentSet;
use joza::pti::analyzer::{PtiAnalyzer, PtiConfig};
use joza::sqlparse::critical::{critical_tokens, CriticalPolicy};
use joza::sqlparse::lexer::lex;

fn coverage_line(analyzer: &PtiAnalyzer, query: &str) {
    let report = analyzer.analyze(query);
    let tokens = lex(query);
    let criticals = critical_tokens(&tokens, CriticalPolicy::default());
    println!("  {query}");
    // Render a marker row: '+' under covered critical tokens, '^' under
    // uncovered ones (attack evidence).
    let mut row = vec![b' '; query.len()];
    for c in &criticals {
        let covered = !report.uncovered_critical.iter().any(|u| u.start == c.start);
        let mark = if covered { b'+' } else { b'^' };
        row[c.start..c.end].fill(mark);
    }
    println!("  {}", String::from_utf8(row).expect("ascii markers"));
    println!(
        "  -> {} critical tokens, {} uncovered, verdict: {}\n",
        report.critical_count,
        report.uncovered_critical.len(),
        if report.is_attack() { "ATTACK" } else { "safe" }
    );
}

fn main() {
    let lab = build_lab();
    let mut set = FragmentSet::new();
    for src in lab.server.app.all_sources() {
        set.add_source(src);
    }
    println!("fragment vocabulary: {} fragments\n", set.len());

    // Table III: dangerous tokens available to an attacker as fragments.
    println!("== dangerous vocabulary (the PTI attack surface) ==");
    for needle in [
        "UNION", "AND", "OR", "SELECT", "CHAR", "#", "\"", "'", "`", "GROUP BY", "ORDER BY",
        "CAST", "WHERE 1",
    ] {
        let available = set.iter().any(|f| f.contains(needle));
        println!("  {:10} {}", needle, if available { "available" } else { "absent" });
    }

    // Shortest fragments are the most combinable — audit them.
    let mut shortest: Vec<&str> = set.iter().collect();
    shortest.sort_by_key(|f| (f.len(), f.to_string()));
    println!("\n== 15 shortest fragments ==");
    for f in shortest.iter().take(15) {
        println!("  {f:?}");
    }

    // Per-query coverage, Figure 2/3 style.
    let analyzer = PtiAnalyzer::from_fragments(set.iter(), PtiConfig::default());
    println!("\n== coverage: benign query ==");
    coverage_line(
        &analyzer,
        "SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1",
    );
    println!("== coverage: injected query ==");
    coverage_line(
        &analyzer,
        "SELECT * FROM wp_posts WHERE ID = -1 UNION SELECT user_pass FROM wp_users",
    );
}
