//! Deterministic text rendering of analysis results, shared by the
//! `paper` binary's `sast-findings` section and the snapshot tests.

use crate::analyzer::{Finding, TaintSummary};

/// Renders one finding as a stable two-line record.
pub fn render_finding(f: &Finding) -> String {
    let sources = if f.sources.is_empty() { "<none>".to_string() } else { f.sources.join(", ") };
    let trace = if f.trace.is_empty() { "<direct>".to_string() } else { f.trace.join(" -> ") };
    format!(
        "  [line {:>3}, span {}] {}({}) <- {}\n      flow: {}\n      stmt: {}",
        f.line,
        f.span,
        f.sink,
        f.taint.label(),
        sources,
        trace,
        f.snippet,
    )
}

/// Renders a whole endpoint summary (header plus findings, sorted as the
/// analyzer emitted them).
pub fn render_summary(s: &TaintSummary) -> String {
    let mut out = String::new();
    let verdict = if let Some(e) = &s.parse_error {
        format!("parse error ({e})")
    } else if s.taint_free {
        "taint-free".to_string()
    } else {
        format!("{} tainted flow(s)", s.findings.len())
    };
    out.push_str(&format!("endpoint {}: {} sink(s), {}\n", s.endpoint, s.sink_count, verdict));
    for f in &s.findings {
        out.push_str(&render_finding(f));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::analyzer::{analyze_source, AnalyzerConfig};

    #[test]
    fn rendering_is_deterministic() {
        let src = r#"
            $a = $_GET['a'];
            $b = $_POST['b'];
            mysql_query("SELECT * FROM t WHERE x='$a' AND y='$b'");
        "#;
        let s = analyze_source("demo", src, &AnalyzerConfig::default());
        let r1 = super::render_summary(&s);
        let r2 = super::render_summary(&analyze_source("demo", src, &AnalyzerConfig::default()));
        assert_eq!(r1, r2);
        assert!(r1.contains("endpoint demo: 1 sink(s), 1 tainted flow(s)"));
        assert!(r1.contains("$_GET['a'], $_POST['b']"));
    }
}
