//! The taint pass: the static passes' one walker (`absint`) over the taint
//! lattice.
//!
//! The variable environment maps names to [`AbstractVal`]s; arrays are
//! smashed (one abstract value per variable, indices joined in — written
//! *keys* included, since array keys are an injection channel). Branch
//! joins keep the worse side, so a sanitizer inside only one `if` arm
//! never clears taint after the `if`; loops iterate to a fixpoint on
//! (taint, provenance), with traces bounded separately.

use crate::absint::{self, Domain};
use crate::lattice::{AbstractVal, Taint};
use crate::summaries::{effect_of, is_sink, Effect};
use joza_phpsim::ast::{Expr, Stmt};
use joza_phpsim::parser::{parse_program_spanned, PhpParseError};
use joza_phpsim::span::Span;
use joza_phpsim::value::PValue;
use joza_webapp::app::{Plugin, WebApp};
use std::collections::BTreeMap;

/// Analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct AnalyzerConfig {
    /// When true, the framework escapes request parameters and cookies
    /// before plugin code runs (WordPress magic quotes), so their reads
    /// start at `MaybeTainted` instead of `Tainted`; `stripslashes`-style
    /// decodes restore them to `Tainted`. Headers (`$_SERVER`) are never
    /// escaped and always read `Tainted`.
    pub input_escaped: bool,
    /// DB-sourced taint: sink call sites (by preorder statement id) whose
    /// *result handles* carry attacker-reachable stored data. The handle
    /// returned at such a site is `Tainted` with the given `db:<cell>`
    /// source labels, and row fetches propagate it onward. Empty for
    /// plain first-order analysis; `crate::storeflow` fills it in from
    /// the cross-route store/load fixpoint. Magic quotes do *not*
    /// downgrade these sources: the framework escapes request input, but
    /// values read back from the database are raw (SQL parsing already
    /// unescaped them on the way in).
    pub db_sources: BTreeMap<usize, Vec<String>>,
}

/// One statically-inferred source→sink flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Endpoint (route slug / file label) the flow is in.
    pub endpoint: String,
    /// Preorder statement id of the sink call.
    pub stmt_id: usize,
    /// Byte span of the sink statement.
    pub span: Span,
    /// 1-based source line of the sink statement.
    pub line: usize,
    /// Sink builtin name (`mysql_query`, …).
    pub sink: String,
    /// Worst taint reaching the sink.
    pub taint: Taint,
    /// Request parameters that can reach the sink (sorted).
    pub sources: Vec<String>,
    /// Bounded source→sink hop trace.
    pub trace: Vec<String>,
    /// First line of the sink statement's source text (trimmed).
    pub snippet: String,
}

/// Per-endpoint result: the gate fast-path contract plus findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSummary {
    /// Endpoint (route slug) analyzed.
    pub endpoint: String,
    /// True iff every DB sink in the endpoint receives only `Untainted`
    /// data (and the source parsed). Endpoints with no sinks are
    /// taint-free. This is the *only* condition under which the engine's
    /// static fast-path stage may skip the dynamic detectors.
    pub taint_free: bool,
    /// Number of distinct sink call sites seen.
    pub sink_count: usize,
    /// Sink sites whose taint exceeds `Untainted`, sorted by
    /// (endpoint, span.lo, sink) for deterministic output.
    pub findings: Vec<Finding>,
    /// Parse failure, if any (conservatively not taint-free).
    pub parse_error: Option<String>,
}

/// Analyzes one endpoint's source text.
pub fn analyze_source(endpoint: &str, src: &str, config: &AnalyzerConfig) -> TaintSummary {
    match parse_program_spanned(src) {
        Ok((prog, spans)) => analyze_program(endpoint, src, &prog, &spans, config),
        Err(e) => unparsable(endpoint, &e),
    }
}

/// [`analyze_source`] on a route of `app`, from the route's cached parse.
pub(crate) fn analyze_plugin(
    app: &WebApp,
    plugin: &Plugin,
    config: &AnalyzerConfig,
) -> TaintSummary {
    match app.parsed(&plugin.name) {
        Ok(p) => analyze_program(&plugin.name, &plugin.source, &p.program, &p.spans, config),
        Err(e) => unparsable(&plugin.name, &e),
    }
}

/// Unparsable source cannot be proven taint-free.
fn unparsable(endpoint: &str, e: &PhpParseError) -> TaintSummary {
    TaintSummary {
        endpoint: endpoint.to_string(),
        taint_free: false,
        sink_count: 0,
        findings: Vec::new(),
        parse_error: Some(e.to_string()),
    }
}

/// Analyzes a parsed endpoint: `spans` is the program's statement span
/// table into `src`.
fn analyze_program(
    endpoint: &str,
    src: &str,
    prog: &[Stmt],
    spans: &[Span],
    config: &AnalyzerConfig,
) -> TaintSummary {
    let taints = absint::run(Taints { endpoint, src, spans, config, sinks: BTreeMap::new() }, prog);
    let sink_count = taints.sinks.len();
    let mut findings: Vec<Finding> =
        taints.sinks.into_values().filter(|f| f.taint > Taint::Untainted).collect();
    findings.sort_by(|a, b| {
        (a.endpoint.as_str(), a.span.lo, a.sink.as_str()).cmp(&(
            b.endpoint.as_str(),
            b.span.lo,
            b.sink.as_str(),
        ))
    });
    TaintSummary {
        endpoint: endpoint.to_string(),
        taint_free: findings.is_empty(),
        sink_count,
        findings,
        parse_error: None,
    }
}

/// The taint domain: request reads are sources, `summaries::effect_of`
/// classifies builtins, and every sink call site keeps the join of what
/// reaches it.
struct Taints<'a> {
    endpoint: &'a str,
    src: &'a str,
    spans: &'a [Span],
    config: &'a AnalyzerConfig,
    /// All sink call sites keyed by (stmt id, sink name); re-visits from
    /// loop passes join in.
    sinks: BTreeMap<(usize, String), Finding>,
}

impl Domain for Taints<'_> {
    type Val = AbstractVal;

    fn lit(&self, _: &PValue) -> AbstractVal {
        AbstractVal::untainted()
    }

    fn text(&self, _: &str) -> AbstractVal {
        AbstractVal::untainted()
    }

    /// Arithmetic, comparisons and coercions leave no attacker bytes.
    fn scalar(&self) -> AbstractVal {
        AbstractVal::untainted()
    }

    fn concat(&self, a: &AbstractVal, b: &AbstractVal) -> AbstractVal {
        a.join(b)
    }

    fn join(&self, a: &AbstractVal, b: &AbstractVal) -> AbstractVal {
        a.join(b)
    }

    /// Magic quotes escape request parameters and cookies, so under
    /// `input_escaped` their reads start `MaybeTainted`; headers
    /// (`$_SERVER`) reach the program raw.
    fn source(&self, superglobal: &str, index: Option<&Expr>) -> AbstractVal {
        let label = match index {
            // A bare `$_GET` read taints with an unknown parameter.
            None => format!("${superglobal}[*]"),
            Some(Expr::Lit(PValue::Str(s))) => format!("${superglobal}['{s}']"),
            Some(Expr::Lit(PValue::Int(i))) => format!("${superglobal}[{i}]"),
            Some(_) => format!("${superglobal}[?]"),
        };
        let taint = if self.config.input_escaped && superglobal != "_SERVER" {
            Taint::MaybeTainted
        } else {
            Taint::Tainted
        };
        AbstractVal::source(&label, taint)
    }

    /// Reading a tainted index out of an untainted array yields untainted
    /// data; only the array's own taint flows out.
    fn element(&self, array: AbstractVal) -> AbstractVal {
        array
    }

    /// Smashed arrays: keys carry the array's taint (array *keys* are the
    /// CVE-2014-3704 channel).
    fn key(&self, array: &AbstractVal) -> AbstractVal {
        array.clone()
    }

    /// The join of every key and value (keys matter: CVE-2014-3704).
    fn array(&self, items: Vec<(Option<AbstractVal>, AbstractVal)>) -> AbstractVal {
        let mut out = AbstractVal::untainted();
        for (k, v) in &items {
            if let Some(k) = k {
                out = out.join(k);
            }
            out = out.join(v);
        }
        out
    }

    /// The written *key* taints the array too: foreach reads keys back
    /// out of the smashed value.
    fn keyed(&self, val: AbstractVal, keys: Vec<AbstractVal>) -> AbstractVal {
        val.join(&keys.iter().fold(AbstractVal::untainted(), |acc, k| acc.join(k)))
    }

    fn call(&mut self, id: usize, _: &Expr, name: &str, args: Vec<AbstractVal>) -> AbstractVal {
        let joined = args.iter().fold(AbstractVal::untainted(), |acc, v| acc.join(v));
        if is_sink(name) {
            self.record_sink(id, name, &joined);
            if let Some(cells) = self.config.db_sources.get(&id) {
                // This sink's result handle reads attacker-reachable
                // cells: the handle is tainted with db-cell provenance
                // (fetches propagate it to every row value).
                let mut v = AbstractVal::untainted();
                for cell in cells {
                    v = v.join(&AbstractVal::source(cell, Taint::Tainted));
                }
                v.push_hop(&format!("{}()", name.to_ascii_lowercase()));
                return v;
            }
        }
        let restamp = |mut v: AbstractVal, taint| {
            if v.taint == Taint::Untainted {
                return AbstractVal::untainted();
            }
            v.taint = taint;
            v.push_hop(&format!("{}()", name.to_ascii_lowercase()));
            v
        };
        match effect_of(name) {
            Effect::Propagate => joined,
            Effect::Escape => restamp(joined, Taint::MaybeTainted),
            Effect::Sanitize | Effect::Fresh => AbstractVal::untainted(),
            Effect::Unescape => restamp(joined, Taint::Tainted),
        }
    }

    fn named(&self, mut val: AbstractVal, var: &str) -> AbstractVal {
        if val.taint != Taint::Untainted {
            val.push_hop(&format!("${var}"));
        }
        val
    }

    fn widen(&self, old: &AbstractVal, new: &AbstractVal) -> AbstractVal {
        old.join(new)
    }

    /// Traces are ignored: the fixpoint must not depend on them.
    fn stable(&self, old: &AbstractVal, new: &AbstractVal) -> bool {
        old.same_abstract(new)
    }

    fn top(&self, mut val: AbstractVal) -> AbstractVal {
        val.taint = Taint::Tainted;
        val
    }
}

impl Taints<'_> {
    fn record_sink(&mut self, stmt_id: usize, sink: &str, val: &AbstractVal) {
        let sink = sink.to_ascii_lowercase();
        let span = self.spans.get(stmt_id).copied().unwrap_or_default();
        let entry = self.sinks.entry((stmt_id, sink.clone())).or_insert_with(|| Finding {
            endpoint: self.endpoint.to_string(),
            stmt_id,
            span,
            line: span.line(self.src),
            sink,
            taint: Taint::Untainted,
            sources: Vec::new(),
            trace: Vec::new(),
            snippet: snippet(span.slice(self.src)),
        });
        if val.taint > entry.taint
            || (val.taint == entry.taint && entry.trace.is_empty() && !val.trace.is_empty())
        {
            entry.trace = val.trace.clone();
        }
        entry.taint = entry.taint.join(val.taint);
        for s in &val.sources {
            if !entry.sources.contains(s) {
                entry.sources.push(s.clone());
            }
        }
        entry.sources.sort();
    }
}

fn snippet(stmt_text: &str) -> String {
    let first = stmt_text.lines().next().unwrap_or("").trim();
    if first.chars().count() > 72 {
        let cut: String = first.chars().take(71).collect();
        format!("{cut}…")
    } else {
        first.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> TaintSummary {
        analyze_source("test", src, &AnalyzerConfig::default())
    }

    fn analyze_escaped(src: &str) -> TaintSummary {
        analyze_source(
            "test",
            src,
            &AnalyzerConfig { input_escaped: true, ..AnalyzerConfig::default() },
        )
    }

    #[test]
    fn direct_flow_is_tainted() {
        let s = analyze(
            r#"
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.sink_count, 1);
        assert_eq!(s.findings.len(), 1);
        let f = &s.findings[0];
        assert_eq!(f.taint, Taint::Tainted);
        assert_eq!(f.sources, vec!["$_GET['id']".to_string()]);
        assert_eq!(f.trace, vec!["$_GET['id']".to_string(), "$id".to_string()]);
        assert!(f.snippet.contains("mysql_query"));
        assert_eq!(f.line, 3);
    }

    #[test]
    fn escaped_then_concatenated_is_maybe_tainted() {
        let s = analyze(
            r#"
            $name = mysql_real_escape_string($_POST['name']);
            $q = "SELECT * FROM u WHERE name='" . $name . "'";
            mysql_query($q);
        "#,
        );
        assert!(!s.taint_free, "escaped input still reaches the sink");
        assert_eq!(s.findings[0].taint, Taint::MaybeTainted);
        assert_eq!(s.findings[0].sources, vec!["$_POST['name']".to_string()]);
    }

    #[test]
    fn int_cast_is_untainted() {
        let s = analyze(
            r#"
            $id = intval($_GET['id']);
            mysql_query("SELECT * FROM t WHERE id=$id LIMIT 1");
        "#,
        );
        assert!(s.taint_free);
        assert_eq!(s.sink_count, 1);
        assert!(s.findings.is_empty());
    }

    #[test]
    fn sanitizer_in_one_branch_does_not_clear_taint_at_join() {
        let s = analyze(
            r#"
            $id = $_GET['id'];
            if ($mode) {
                $id = intval($id);
            }
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(!s.taint_free, "the else path still carries raw input");
        assert_eq!(s.findings[0].taint, Taint::Tainted);
    }

    #[test]
    fn sanitizer_on_both_branches_clears_taint() {
        let s = analyze(
            r#"
            $id = $_GET['id'];
            if ($mode) {
                $id = intval($id);
            } else {
                $id = 0;
            }
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(s.taint_free);
    }

    #[test]
    fn magic_quotes_inputs_start_maybe_then_stripslashes_restores() {
        let escaped = analyze_escaped(
            r#"
            $v = $_GET['v'];
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert_eq!(escaped.findings[0].taint, Taint::MaybeTainted);

        let stripped = analyze_escaped(
            r#"
            $v = stripslashes($_GET['v']);
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert_eq!(stripped.findings[0].taint, Taint::Tainted);

        let decoded = analyze_escaped(
            r#"
            $v = base64_decode($_POST['payload']);
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert_eq!(decoded.findings[0].taint, Taint::Tainted, "decode reverses escaping");
    }

    #[test]
    fn concat_assign_accumulates_taint() {
        let s = analyze(
            r#"
            $q = "SELECT * FROM t WHERE 1=1";
            $q .= " AND name='" . $_GET['name'] . "'";
            mysql_query($q);
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].sources, vec!["$_GET['name']".to_string()]);
    }

    #[test]
    fn arithmetic_coerces_taint_away() {
        let s = analyze(
            r#"
            $n = $_GET['n'] + 0;
            $m = $_GET['m'];
            $m += 5;
            mysql_query("SELECT * FROM t LIMIT $n OFFSET $m");
        "#,
        );
        assert!(s.taint_free);
    }

    #[test]
    fn while_loop_reaches_fixpoint_and_finds_flow() {
        let s = analyze(
            r#"
            $q = "SELECT * FROM t WHERE 1=1";
            $i = 0;
            while ($i < 3) {
                $q .= " OR name='" . $_GET['name'] . "'";
                $i += 1;
            }
            mysql_query($q);
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].taint, Taint::Tainted);
    }

    #[test]
    fn foreach_array_keys_carry_taint() {
        // The CVE-2014-3704 shape: attacker-controlled array *keys* are
        // spliced into the query text.
        let s = analyze(
            r#"
            $ids = $_POST['ids'];
            $frag = '';
            foreach ($ids as $k => $v) {
                $frag .= $k . ",";
            }
            db_query("SELECT * FROM users WHERE id IN ($frag)");
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].sink, "db_query");
        assert_eq!(s.findings[0].sources, vec!["$_POST['ids']".to_string()]);
    }

    #[test]
    fn db_query_array_argument_is_a_sink_channel() {
        let s = analyze(
            r#"
            $ids = $_GET['ids'];
            db_query("SELECT * FROM users WHERE uid IN (:ids)", array(':ids' => $ids));
        "#,
        );
        assert!(!s.taint_free);
    }

    #[test]
    fn no_sinks_means_taint_free() {
        let s = analyze("$x = $_GET['x']; echo $x;");
        assert!(s.taint_free);
        assert_eq!(s.sink_count, 0);
    }

    #[test]
    fn parse_error_is_conservative() {
        let s = analyze("$x = ;");
        assert!(!s.taint_free);
        assert!(s.parse_error.is_some());
    }

    #[test]
    fn findings_sorted_by_span_then_sink() {
        let s = analyze(
            r#"
            $a = $_GET['a'];
            mysql_query("SELECT 1 WHERE x='$a'");
            mysqli_query($c, "SELECT 2 WHERE y='$a'");
        "#,
        );
        assert_eq!(s.findings.len(), 2);
        assert!(s.findings[0].span.lo < s.findings[1].span.lo);
        assert_eq!(s.findings[0].sink, "mysql_query");
        assert_eq!(s.findings[1].sink, "mysqli_query");
    }

    #[test]
    fn ternary_and_isset_guard_still_taints() {
        let s = analyze(
            r#"
            $id = isset($_GET['id']) ? $_GET['id'] : 0;
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].sources, vec!["$_GET['id']".to_string()]);
    }

    #[test]
    fn string_builders_carry_taint_to_sinks() {
        // Soundness for the querymodel agreement: every construction the
        // structural pass summarizes must still flow taint here.
        let sprintf = analyze(
            r#"
            $q = sprintf("SELECT * FROM t WHERE name='%s'", $_GET['name']);
            mysql_query($q);
        "#,
        );
        assert!(!sprintf.taint_free, "sprintf embeds its arguments verbatim");

        let implode = analyze(
            r#"
            $ids = $_GET['ids'];
            $list = implode(",", $ids);
            mysql_query("SELECT * FROM t WHERE id IN ($list)");
        "#,
        );
        assert!(!implode.taint_free, "implode splices elements unescaped");

        let replaced = analyze(
            r#"
            $v = str_replace("x", "y", $_POST['v']);
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert!(!replaced.taint_free, "str_replace is not a sanitizer");
    }

    #[test]
    fn fetch_results_are_trusted() {
        // Under the plain first-order config no sink site is a DB taint
        // source, so the result handle is Fresh and fetches propagate
        // nothing. `storeflow` re-runs this same analysis with
        // `db_sources` filled in when the read cells are dirty.
        let s = analyze(
            r#"
            $r = mysql_query("SELECT id FROM t");
            while ($row = mysql_fetch_assoc($r)) {
                mysql_query("SELECT * FROM u WHERE id=" . $row);
            }
        "#,
        );
        assert!(s.taint_free, "first-order analysis trusts fetch results");
        assert_eq!(s.sink_count, 2);
    }

    #[test]
    fn db_sources_taint_fetched_rows_to_downstream_sinks() {
        let src = r#"
            $r = mysql_query("SELECT id FROM t");
            while ($row = mysql_fetch_assoc($r)) {
                mysql_query("SELECT * FROM u WHERE id=" . $row);
            }
        "#;
        // The load is the first statement → preorder id 0.
        let mut db_sources = BTreeMap::new();
        db_sources.insert(0usize, vec!["db:t.id".to_string()]);
        let s = analyze_source("test", src, &AnalyzerConfig { input_escaped: false, db_sources });
        assert!(!s.taint_free, "dirty-cell reads re-introduce taint");
        assert_eq!(s.findings.len(), 1);
        let f = &s.findings[0];
        assert_eq!(f.taint, Taint::Tainted);
        assert_eq!(f.sources, vec!["db:t.id".to_string()]);
        assert!(f.snippet.contains("FROM u"), "the downstream sink is the finding");
    }

    #[test]
    fn db_sources_are_not_downgraded_by_magic_quotes() {
        // Stored values are raw: the framework's input escaping already
        // happened (and was undone by SQL parsing) on the *plant* request.
        let src = r#"
            $r = mysql_query("SELECT bio FROM profiles WHERE id=1");
            $row = mysql_fetch_row($r);
            mysql_query("SELECT * FROM posts WHERE author='" . $row . "'");
        "#;
        let mut db_sources = BTreeMap::new();
        db_sources.insert(0usize, vec!["db:profiles.bio".to_string()]);
        let s = analyze_source("test", src, &AnalyzerConfig { input_escaped: true, db_sources });
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].taint, Taint::Tainted);
    }
}
