//! Static query-model inference: an abstract interpretation over phpsim
//! ASTs with a **string-construction domain**, producing per-sink
//! [`QueryTemplate`]s for `joza_sqlparse::template`'s skeleton automata.
//!
//! Where the taint pass ([`crate::analyzer`]) asks *"can attacker bytes
//! reach this sink?"*, this pass asks the SQLBlock/ASSIST question:
//! *"what query **shapes** can this sink emit at all?"*. The domain
//! tracks, per variable, a bounded set of templates built from:
//!
//! * [`TemplatePart::Lit`] — statically known text;
//! * [`TemplatePart::Hole`] — any dynamic scalar (request input, DB fetch
//!   result, cast/escape output). A hole claims nothing about taint —
//!   only that, if the runtime query is to match the model, the value
//!   must occupy exactly one SQL data literal;
//! * [`TemplatePart::Rep`] — loop-appended fragments, introduced by
//!   widening `old ++ δ` to `old ++ Rep(δ)` so `.=` loops reach a
//!   fixpoint (a bounded regular over-approximation of the loop).
//!
//! Sets are capped (`MAX_TEMPLATES`); anything beyond the cap, any
//! unknown builtin, and any construction the widening cannot express
//! collapses to ⊤. A ⊤ sink site leaves the whole endpoint model
//! *incomplete* — the gate then keeps the fast path off the table for
//! mismatches (no anomaly signal) but still uses whatever templates did
//! compile. The pass is a domain of the walker (`absint`) the taint pass
//! also runs on, so both agree on which call sites exist and how they
//! are numbered.

use crate::absint::{self, Domain};
use crate::summaries::{effect_of, is_sink, Effect};
use joza_phpsim::ast::{Expr, Stmt};
use joza_phpsim::parser::parse_program;
use joza_phpsim::value::PValue;
use joza_sqlparse::template::{QueryModelIndex, QueryTemplate, RouteModel, TemplatePart};
use joza_webapp::app::{Plugin, WebApp};
use std::collections::{BTreeMap, BTreeSet};

/// Cap on the template set per abstract value; beyond this the value is ⊤.
const MAX_TEMPLATES: usize = 8;
/// Cap on parts per template; beyond this the value is ⊤.
const MAX_PARTS: usize = 64;
/// Cap on templates recorded per sink site (loop revisits accumulate).
const MAX_SITE_TEMPLATES: usize = 16;

/// The inferred model for one sink call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteModel {
    /// Preorder statement id of the sink call (same numbering as
    /// [`crate::Finding::stmt_id`]).
    pub stmt_id: usize,
    /// Sink builtin name, lowercased.
    pub sink: String,
    /// The legal query templates, or `None` when the construction is ⊤.
    pub templates: Option<Vec<QueryTemplate>>,
}

/// Per-endpoint inference result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointModel {
    /// Endpoint (route slug) analyzed.
    pub endpoint: String,
    /// Sink sites in (stmt id, sink) order.
    pub sites: Vec<SiteModel>,
    /// True when the source failed to parse (model unusable).
    pub parse_error: bool,
}

impl EndpointModel {
    /// Compiles this endpoint's sites into a [`RouteModel`].
    pub fn compile(&self) -> RouteModel {
        if self.parse_error {
            return RouteModel::default();
        }
        let sites: Vec<Option<Vec<QueryTemplate>>> =
            self.sites.iter().map(|s| s.templates.clone()).collect();
        RouteModel::build(&sites)
    }
}

/// Infers the query model for one endpoint's source text.
pub fn infer_source(endpoint: &str, src: &str) -> EndpointModel {
    match parse_program(src) {
        Ok(prog) => infer_program(endpoint, &prog),
        Err(_) => unparsable(endpoint),
    }
}

/// [`infer_source`] on a route of `app`, from the route's cached parse.
pub(crate) fn infer_plugin(app: &WebApp, plugin: &Plugin) -> EndpointModel {
    match app.program(&plugin.name) {
        Ok(prog) => infer_program(&plugin.name, prog),
        Err(_) => unparsable(&plugin.name),
    }
}

fn unparsable(endpoint: &str) -> EndpointModel {
    EndpointModel { endpoint: endpoint.to_string(), sites: Vec::new(), parse_error: true }
}

/// Infers the query model of a parsed endpoint.
pub(crate) fn infer_program(endpoint: &str, prog: &[Stmt]) -> EndpointModel {
    let sites = absint::run(Models { sinks: BTreeMap::new() }, prog)
        .sinks
        .into_iter()
        .map(|((stmt_id, sink), sval)| SiteModel {
            stmt_id,
            sink,
            templates: match sval {
                SVal::Top => None,
                SVal::T(set) => {
                    Some(set.into_iter().map(|parts| QueryTemplate { parts }).collect())
                }
            },
        })
        .collect();
    EndpointModel { endpoint: endpoint.to_string(), sites, parse_error: false }
}

/// Infers and compiles query models for every routable endpoint of a web
/// application — the [`QueryModelIndex`] `joza_core::JozaBuilder`
/// consumes.
pub fn app_query_models(app: &WebApp) -> QueryModelIndex {
    let mut index = QueryModelIndex::new();
    for p in app.plugins() {
        index.insert(&p.name, infer_plugin(app, p).compile());
    }
    index
}

// ---------------------------------------------------------------------
// The abstract domain.
// ---------------------------------------------------------------------

/// A bounded set of string templates, or ⊤.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SVal {
    T(BTreeSet<Vec<TemplatePart>>),
    Top,
}

impl SVal {
    fn lit(s: &str) -> SVal {
        if s.is_empty() {
            SVal::T(BTreeSet::from([vec![]]))
        } else {
            SVal::T(BTreeSet::from([vec![TemplatePart::Lit(s.to_string())]]))
        }
    }

    fn hole() -> SVal {
        SVal::T(BTreeSet::from([vec![TemplatePart::Hole]]))
    }

    fn empty() -> SVal {
        SVal::T(BTreeSet::from([vec![]]))
    }

    fn capped(set: BTreeSet<Vec<TemplatePart>>) -> SVal {
        if set.len() > MAX_TEMPLATES || set.iter().any(|t| t.len() > MAX_PARTS) {
            SVal::Top
        } else {
            SVal::T(set)
        }
    }

    fn concat(&self, other: &SVal) -> SVal {
        match (self, other) {
            (SVal::T(a), SVal::T(b)) => {
                let mut out = BTreeSet::new();
                for pa in a {
                    for pb in b {
                        let mut parts = pa.clone();
                        parts.extend(pb.iter().cloned());
                        out.insert(normalize(parts));
                    }
                }
                SVal::capped(out)
            }
            _ => SVal::Top,
        }
    }

    fn join(&self, other: &SVal) -> SVal {
        match (self, other) {
            (SVal::T(a), SVal::T(b)) => SVal::capped(a.union(b).cloned().collect()),
            _ => SVal::Top,
        }
    }

    /// True when every template is at most a single scalar — the shapes a
    /// scalar-transforming builtin (`trim`, `intval`, escapes…) maps back
    /// to a single dynamic scalar.
    fn scalarish(&self) -> bool {
        match self {
            SVal::Top => false,
            SVal::T(set) => {
                set.iter().all(|t| t.len() <= 1 && !matches!(t.first(), Some(TemplatePart::Rep(_))))
            }
        }
    }
}

impl Default for SVal {
    fn default() -> Self {
        SVal::empty()
    }
}

/// Merges adjacent `Lit`s, drops empty `Lit`s, and absorbs a `Rep(δ)`
/// immediately followed by δ back into the `Rep` — the normal form the
/// loop widening converges in.
fn normalize(parts: Vec<TemplatePart>) -> Vec<TemplatePart> {
    let mut merged: Vec<TemplatePart> = Vec::with_capacity(parts.len());
    for p in parts {
        match p {
            TemplatePart::Lit(s) if s.is_empty() => {}
            TemplatePart::Lit(s) => {
                if let Some(TemplatePart::Lit(prev)) = merged.last_mut() {
                    prev.push_str(&s);
                } else {
                    merged.push(TemplatePart::Lit(s));
                }
            }
            TemplatePart::Rep(body) => merged.push(TemplatePart::Rep(normalize(body))),
            other => merged.push(other),
        }
    }
    // Rep absorption: `Rep(δ) δ` ≡ `Rep(δ)` (one-or-more folds into
    // zero-or-more next to the original prefix, which the widening keeps).
    let mut out: Vec<TemplatePart> = Vec::with_capacity(merged.len());
    let mut i = 0;
    while i < merged.len() {
        out.push(merged[i].clone());
        if let TemplatePart::Rep(body) = &merged[i] {
            while merged.len() - (i + 1) >= body.len()
                && merged[i + 1..i + 1 + body.len()] == body[..]
            {
                i += body.len();
            }
        }
        i += 1;
    }
    out
}

/// `t` minus prefix `o`, allowing the boundary to split a `Lit`; `None`
/// when `o` is not a prefix of `t` or the remainder contains a `Rep`
/// (which would widen into a nested repetition).
fn strip_prefix(o: &[TemplatePart], t: &[TemplatePart]) -> Option<Vec<TemplatePart>> {
    let mut i = 0;
    while i < o.len() {
        match (o.get(i), t.get(i)) {
            (Some(a), Some(b)) if a == b => i += 1,
            (Some(TemplatePart::Lit(a)), Some(TemplatePart::Lit(b)))
                if i == o.len() - 1 && b.starts_with(a.as_str()) =>
            {
                let mut delta = vec![TemplatePart::Lit(b[a.len()..].to_string())];
                delta.extend(t[i + 1..].iter().cloned());
                let delta = normalize(delta);
                if contains_rep(&delta) {
                    return None;
                }
                return Some(delta);
            }
            _ => return None,
        }
    }
    let delta = normalize(t[i..].to_vec());
    if contains_rep(&delta) {
        return None;
    }
    Some(delta)
}

fn contains_rep(parts: &[TemplatePart]) -> bool {
    parts.iter().any(|p| matches!(p, TemplatePart::Rep(_)))
}

/// Loop widening: every template of `new` not already in `old` must be
/// `o ++ δ` for some `o ∈ old`; it is widened to `o ++ Rep(δ)`. Anything
/// else is ⊤.
fn widen(old: &SVal, new: &SVal) -> SVal {
    if old == new {
        return old.clone();
    }
    let (SVal::T(old_set), SVal::T(new_set)) = (old, new) else {
        return SVal::Top;
    };
    let mut out = old_set.clone();
    for t in new_set {
        if old_set.contains(t) {
            continue;
        }
        let mut widened = None;
        for o in old_set {
            if let Some(delta) = strip_prefix(o, t) {
                if delta.is_empty() {
                    widened = Some(o.clone());
                    break;
                }
                let mut w = o.clone();
                w.push(TemplatePart::Rep(delta));
                widened = Some(normalize(w));
                break;
            }
        }
        match widened {
            Some(w) => {
                out.insert(w);
            }
            None => return SVal::Top,
        }
    }
    SVal::capped(out)
}

/// The string-construction domain; sink sites keep the join of the
/// query templates reaching them.
struct Models {
    /// Sink sites keyed by (stmt id, sink name); loop re-visits join in.
    sinks: BTreeMap<(usize, String), SVal>,
}

impl Domain for Models {
    type Val = SVal;

    fn lit(&self, v: &PValue) -> SVal {
        match v {
            PValue::Str(s) => SVal::lit(s),
            PValue::Int(i) => SVal::lit(&i.to_string()),
            _ => SVal::lit(&v.to_php_string()),
        }
    }

    fn text(&self, s: &str) -> SVal {
        SVal::lit(s)
    }

    /// A number or bool is one data literal.
    fn scalar(&self) -> SVal {
        SVal::hole()
    }

    fn concat(&self, a: &SVal, b: &SVal) -> SVal {
        a.concat(b)
    }

    fn join(&self, a: &SVal, b: &SVal) -> SVal {
        a.join(b)
    }

    fn source(&self, _superglobal: &str, _index: Option<&Expr>) -> SVal {
        SVal::hole()
    }

    /// One element of a smashed value: scalar unless the array is a known
    /// set of scalars.
    fn element(&self, array: SVal) -> SVal {
        if array.scalarish() {
            array
        } else {
            SVal::hole()
        }
    }

    /// Keys are dynamic scalars (and the CVE-2014-3704 injection channel —
    /// a hole, never a literal).
    fn key(&self, _array: &SVal) -> SVal {
        SVal::hole()
    }

    /// The union of the element templates (what a foreach reads back out).
    fn array(&self, items: Vec<(Option<SVal>, SVal)>) -> SVal {
        let out = items.iter().fold(SVal::T(BTreeSet::new()), |acc, (_, v)| acc.join(v));
        if matches!(&out, SVal::T(s) if s.is_empty()) {
            SVal::empty()
        } else {
            out
        }
    }

    fn keyed(&self, val: SVal, _keys: Vec<SVal>) -> SVal {
        val
    }

    fn call(&mut self, stmt_id: usize, _: &Expr, name: &str, vals: Vec<SVal>) -> SVal {
        let lower = name.to_ascii_lowercase();
        if is_sink(&lower) {
            self.record_sink(stmt_id, &lower, &vals);
        }
        // A scalar-shaped input maps to one dynamic scalar.
        let rescalar = || {
            if vals.iter().fold(SVal::empty(), |acc, v| acc.join(v)).scalarish() {
                SVal::hole()
            } else {
                SVal::Top
            }
        };
        match lower.as_str() {
            // Structured string builders (`summaries::effect_of` keeps
            // them Propagate for the taint pass).
            "sprintf" | "vsprintf" => sprintf_model(vals.first()),
            "implode" | "join" => implode_model(&vals),
            "str_replace" => str_replace_model(&vals),
            // Propagating for taint, but shape-preserving on a scalar.
            "trim" | "strtolower" | "strtoupper" => rescalar(),
            // A row fetch reads one dynamic scalar per use.
            "mysql_fetch_assoc" | "mysql_fetch_array" | "mysql_fetch_row" | "mysql_result" => {
                SVal::hole()
            }
            _ => match effect_of(&lower) {
                // Casts, counts, clocks, sink handles, error strings and
                // side-effect-only calls.
                Effect::Sanitize | Effect::Fresh => SVal::hole(),
                Effect::Escape | Effect::Unescape => rescalar(),
                // Unknown builtins could build arbitrary SQL fragments: ⊤
                // keeps the endpoint model honest about completeness.
                Effect::Propagate => SVal::Top,
            },
        }
    }

    fn named(&self, val: SVal, _var: &str) -> SVal {
        val
    }

    /// The widening replaces the plain join so `.=` accumulation
    /// converges to a `Rep`-form fixpoint instead of growing forever.
    fn widen(&self, old: &SVal, new: &SVal) -> SVal {
        widen(old, new)
    }

    fn stable(&self, old: &SVal, new: &SVal) -> bool {
        old == new
    }

    fn top(&self, _val: SVal) -> SVal {
        SVal::Top
    }
}

impl Models {
    fn record_sink(&mut self, stmt_id: usize, sink: &str, vals: &[SVal]) {
        let query = match sink {
            // mysqli_query($link, $sql) — legacy 1-arg shape tolerated.
            "mysqli_query" if vals.len() >= 2 => vals[1].clone(),
            // db_query with an $args array goes through placeholder
            // expansion that splices *array keys* into the statement
            // text (CVE-2014-3704): not statically modelable.
            "db_query" if vals.len() >= 2 => SVal::Top,
            _ => vals.first().cloned().unwrap_or(SVal::Top),
        };
        let entry = self
            .sinks
            .entry((stmt_id, sink.to_string()))
            .or_insert_with(|| SVal::T(BTreeSet::new()));
        let joined = entry.join(&query);
        *entry = match joined {
            SVal::T(set) if set.len() > MAX_SITE_TEMPLATES => SVal::Top,
            other => other,
        };
    }
}

/// `sprintf(fmt, args…)`: when the format is one static literal, expand
/// each `%d`/`%s`/`%f`/`%u`/`%x` conversion to a hole (a conversion
/// always emits one scalar, whatever fed it) and `%%` to `%`; otherwise ⊤.
fn sprintf_model(fmt: Option<&SVal>) -> SVal {
    let Some(SVal::T(set)) = fmt else { return SVal::Top };
    if set.len() != 1 {
        return SVal::Top;
    }
    let parts = set.iter().next().expect("singleton");
    let fmt_str = match parts.as_slice() {
        [] => String::new(),
        [TemplatePart::Lit(s)] => s.clone(),
        _ => return SVal::Top,
    };
    let mut out = SVal::empty();
    let mut lit = String::new();
    let mut chars = fmt_str.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            lit.push(c);
            continue;
        }
        match chars.next() {
            Some('%') => lit.push('%'),
            Some('d' | 's' | 'f' | 'u' | 'x') => {
                out = out.concat(&SVal::lit(&lit));
                lit.clear();
                out = out.concat(&SVal::hole());
            }
            // Width/precision flags and exotic conversions: give up.
            _ => return SVal::Top,
        }
    }
    out.concat(&SVal::lit(&lit))
}

/// `implode(glue, array)`: with a static literal glue, the result is
/// either empty or `hole (glue hole)*`; otherwise ⊤.
fn implode_model(vals: &[SVal]) -> SVal {
    let glue = match vals.first() {
        Some(SVal::T(set)) if set.len() == 1 => {
            match set.iter().next().expect("singleton").as_slice() {
                [] => String::new(),
                [TemplatePart::Lit(s)] => s.clone(),
                _ => return SVal::Top,
            }
        }
        _ => return SVal::Top,
    };
    let mut rep_body = Vec::new();
    if !glue.is_empty() {
        rep_body.push(TemplatePart::Lit(glue));
    }
    rep_body.push(TemplatePart::Hole);
    SVal::T(BTreeSet::from([
        vec![],
        normalize(vec![TemplatePart::Hole, TemplatePart::Rep(rep_body)]),
    ]))
}

/// `str_replace(search, replace, subject)`: computed exactly when all
/// three are single static literals; a scalar subject stays one scalar;
/// anything else is ⊤.
fn str_replace_model(vals: &[SVal]) -> SVal {
    let as_lit = |v: Option<&SVal>| -> Option<String> {
        match v {
            Some(SVal::T(set)) if set.len() == 1 => {
                match set.iter().next().expect("singleton").as_slice() {
                    [] => Some(String::new()),
                    [TemplatePart::Lit(s)] => Some(s.clone()),
                    _ => None,
                }
            }
            _ => None,
        }
    };
    if let (Some(search), Some(replace), Some(subject)) =
        (as_lit(vals.first()), as_lit(vals.get(1)), as_lit(vals.get(2)))
    {
        if search.is_empty() {
            return SVal::lit(&subject);
        }
        return SVal::lit(&subject.replace(&search, &replace));
    }
    match vals.get(2) {
        Some(v) if v.scalarish() => SVal::hole(),
        _ => SVal::Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_sqlparse::template::TemplatePart::{Hole, Lit, Rep};

    fn infer(src: &str) -> EndpointModel {
        infer_source("test", src)
    }

    fn only_site(m: &EndpointModel) -> &SiteModel {
        assert_eq!(m.sites.len(), 1, "expected one sink site: {m:?}");
        &m.sites[0]
    }

    fn templates(m: &EndpointModel) -> Vec<Vec<TemplatePart>> {
        only_site(m)
            .templates
            .as_ref()
            .expect("site must be modeled")
            .iter()
            .map(|t| t.parts.clone())
            .collect()
    }

    #[test]
    fn constant_query_is_one_literal_template() {
        let m = infer(r#"mysql_query("SELECT * FROM posts ORDER BY date");"#);
        assert_eq!(templates(&m), vec![vec![Lit("SELECT * FROM posts ORDER BY date".into())]]);
    }

    #[test]
    fn request_input_becomes_a_hole() {
        let m = infer(
            r#"
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id=" . $id);
        "#,
        );
        assert_eq!(templates(&m), vec![vec![Lit("SELECT * FROM t WHERE id=".into()), Hole]]);
    }

    #[test]
    fn interpolation_and_sanitizers_are_holes() {
        let m = infer(
            r#"
            $id = intval($_GET['p']);
            mysql_query("SELECT * FROM posts WHERE ID=$id LIMIT 1");
        "#,
        );
        assert_eq!(
            templates(&m),
            vec![vec![Lit("SELECT * FROM posts WHERE ID=".into()), Hole, Lit(" LIMIT 1".into())]]
        );
    }

    #[test]
    fn branch_join_unions_templates() {
        let m = infer(
            r#"
            if ($x) { $q = "SELECT a FROM t"; } else { $q = "SELECT b FROM t"; }
            mysql_query($q);
        "#,
        );
        let ts = templates(&m);
        assert_eq!(ts.len(), 2);
        assert!(ts.contains(&vec![Lit("SELECT a FROM t".into())]));
        assert!(ts.contains(&vec![Lit("SELECT b FROM t".into())]));
    }

    #[test]
    fn concat_loop_widens_to_rep() {
        let m = infer(
            r#"
            $ids = $_POST['ids'];
            $frag = '';
            foreach ($ids as $k => $v) {
                $frag .= $k . ",";
            }
            db_query("SELECT * FROM users WHERE id IN ($frag" . "0)");
        "#,
        );
        let ts = templates(&m);
        // Zero iterations and the widened Rep form.
        assert!(ts.contains(&vec![Lit("SELECT * FROM users WHERE id IN (0)".into())]), "{ts:?}");
        assert!(
            ts.contains(&vec![
                Lit("SELECT * FROM users WHERE id IN (".into()),
                Rep(vec![Hole, Lit(",".into())]),
                Lit("0)".into()),
            ]),
            "{ts:?}"
        );
    }

    #[test]
    fn foreach_over_array_literal_unions_elements() {
        let m = infer(
            r#"
            foreach (array('siteurl', 'blogname') as $opt) {
                mysql_query("SELECT option_value FROM wp_options WHERE option_name='" . $opt . "'");
            }
        "#,
        );
        let ts = templates(&m);
        assert!(ts.contains(&vec![Lit(
            "SELECT option_value FROM wp_options WHERE option_name='siteurl'".into()
        )]));
        assert!(ts.contains(&vec![Lit(
            "SELECT option_value FROM wp_options WHERE option_name='blogname'".into()
        )]));
    }

    #[test]
    fn mysqli_query_uses_second_argument() {
        let m = infer(
            r#"
            $id = $_GET['id'];
            mysqli_query($link, "SELECT * FROM t WHERE id=" . $id);
        "#,
        );
        assert_eq!(templates(&m), vec![vec![Lit("SELECT * FROM t WHERE id=".into()), Hole]]);
    }

    #[test]
    fn db_query_with_args_array_is_top() {
        let m = infer(
            r#"
            $ids = $_GET['ids'];
            db_query("SELECT * FROM users WHERE uid IN (:ids)", array(':ids' => $ids));
        "#,
        );
        assert_eq!(only_site(&m).templates, None, "placeholder expansion is unmodelable");
    }

    #[test]
    fn unknown_builtin_is_top() {
        let m = infer(
            r#"
            $q = build_query_somehow($_GET['x']);
            mysql_query($q);
        "#,
        );
        assert_eq!(only_site(&m).templates, None);
    }

    #[test]
    fn sprintf_expands_conversions() {
        let m = infer(
            r#"
            $q = sprintf("SELECT * FROM t WHERE a=%d AND b='%s'", $_GET['a'], $_GET['b']);
            mysql_query($q);
        "#,
        );
        assert_eq!(
            templates(&m),
            vec![vec![
                Lit("SELECT * FROM t WHERE a=".into()),
                Hole,
                Lit(" AND b='".into()),
                Hole,
                Lit("'".into()),
            ]]
        );
    }

    #[test]
    fn implode_models_list_shapes() {
        let m = infer(
            r#"
            $list = implode(",", $_GET['ids']);
            mysql_query("SELECT * FROM t WHERE id IN (" . $list . ")");
        "#,
        );
        let ts = templates(&m);
        assert!(ts.contains(&vec![Lit("SELECT * FROM t WHERE id IN ()".into())]), "{ts:?}");
        assert!(
            ts.contains(&vec![
                Lit("SELECT * FROM t WHERE id IN (".into()),
                Hole,
                Rep(vec![Lit(",".into()), Hole]),
                Lit(")".into()),
            ]),
            "{ts:?}"
        );
    }

    #[test]
    fn str_replace_static_is_exact_dynamic_is_hole() {
        let exact = infer(
            r#"
            $t = str_replace("TBL", "wp_posts", "SELECT * FROM TBL");
            mysql_query($t);
        "#,
        );
        assert_eq!(templates(&exact), vec![vec![Lit("SELECT * FROM wp_posts".into())]]);

        let dynamic = infer(
            r#"
            $v = str_replace("x", "y", $_POST['v']);
            mysql_query("SELECT * FROM t WHERE v='" . $v . "'");
        "#,
        );
        assert_eq!(
            templates(&dynamic),
            vec![vec![Lit("SELECT * FROM t WHERE v='".into()), Hole, Lit("'".into())]]
        );
    }

    #[test]
    fn while_fetch_loop_keeps_model_bounded() {
        let m = infer(
            r#"
            $r = mysql_query("SELECT id FROM t");
            while ($row = mysql_fetch_assoc($r)) {
                mysql_query("SELECT * FROM u WHERE id=" . $row);
            }
        "#,
        );
        assert_eq!(m.sites.len(), 2);
        let inner = m.sites.iter().find(|s| s.stmt_id != 0).expect("loop sink");
        assert_eq!(
            inner.templates.as_ref().expect("modeled")[0].parts,
            vec![Lit("SELECT * FROM u WHERE id=".into()), Hole]
        );
    }

    #[test]
    fn parse_error_is_unmodeled() {
        let m = infer("$x = ;");
        assert!(m.parse_error);
        assert!(!m.compile().complete);
    }

    #[test]
    fn compile_produces_working_route_model() {
        let m = infer(
            r#"
            $id = intval($_GET['p']);
            mysql_query("SELECT * FROM posts WHERE ID=$id LIMIT 1");
        "#,
        );
        let rm = m.compile();
        assert!(rm.complete);
        assert!(rm.accepts("SELECT * FROM posts WHERE ID=7 LIMIT 1"));
        assert!(!rm.accepts("SELECT * FROM posts WHERE ID=7 OR 1=1 LIMIT 1"));
    }

    #[test]
    fn stmt_ids_align_with_taint_findings() {
        let src = r#"
            $id = $_GET['id'];
            if ($id) {
                mysql_query("SELECT * FROM t WHERE id=" . $id);
            }
        "#;
        let model = infer_source("x", src);
        let taint = crate::analyze_source("x", src, &crate::AnalyzerConfig::default());
        assert_eq!(model.sites.len(), 1);
        assert_eq!(taint.findings.len(), 1);
        assert_eq!(model.sites[0].stmt_id, taint.findings[0].stmt_id);
        assert_eq!(model.sites[0].sink, taint.findings[0].sink);
    }
}
