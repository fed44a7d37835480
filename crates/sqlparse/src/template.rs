//! Query templates and skeleton automata — the static query-model layer.
//!
//! Joza's dynamic detectors (NTI/PTI) infer taint per request; this module
//! adds the complementary *static* view in the SQLBlock/ASSIST tradition:
//! the legal query **structures** an application can emit at each sink are
//! derivable from source before any traffic arrives. A
//! [`QueryTemplate`] is a sink-site string-construction summary — literal
//! fragments kept verbatim, request-derived values marked as [`TemplatePart::Hole`]s,
//! loop-built fragments as bounded [`TemplatePart::Rep`]etitions. Templates compile to a
//! [`SkeletonAutomaton`] over the same token normalization as
//! [`crate::fingerprint::skeleton`], and a [`QueryModelIndex`] maps each
//! endpoint to the union automaton of its sinks.
//!
//! # Compilation by probe substitution
//!
//! A template is compiled by substituting a **probe literal** (`1`) for
//! every hole, lexing the resulting concrete query, and demanding that
//! each hole's byte range lies inside a single *data-literal* token
//! (number or string). A hole that satisfies this can only ever
//! contribute literal content to exactly one token at runtime — so a
//! value that injects additional tokens (a `UNION`, a tautology, a
//! comment, a quote breakout) necessarily changes the skeleton and falls
//! off the automaton. Repetition regions must align exactly with token
//! boundaries; anything else rejects the template (the site then simply
//! stays on the dynamic path — rejection is always sound).
//!
//! [`QueryTemplate::render`] is the one renderer: the probe above, the
//! concrete query of [`QueryTemplate::instantiate`], and the marker
//! renderings the static store/load pass classifies all come from it,
//! with the byte range of every hole and repetition it emitted.

use crate::fingerprint::{intern_token_sym, raw_skeleton_syms};
use crate::lexer::lex;
use crate::symbol::{snapshot, SymId};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// One element of a statically inferred query template.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum TemplatePart {
    /// A literal source fragment, kept verbatim (`"SELECT * FROM t WHERE id="`).
    Lit(String),
    /// A request-derived (or otherwise unknown) value; at most one SQL
    /// data literal at runtime.
    Hole,
    /// A loop-built fragment repeated zero or more times (e.g. the tail of
    /// an `implode`d list). Nested repetitions are rejected at compile
    /// time.
    Rep(Vec<TemplatePart>),
}

/// A statically inferred query shape for one sink call site: an ordered
/// sequence of [`TemplatePart`]s.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct QueryTemplate {
    /// The template body, in emission order.
    pub parts: Vec<TemplatePart>,
}

impl QueryTemplate {
    /// A template that is a single literal query (no holes).
    pub fn lit(s: &str) -> Self {
        QueryTemplate { parts: vec![TemplatePart::Lit(s.to_string())] }
    }

    /// Renders the template with `value` substituted for every hole and
    /// each repetition body emitted once — the concrete query this
    /// template would emit for that input.
    pub fn instantiate(&self, value: &str) -> String {
        self.render(true, |_, out| out.push_str(value)).text
    }

    /// Renders the template to query text: literals verbatim, the `i`-th
    /// hole (in emission order, counting only rendered holes) as whatever
    /// `hole` appends for `i`, and each repetition body once — or not at
    /// all when `reps` is false. Reports where each hole and each
    /// repetition landed in the text.
    pub fn render(&self, reps: bool, mut hole: impl FnMut(usize, &mut String)) -> Rendering {
        fn walk(
            parts: &[TemplatePart],
            reps: bool,
            hole: &mut impl FnMut(usize, &mut String),
            r: &mut Rendering,
        ) {
            for part in parts {
                let start = r.text.len();
                match part {
                    TemplatePart::Lit(s) => r.text.push_str(s),
                    TemplatePart::Hole => {
                        hole(r.holes.len(), &mut r.text);
                        r.holes.push(start..r.text.len());
                    }
                    TemplatePart::Rep(body) => {
                        if reps {
                            walk(body, reps, hole, r);
                        }
                        r.reps.push(start..r.text.len());
                    }
                }
            }
        }
        let mut r = Rendering::default();
        walk(&self.parts, reps, &mut hole, &mut r);
        r
    }
}

/// A [`QueryTemplate`] rendered to query text by [`QueryTemplate::render`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rendering {
    /// The query text.
    pub text: String,
    /// Byte range of each rendered hole, in emission order.
    pub holes: Vec<Range<usize>>,
    /// Byte range of each repetition, in the order they close (an inner
    /// repetition before the one around it); empty when elided.
    pub reps: Vec<Range<usize>>,
}

/// Why a template could not be compiled into an automaton branch. A
/// rejected template leaves its site on the dynamic path — never unsound,
/// only slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateReject {
    /// A hole's probe did not land inside a single data-literal token —
    /// the runtime value could span or merge non-value structure.
    HoleNotValuePosition,
    /// A repetition region does not align with token boundaries (e.g. a
    /// loop builds up the inside of one string literal).
    RepMisaligned,
    /// `Rep` inside `Rep`; the bounded-regular domain stops at one level.
    NestedRep,
}

impl fmt::Display for TemplateReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TemplateReject::HoleNotValuePosition => "hole outside a data-literal token",
            TemplateReject::RepMisaligned => "repetition not aligned to token boundaries",
            TemplateReject::NestedRep => "nested repetition",
        };
        f.write_str(s)
    }
}

/// One symbol of a compiled automaton branch. Token payloads are
/// interned [`SymId`]s (see [`crate::symbol`]): compiling a template is
/// what puts its identifiers into the process table, so matching a branch
/// against a query skeleton compares integers, never strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sym {
    /// Exactly one skeleton token with this rendering.
    Tok(SymId),
    /// Zero or more repetitions of this skeleton-token sequence.
    Star(Vec<SymId>),
}

/// The literal substituted for holes when probing a template.
const PROBE: &str = "1";

/// Compiles one template into an automaton branch: a linear symbol
/// sequence over skeleton tokens, with each repetition region as a
/// [`Sym::Star`] group.
pub fn compile_template(t: &QueryTemplate) -> Result<Vec<Sym>, TemplateReject> {
    let nested = |p: &TemplatePart| matches!(p, TemplatePart::Rep(_));
    if t.parts.iter().any(|p| matches!(p, TemplatePart::Rep(body) if body.iter().any(nested))) {
        return Err(TemplateReject::NestedRep);
    }
    let probe = t.render(true, |_, out| out.push_str(PROBE));
    let tokens = lex(&probe.text);
    // Every hole must sit inside exactly one data-literal token.
    for h in &probe.holes {
        let ok =
            tokens.iter().any(|tk| tk.kind.is_literal() && tk.start <= h.start && h.end <= tk.end);
        if !ok {
            return Err(TemplateReject::HoleNotValuePosition);
        }
    }
    // Walk tokens in order, folding each rep region (already in source
    // order) into a star group that must cover whole tokens exactly.
    let mut syms = Vec::new();
    let mut reps = probe.reps.iter().peekable();
    let mut i = 0;
    while i < tokens.len() {
        let tk = &tokens[i];
        if let Some(rep) = reps.peek() {
            // An empty rep region (loop body could run zero times with no
            // text) contributes nothing; skip it once we're past it.
            if rep.start == rep.end && tk.start >= rep.end {
                reps.next();
                continue;
            }
            if tk.start >= rep.start && rep.start < rep.end {
                if tk.start != rep.start {
                    return Err(TemplateReject::RepMisaligned);
                }
                let mut body = Vec::new();
                let mut end_ok = false;
                while i < tokens.len() && tokens[i].start < rep.end {
                    if tokens[i].end > rep.end {
                        return Err(TemplateReject::RepMisaligned);
                    }
                    body.push(intern_token_sym(&probe.text, &tokens[i]));
                    end_ok = tokens[i].end == rep.end;
                    i += 1;
                }
                if !end_ok || body.is_empty() {
                    return Err(TemplateReject::RepMisaligned);
                }
                reps.next();
                syms.push(Sym::Star(body));
                continue;
            }
            if tk.end > rep.start && rep.start < rep.end {
                // Token overlaps into the rep region from the left.
                return Err(TemplateReject::RepMisaligned);
            }
        }
        syms.push(Sym::Tok(intern_token_sym(&probe.text, tk)));
        i += 1;
    }
    Ok(syms)
}

/// A union of compiled template branches for one endpoint: accepts a
/// query iff its raw skeleton token sequence matches some branch.
#[derive(Debug, Clone, Default)]
pub struct SkeletonAutomaton {
    branches: Vec<Vec<Sym>>,
}

impl SkeletonAutomaton {
    /// Adds one compiled branch.
    pub fn push_branch(&mut self, syms: Vec<Sym>) {
        self.branches.push(syms);
    }

    /// Number of template branches in the union.
    pub fn branches(&self) -> usize {
        self.branches.len()
    }

    /// Whether `query`'s raw skeleton token sequence matches any branch
    /// (rendered against the current process table — a cold-path entry
    /// point; the engine matches its pinned snapshot's skeletons through
    /// [`SkeletonAutomaton::accepts_syms`]).
    pub fn accepts(&self, query: &str) -> bool {
        self.accepts_syms(&raw_skeleton_syms(query, &snapshot()))
    }

    /// [`SkeletonAutomaton::accepts`] over an already-rendered raw
    /// skeleton **symbol** sequence (see
    /// [`crate::fingerprint::render_skeleton_syms_into`]) — the
    /// parse-once, allocation-free entry point for callers that cache the
    /// query's skeleton. Matching compares ids, so each step is one
    /// integer comparison; a check-local id matches no branch symbol.
    pub fn accepts_syms(&self, toks: &[SymId]) -> bool {
        if self.branches.is_empty() {
            return false;
        }
        self.branches.iter().any(|b| match_seq(b, toks))
    }
}

fn match_seq(syms: &[Sym], toks: &[SymId]) -> bool {
    match syms.first() {
        None => toks.is_empty(),
        Some(Sym::Tok(s)) => {
            toks.first().is_some_and(|t| t == s) && match_seq(&syms[1..], &toks[1..])
        }
        Some(Sym::Star(body)) => {
            let mut off = 0;
            loop {
                if match_seq(&syms[1..], &toks[off..]) {
                    return true;
                }
                let rest = &toks[off..];
                if rest.len() >= body.len() && rest.iter().zip(body.iter()).all(|(a, b)| a == b) {
                    off += body.len();
                } else {
                    return false;
                }
            }
        }
    }
}

/// The compiled query model for one endpoint (route).
#[derive(Debug, Clone, Default)]
pub struct RouteModel {
    automaton: SkeletonAutomaton,
    /// True iff *every* sink site on the route was statically modeled and
    /// every inferred template compiled. Only a complete model can treat
    /// a non-matching query as a structural anomaly — an incomplete one
    /// merely loses the fast path.
    pub complete: bool,
    /// Sink call sites seen on the route.
    pub sites: usize,
    /// Sites whose whole template set was inferred (not ⊤).
    pub modeled_sites: usize,
    /// Templates successfully compiled into the automaton.
    pub compiled: usize,
    /// Templates rejected by [`compile_template`].
    pub rejected: usize,
}

impl RouteModel {
    /// Builds a route model from per-site template sets; `None` marks a
    /// site whose construction the static domain could not bound (⊤).
    pub fn build(site_templates: &[Option<Vec<QueryTemplate>>]) -> RouteModel {
        let mut m =
            RouteModel { complete: true, sites: site_templates.len(), ..RouteModel::default() };
        for site in site_templates {
            match site {
                None => m.complete = false,
                Some(templates) => {
                    m.modeled_sites += 1;
                    for t in templates {
                        match compile_template(t) {
                            Ok(syms) => {
                                m.automaton.push_branch(syms);
                                m.compiled += 1;
                            }
                            Err(_) => {
                                m.rejected += 1;
                                m.complete = false;
                            }
                        }
                    }
                }
            }
        }
        if site_templates.is_empty() {
            // A route with no sinks emits no queries; any observed query
            // is out of model, but there is nothing to accept either.
            m.complete = false;
        }
        m
    }

    /// Whether the model's automaton accepts `query`.
    pub fn accepts(&self, query: &str) -> bool {
        self.automaton.accepts(query)
    }

    /// Whether the model's automaton accepts an already-rendered raw
    /// skeleton **symbol** sequence (the parse-once, allocation-free
    /// entry point).
    pub fn accepts_syms(&self, toks: &[SymId]) -> bool {
        self.automaton.accepts_syms(toks)
    }

    /// Template branches in the union automaton.
    pub fn branches(&self) -> usize {
        self.automaton.branches()
    }
}

/// Per-endpoint query models, keyed by route name — the artifact
/// `sast::querymodel` produces and `joza-core` consumes.
///
/// Models are stored behind [`std::sync::Arc`] so a consumer can hand out
/// owned per-route handles ([`QueryModelIndex::get_arc`]) that outlive a
/// snapshot of the index itself — the property `joza-core`'s hot-swappable
/// deployment relies on: a session pins its route's model once and keeps
/// checking against it even if the engine swaps in a new index mid-run.
#[derive(Debug, Clone, Default)]
pub struct QueryModelIndex {
    routes: BTreeMap<String, std::sync::Arc<RouteModel>>,
}

impl QueryModelIndex {
    /// An empty index (every route stays fully dynamic).
    pub fn new() -> Self {
        QueryModelIndex::default()
    }

    /// Installs the model for `route`, replacing any previous one.
    pub fn insert(&mut self, route: &str, model: RouteModel) {
        self.routes.insert(route.to_string(), std::sync::Arc::new(model));
    }

    /// The model for `route`, if one was inferred.
    pub fn get(&self, route: &str) -> Option<&RouteModel> {
        self.routes.get(route).map(|m| m.as_ref())
    }

    /// An owned handle on the model for `route`: stays valid after the
    /// index is dropped or replaced.
    pub fn get_arc(&self, route: &str) -> Option<std::sync::Arc<RouteModel>> {
        self.routes.get(route).cloned()
    }

    /// Iterates `(route, model)` in route-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RouteModel)> {
        self.routes.iter().map(|(k, v)| (k.as_str(), v.as_ref()))
    }

    /// Iterates route names in order.
    pub fn routes(&self) -> impl Iterator<Item = &str> {
        self.routes.keys().map(String::as_str)
    }

    /// Number of routes with a model.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes have models.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TemplatePart::{Hole, Lit, Rep};

    fn tpl(parts: Vec<TemplatePart>) -> QueryTemplate {
        QueryTemplate { parts }
    }

    fn automaton(templates: &[QueryTemplate]) -> SkeletonAutomaton {
        let mut a = SkeletonAutomaton::default();
        for t in templates {
            a.push_branch(compile_template(t).expect("template must compile"));
        }
        a
    }

    #[test]
    fn literal_template_accepts_only_itself() {
        let a = automaton(&[QueryTemplate::lit("SELECT * FROM posts ORDER BY date")]);
        assert!(a.accepts("SELECT * FROM posts ORDER BY date"));
        assert!(a.accepts("select * from posts order by date"));
        assert!(!a.accepts("SELECT * FROM posts"));
    }

    #[test]
    fn numeric_hole_accepts_any_number_rejects_structure() {
        let t = tpl(vec![Lit("SELECT * FROM t WHERE id=".into()), Hole]);
        let a = automaton(&[t]);
        assert!(a.accepts("SELECT * FROM t WHERE id=7"));
        assert!(a.accepts("SELECT * FROM t WHERE id=123456"));
        assert!(a.accepts("SELECT * FROM t WHERE id='abc'"));
        assert!(!a.accepts("SELECT * FROM t WHERE id=7 OR 1=1"));
        assert!(!a.accepts("SELECT * FROM t WHERE id=-1 UNION SELECT user()"));
        assert!(!a.accepts("SELECT * FROM t WHERE id=7 -- x"));
    }

    #[test]
    fn quoted_hole_accepts_string_rejects_breakout() {
        let t = tpl(vec![Lit("SELECT * FROM u WHERE name='".into()), Hole, Lit("'".into())]);
        let a = automaton(&[t]);
        assert!(a.accepts("SELECT * FROM u WHERE name='bob'"));
        assert!(a.accepts("SELECT * FROM u WHERE name='O\\'Brien'"));
        assert!(!a.accepts("SELECT * FROM u WHERE name='x' OR 'a'='a'"));
        assert!(!a.accepts("SELECT * FROM u WHERE name='x'; DROP TABLE u"));
    }

    #[test]
    fn like_pattern_hole() {
        let t =
            tpl(vec![Lit("SELECT * FROM p WHERE title LIKE '%".into()), Hole, Lit("%'".into())]);
        let a = automaton(&[t]);
        assert!(a.accepts("SELECT * FROM p WHERE title LIKE '%cats%'"));
        assert!(!a.accepts("SELECT * FROM p WHERE title LIKE '%x%' UNION SELECT user()"));
    }

    #[test]
    fn rep_matches_any_list_length_including_zero_tail() {
        // implode(",", $ids) after a leading element:  1 (, 1)*
        let t = tpl(vec![
            Lit("SELECT * FROM t WHERE id IN (".into()),
            Hole,
            Rep(vec![Lit(",".into()), Hole]),
            Lit(")".into()),
        ]);
        let a = automaton(&[t]);
        assert!(a.accepts("SELECT * FROM t WHERE id IN (1)"));
        assert!(a.accepts("SELECT * FROM t WHERE id IN (1,2)"));
        assert!(a.accepts("SELECT * FROM t WHERE id IN (1,2,3,4,5)"));
        assert!(!a.accepts("SELECT * FROM t WHERE id IN (1,2) OR 1=1"));
        assert!(!a.accepts("SELECT * FROM t WHERE id IN (1,(SELECT user()))"));
    }

    #[test]
    fn loop_trailing_comma_rep() {
        // `foreach { $frag .= $id . "," }` inside IN (...)
        let t = tpl(vec![
            Lit("SELECT * FROM t WHERE id IN (".into()),
            Rep(vec![Hole, Lit(",".into())]),
            Lit("0)".into()),
        ]);
        let a = automaton(&[t]);
        assert!(a.accepts("SELECT * FROM t WHERE id IN (0)"));
        assert!(a.accepts("SELECT * FROM t WHERE id IN (4,7,0)"));
        assert!(!a.accepts("SELECT * FROM t WHERE id IN (4,7,0) UNION SELECT 1"));
    }

    #[test]
    fn hole_merging_with_adjacent_digits_stays_one_token() {
        let t = tpl(vec![Lit("SELECT * FROM t LIMIT 1".into()), Hole]);
        let syms = compile_template(&t).expect("merged numeric probe compiles");
        // `1` + probe `1` lex as the single number `11` → one hole symbol.
        assert_eq!(syms.last(), Some(&Sym::Tok(crate::symbol::SYM_HOLE)));
    }

    #[test]
    fn hole_in_identifier_position_rejected() {
        // Probe glues onto the identifier: `colname1` — not a value slot.
        let t = tpl(vec![Lit("SELECT * FROM t ORDER BY col".into()), Hole]);
        assert_eq!(compile_template(&t), Err(TemplateReject::HoleNotValuePosition));
    }

    #[test]
    fn bare_hole_after_keyword_is_value_position() {
        // `ORDER BY <n>` with a space: probe lexes as a number literal.
        let t = tpl(vec![Lit("SELECT * FROM t ORDER BY ".into()), Hole]);
        let a = automaton(&[t]);
        assert!(a.accepts("SELECT * FROM t ORDER BY 2"));
        // An identifier there simply does not match the `?` symbol…
        assert!(!a.accepts("SELECT * FROM t ORDER BY name"));
        // …and injected structure certainly does not.
        assert!(!a.accepts("SELECT * FROM t ORDER BY 1; DROP TABLE t"));
    }

    #[test]
    fn rep_inside_string_literal_rejected() {
        let t = tpl(vec![
            Lit("SELECT * FROM t WHERE x='".into()),
            Rep(vec![Lit("a".into())]),
            Lit("'".into()),
        ]);
        assert_eq!(compile_template(&t), Err(TemplateReject::RepMisaligned));
    }

    #[test]
    fn nested_rep_rejected() {
        let t = tpl(vec![Rep(vec![Rep(vec![Lit("x".into())])])]);
        assert_eq!(compile_template(&t), Err(TemplateReject::NestedRep));
    }

    #[test]
    fn union_of_branches() {
        let a = automaton(&[
            QueryTemplate::lit("SELECT a FROM t"),
            tpl(vec![Lit("SELECT a FROM t WHERE id=".into()), Hole]),
        ]);
        assert!(a.accepts("SELECT a FROM t"));
        assert!(a.accepts("SELECT a FROM t WHERE id=9"));
        assert!(!a.accepts("SELECT b FROM t"));
    }

    #[test]
    fn route_model_completeness() {
        let modeled = Some(vec![QueryTemplate::lit("SELECT 1")]);
        let top: Option<Vec<QueryTemplate>> = None;
        let complete = RouteModel::build(std::slice::from_ref(&modeled));
        assert!(complete.complete);
        assert_eq!(complete.compiled, 1);
        let partial = RouteModel::build(&[modeled.clone(), top]);
        assert!(!partial.complete);
        assert!(partial.accepts("SELECT 1"));
        let rejected = RouteModel::build(&[Some(vec![tpl(vec![
            Lit("SELECT * FROM t ORDER BY col".into()),
            Hole,
        ])])]);
        assert!(!rejected.complete);
        assert_eq!(rejected.rejected, 1);
        let empty = RouteModel::build(&[]);
        assert!(!empty.complete);
    }

    #[test]
    fn index_round_trip() {
        let mut ix = QueryModelIndex::new();
        assert!(ix.is_empty());
        ix.insert("search", RouteModel::build(&[Some(vec![QueryTemplate::lit("SELECT 1")])]));
        assert_eq!(ix.len(), 1);
        assert!(ix.get("search").unwrap().accepts("SELECT 1"));
        assert!(ix.get("missing").is_none());
        assert_eq!(ix.iter().count(), 1);
    }

    #[test]
    fn instantiate_renders_holes() {
        let t = tpl(vec![Lit("id=".into()), Hole, Lit(" AND x=".into()), Hole]);
        assert_eq!(t.instantiate("5"), "id=5 AND x=5");
    }

    #[test]
    fn render_reports_hole_and_repetition_ranges() {
        let t =
            tpl(vec![Lit("IN (".into()), Hole, Rep(vec![Lit(",".into()), Hole]), Lit(")".into())]);
        let marker = |i: usize, out: &mut String| out.push_str(&format!("m{i}"));
        let spans = |v: &[Range<usize>]| v.iter().map(|r| (r.start, r.end)).collect::<Vec<_>>();
        let once = t.render(true, marker);
        assert_eq!(once.text, "IN (m0,m1)");
        assert_eq!((spans(&once.holes), spans(&once.reps)), (vec![(4, 6), (7, 9)], vec![(6, 9)]));
        let elided = t.render(false, marker);
        assert_eq!(elided.text, "IN (m0)");
        assert_eq!((spans(&elided.holes), spans(&elided.reps)), (vec![(4, 6)], vec![(6, 6)]));
        assert_eq!(t.instantiate("5"), "IN (5,5)");
    }

    #[test]
    fn automaton_matches_uncollapsed_tokens() {
        // The fingerprint collapse pass must NOT leak into automaton
        // matching: a two-element IN list is two `?` tokens here.
        let t = tpl(vec![Lit("SELECT * FROM t WHERE id IN (1,2)".into())]);
        let a = automaton(&[t]);
        assert!(a.accepts("SELECT * FROM t WHERE id IN (3,4)"));
        assert!(!a.accepts("SELECT * FROM t WHERE id IN (3)"));
    }
}
