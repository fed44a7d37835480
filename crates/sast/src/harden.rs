//! Static parameterization: rewrite modeled sinks into prepared calls.
//!
//! The query-model pass ([`crate::querymodel`]) proves, per sink site,
//! that every query the site can emit has the shape `Lit Hole Lit …`:
//! statically known SQL text with dynamic scalars confined to
//! data-literal positions. That proof is exactly the licence to *repair*
//! the site (ASSIST; "You shall not pass"): replace the
//! string-concatenation sink with a prepared-statement call whose text is
//! the literal skeleton and whose parameters are the original dynamic
//! subexpressions.
//!
//! The pass has two steps. **Analyse:** the walker all static passes run
//! on (`absint`) interprets the route in the **pieces domain**:
//! a value is `Scalar` (a dynamic value usable as one bound parameter),
//! `Inline` (a known concatenation of literal text and dynamic pieces,
//! which a sink may inline), or `Opaque` (not safely expressible: a sink
//! reading it skips the route with the reason). Every sink call the walker
//! evaluates is a hardening site; its query argument's pieces go through
//! a quote-context scan that assembles the prepared text:
//!
//! * a dynamic piece *outside* SQL quotes becomes a `:jzN` placeholder
//!   bound to `strval(piece)` — `strval` mirrors the string conversion
//!   PHP concatenation would have applied (arrays become `"Array"`, so
//!   Drupal-style array inputs can never reach `db_query`'s placeholder
//!   expansion through a binding);
//! * a quoted region containing dynamic pieces is replaced *entirely*
//!   (quotes included) by one placeholder bound to
//!   `strval(stripslashes(region))` — the SQL lexer would have unescaped
//!   the region's text, and `stripslashes` agrees with SQL unescaping on
//!   the `addslashes` escape set (`\'`, `\"`, `\\`, `\0`), which is the
//!   only escape alphabet the magic-quotes pipeline produces;
//! * a quoted region with no dynamic pieces stays in the text verbatim.
//!
//! The assembled text must parse as SQL (placeholders included); a hole
//! that lands somewhere a data literal cannot go — a table name, a
//! column — fails the parse and skips the route. A sink with another sink
//! inside its arguments skips the route too: the prepared call replaces
//! the whole sink, so no raw query may ride inside it. **Apply:** the
//! recorded prepared calls are spliced into the route's own copy of the
//! AST in place of the sink call nodes they were recorded for (by node
//! address); a sink the walker never reached (dead code after `break`)
//! skips the route, so a rewritten route keeps no raw sink at all.
//!
//! Evaluation order is preserved: unmoved pieces are evaluated at the sink
//! exactly as the original concatenation did. Pieces inlined from earlier
//! assignments must be pure, and the domain's assignment hook makes every
//! inline value that reads a reassigned variable opaque. Loop-carried
//! values go through the domain's widening: a variable that changes
//! across a loop pass and is not one scalar throughout becomes opaque.
//!
//! The rewrite is verified *differentially* (`joza_lab`'s harden
//! driver): original and hardened applications must produce bit-identical
//! responses and database states over the benign corpus, and the hardened
//! application must neutralize every exploit targeting a rewritten route.

use crate::absint::{self, Domain, Env};
use crate::querymodel::{infer_plugin, infer_program};
use crate::summaries::is_sink;
use joza_phpsim::ast::{BinOp, Expr, InterpPart, Stmt};
use joza_phpsim::emit::emit_program;
use joza_phpsim::parser::parse_program;
use joza_phpsim::value::PValue;
use joza_sqlparse::parser::parse as parse_sql;
use joza_webapp::app::WebApp;
use std::collections::BTreeSet;

/// Why a route was left unrewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The source does not parse; there is no AST to rewrite.
    ParseError,
    /// The query model left at least one sink unmodeled (⊤): the pass has
    /// no proof that dynamic input is confined to data positions.
    IncompleteModel,
    /// The sink is already a parameterized `db_query($sql, $args)` call.
    /// Its runtime placeholder expansion (Drupal 7 `expandArguments`
    /// splices array *keys* into the statement text — CVE-2014-3704) is
    /// not derivable from the call site, so the model is incomplete and
    /// there is no concatenation to rewrite.
    AlreadyPrepared,
    /// A sink consumes a variable whose construction the pieces domain
    /// cannot express (joined branches, smashed arrays, self-referential
    /// appends).
    UnresolvedQueryExpr,
    /// Inlining an earlier assignment would move an impure expression
    /// (result fetch, clock, RNG) across statements.
    ImpureBinding,
    /// The query text is accumulated across loop iterations; a static
    /// template cannot bound the number of parameters.
    LoopCarriedFragment,
    /// A SQL string literal opens in one piece and never closes.
    UnbalancedQuote,
    /// A placeholder would land where SQL does not accept a data literal
    /// (the prepared text does not parse).
    HoleNotParamPosition,
}

impl SkipReason {
    /// Stable machine-readable code for reports.
    pub fn code(&self) -> &'static str {
        match self {
            SkipReason::ParseError => "parse-error",
            SkipReason::IncompleteModel => "incomplete-model",
            SkipReason::AlreadyPrepared => "already-prepared",
            SkipReason::UnresolvedQueryExpr => "unresolved-query-expr",
            SkipReason::ImpureBinding => "impure-binding",
            SkipReason::LoopCarriedFragment => "loop-carried-fragment",
            SkipReason::UnbalancedQuote => "unbalanced-quote",
            SkipReason::HoleNotParamPosition => "hole-not-param-position",
        }
    }

    /// One-line human explanation for reports.
    pub fn detail(&self) -> &'static str {
        match self {
            SkipReason::ParseError => "source does not parse",
            SkipReason::IncompleteModel => "query model has an unmodeled (top) sink site",
            SkipReason::AlreadyPrepared => {
                "sink already uses db_query placeholders; its expandArguments array-key \
                 splice (CVE-2014-3704) is not derivable from the call site"
            }
            SkipReason::UnresolvedQueryExpr => {
                "query construction not expressible in the pieces domain"
            }
            SkipReason::ImpureBinding => {
                "binding would move an impure expression across statements"
            }
            SkipReason::LoopCarriedFragment => "query text accumulated across loop iterations",
            SkipReason::UnbalancedQuote => "SQL string literal never closes",
            SkipReason::HoleNotParamPosition => {
                "prepared text does not parse: a hole sits where SQL allows no data literal"
            }
        }
    }
}

/// Per-route hardening outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteHarden {
    /// Route slug.
    pub route: String,
    /// Sink call sites found in the route.
    pub sinks: usize,
    /// Sink call sites rewritten to prepared form (all of them, when the
    /// route is rewritten).
    pub sinks_rewritten: usize,
    /// Total placeholders bound across the route's rewritten sinks.
    pub placeholders: usize,
    /// Why the route was skipped; `None` means rewritten.
    pub skip: Option<SkipReason>,
}

impl RouteHarden {
    /// True when every sink on the route was rewritten.
    pub fn rewritten(&self) -> bool {
        self.skip.is_none()
    }
}

/// Machine-readable result of [`harden_app`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HardenReport {
    /// Per-route outcomes in route order.
    pub routes: Vec<RouteHarden>,
}

impl HardenReport {
    /// Routes that were fully rewritten, in route order.
    pub fn rewritten_routes(&self) -> Vec<String> {
        self.routes.iter().filter(|r| r.rewritten()).map(|r| r.route.clone()).collect()
    }

    /// Number of rewritten routes.
    pub fn rewritten_count(&self) -> usize {
        self.routes.iter().filter(|r| r.rewritten()).count()
    }
}

/// One lint finding: a sink that consumes tainted input without a
/// complete query model — the hardening pass's residual worklist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnparameterizedSink {
    /// Route slug.
    pub route: String,
    /// Preorder statement id of the sink call.
    pub stmt_id: usize,
    /// Sink builtin name.
    pub sink: String,
    /// Taint sources reaching the sink.
    pub sources: Vec<String>,
    /// For second-order findings: the attacker-reachable `(table,
    /// column)` cell this sink writes raw input into — the plant half of
    /// a stored-injection chain. `None` for first-order unmodeled-sink
    /// findings.
    pub dirty_cell: Option<(String, String)>,
}

/// Lints an application for tainted sinks the hardening pass cannot
/// repair: taint findings whose sink site the query model left unmodeled,
/// plus raw-input writes into attacker-reachable cells (the plant sites
/// of the cross-route store/load fixpoint — parameterizing the write does
/// not stop the stored payload, so each needs escape-on-read or a schema
/// change at the reading routes). Every entry is one item of the
/// remaining manual-remediation worklist.
pub fn unparameterized_sink_lint(app: &WebApp) -> Vec<UnparameterizedSink> {
    let mut out = Vec::new();
    for summary in crate::analyze_app(app) {
        let plugin = match app.plugin(&summary.endpoint) {
            Some(p) => p,
            None => continue,
        };
        let model = infer_plugin(app, plugin);
        let unmodeled: BTreeSet<usize> =
            model.sites.iter().filter(|s| s.templates.is_none()).map(|s| s.stmt_id).collect();
        if model.parse_error {
            continue;
        }
        for f in &summary.findings {
            if f.taint != crate::Taint::Untainted && unmodeled.contains(&f.stmt_id) {
                out.push(UnparameterizedSink {
                    route: summary.endpoint.clone(),
                    stmt_id: f.stmt_id,
                    sink: f.sink.clone(),
                    sources: f.sources.clone(),
                    dirty_cell: None,
                });
            }
        }
    }
    // Second-order plants: every tainted write into a cell some
    // second-order-reachable route reads back. One entry per (write,
    // cell) — the per-cell view is `StoreFlowReport::remediation_worklist`.
    let flow = crate::analyze_store_flow(app);
    for entry in flow.remediation_worklist() {
        if entry.readers.is_empty() {
            continue;
        }
        for w in &entry.writers {
            let duplicate = out.iter().any(|s: &UnparameterizedSink| {
                s.route == w.route
                    && s.stmt_id == w.stmt_id
                    && s.dirty_cell.as_ref() == Some(&entry.cell)
            });
            if !duplicate {
                out.push(UnparameterizedSink {
                    route: w.route.clone(),
                    stmt_id: w.stmt_id,
                    sink: w.sink.clone(),
                    sources: w.sources.clone(),
                    dirty_cell: Some(entry.cell.clone()),
                });
            }
        }
    }
    out
}

/// Hardens one route's source: every sink rewritten to a prepared
/// `db_query` call, or a skip reason. On success the returned source is
/// guaranteed to re-parse (`parse(emit(ast))` is asserted).
pub fn harden_source(route: &str, src: &str) -> (RouteHarden, Option<String>) {
    harden_parsed(route, parse_program(src).ok())
}

/// [`harden_source`] on a parsed route (`None`: the source does not
/// parse). The program is rewritten in place, so it is the caller's copy.
fn harden_parsed(route: &str, prog: Option<Vec<Stmt>>) -> (RouteHarden, Option<String>) {
    let mut report = RouteHarden {
        route: route.to_string(),
        sinks: 0,
        sinks_rewritten: 0,
        placeholders: 0,
        skip: None,
    };

    let Some(mut prog) = prog else {
        report.skip = Some(SkipReason::ParseError);
        return (report, None);
    };

    // Analyse. Only routes whose query model is complete carry the proof
    // that every dynamic input is a data-literal hole.
    let model = infer_program(route, &prog);
    let sites = absint::run(Hardening::default(), &prog).sites;
    let complete = model.sites.iter().all(|s| s.templates.is_some());
    report.sinks = if complete { sites.len() } else { model.sites.len() };
    let outcome = if !complete {
        Err(if sites.iter().any(|(_, p)| *p == Err(SkipReason::AlreadyPrepared)) {
            SkipReason::AlreadyPrepared
        } else {
            SkipReason::IncompleteModel
        })
    } else if let Some(reason) = sites.iter().find_map(|(_, p)| p.as_ref().err()) {
        Err(*reason)
    } else {
        splice(&mut prog, &sites)
    };
    if let Err(reason) = outcome {
        report.skip = Some(reason);
        return (report, None);
    }
    report.sinks_rewritten = sites.len();
    report.placeholders =
        sites.iter().filter_map(|(_, p)| p.as_ref().ok()).map(|p| p.1.len()).sum();

    let emitted = emit_program(&prog);
    let reparsed = parse_program(&emitted).expect("emitted hardened source must parse");
    assert_eq!(reparsed, prog, "emitter round-trip broke on hardened {route}");
    (report, Some(emitted))
}

/// Hardens every routable endpoint of an application, rewriting a copy of
/// each route's cached parse. Returns the transformed application
/// (skipped routes keep their original source and parse) and the
/// per-route report, sorted by route.
pub fn harden_app(app: &WebApp) -> (WebApp, HardenReport) {
    let mut hardened = app.clone();
    let mut slugs: Vec<&str> = app.plugins().map(|p| p.name.as_str()).collect();
    slugs.sort_unstable();
    let mut report = HardenReport::default();
    for slug in slugs {
        let (route_report, new_source) =
            harden_parsed(slug, app.program(slug).ok().map(<[Stmt]>::to_vec));
        if let Some(src) = new_source {
            hardened.set_plugin_source(slug, &src);
        }
        report.routes.push(route_report);
    }
    (hardened, report)
}

// ---------------------------------------------------------------------
// Analyse: the pieces domain.
// ---------------------------------------------------------------------

/// One constituent of a query under construction.
#[derive(Debug, Clone, PartialEq)]
enum Piece {
    /// Statically known text (string conversion already applied).
    Lit(String),
    /// A dynamic subexpression, evaluated where the prepared call binds it.
    Dyn(Expr),
}

/// What the pass knows about a value.
#[derive(Debug, Clone, PartialEq, Default)]
enum Pieces {
    /// A dynamic value usable as one bound parameter: a variable holding
    /// one (or none) is re-read at the sink, which is always faithful.
    #[default]
    Scalar,
    /// A known concatenation with literal text; a sink inlines these
    /// pieces so the literals join the SQL skeleton. The dynamic pieces a
    /// variable holds are pure and re-evaluated at the sink.
    Inline(Vec<Piece>),
    /// Not safely expressible; a sink reading it skips the route.
    Opaque(SkipReason),
}

/// A sink's prepared statement text and bound values, or why it has none.
type Prepared = Result<(String, Vec<Expr>), SkipReason>;

/// The pieces domain: per sink call node (by address, in the order the
/// walker first evaluates them), the sink's prepared form.
#[derive(Default)]
struct Hardening {
    sites: Vec<(*const Expr, Prepared)>,
}

/// Builtins safe to re-evaluate at the sink: deterministic in their
/// arguments and free of side effects. Result-set readers (`mysql_fetch_*`),
/// clocks, and RNGs are deliberately absent.
const PURE_FNS: &[&str] = &[
    "trim",
    "intval",
    "strval",
    "absint",
    "abs",
    "floatval",
    "doubleval",
    "strlen",
    "strtolower",
    "strtoupper",
    "stripslashes",
    "addslashes",
    "base64_decode",
    "base64_encode",
    "urldecode",
    "rawurldecode",
    "urlencode",
    "str_replace",
    "sprintf",
    "vsprintf",
    "implode",
    "join",
    "md5",
    "number_format",
    "is_numeric",
    "is_array",
    "is_string",
    "count",
    "sizeof",
    "htmlspecialchars",
    "esc_sql",
    "esc_html",
    "esc_attr",
    "mysql_real_escape_string",
    "mysqli_real_escape_string",
    "real_escape_string",
    "preg_replace",
    "preg_match",
    "substr",
];

fn is_pure(e: &Expr) -> bool {
    match e {
        Expr::AssignExpr { .. } => false,
        Expr::Call { name, .. } if !PURE_FNS.contains(&name.to_ascii_lowercase().as_str()) => false,
        _ => e.children().all(is_pure),
    }
}

/// Whether `e` reads `$var`.
fn reads(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Var(name) => name == var,
        Expr::Interp(parts) => parts.iter().any(|p| matches!(p, InterpPart::Var(n) if n == var)),
        _ => e.children().any(|c| reads(c, var)),
    }
}

/// Whether `e` calls a sink anywhere.
fn has_sink(e: &Expr) -> bool {
    matches!(e, Expr::Call { name, .. } if is_sink(name)) || e.children().any(has_sink)
}

impl Domain for Hardening {
    type Val = Pieces;

    fn lit(&self, v: &PValue) -> Pieces {
        Pieces::Inline(vec![Piece::Lit(v.to_php_string())])
    }

    /// An empty run of text adds no piece.
    fn text(&self, s: &str) -> Pieces {
        Pieces::Inline(if s.is_empty() { vec![] } else { vec![Piece::Lit(s.to_string())] })
    }

    fn scalar(&self) -> Pieces {
        Pieces::Scalar
    }

    fn concat(&self, a: &Pieces, b: &Pieces) -> Pieces {
        match (a, b) {
            (Pieces::Inline(a), Pieces::Inline(b)) => Pieces::Inline([&a[..], b].concat()),
            (Pieces::Opaque(reason), _) | (_, Pieces::Opaque(reason)) => Pieces::Opaque(*reason),
            // Appending to a scalar would capture a self-referential value.
            _ => Pieces::Opaque(SkipReason::UnresolvedQueryExpr),
        }
    }

    /// Paths that built different values leave nothing one rewrite fits.
    fn join(&self, a: &Pieces, b: &Pieces) -> Pieces {
        if a == b {
            a.clone()
        } else {
            Pieces::Opaque(SkipReason::UnresolvedQueryExpr)
        }
    }

    fn source(&self, _: &str, _: Option<&Expr>) -> Pieces {
        Pieces::Scalar
    }

    fn element(&self, _: Pieces) -> Pieces {
        Pieces::Scalar
    }

    fn key(&self, _: &Pieces) -> Pieces {
        Pieces::Scalar
    }

    fn array(&self, _: Vec<(Option<Pieces>, Pieces)>) -> Pieces {
        Pieces::Scalar
    }

    /// After an element write the array as a whole is no longer a value
    /// the pass can place.
    fn keyed(&self, _: Pieces, _: Vec<Pieces>) -> Pieces {
        Pieces::Opaque(SkipReason::UnresolvedQueryExpr)
    }

    fn call(&mut self, _: usize, site: &Expr, name: &str, args: Vec<Pieces>) -> Pieces {
        if is_sink(name) {
            let prepared = prepare(site, name, &args);
            let key: *const Expr = site;
            match self.sites.iter_mut().find(|(k, _)| *k == key) {
                None => self.sites.push((key, prepared)),
                // A later loop pass walks a wider state, which can only
                // turn the prepared form into a failure; a failure sticks.
                Some((_, old)) => {
                    if old.is_ok() {
                        *old = prepared;
                    }
                }
            }
        }
        Pieces::Scalar
    }

    /// A stored value with no literal text is re-read at the sink; one
    /// with literal text is inlined, so its dynamic pieces must be pure.
    fn named(&self, val: Pieces, _: &str) -> Pieces {
        match val {
            Pieces::Inline(ps) if !ps.iter().any(|p| matches!(p, Piece::Lit(_))) => Pieces::Scalar,
            Pieces::Inline(ps) if ps.iter().any(|p| matches!(p, Piece::Dyn(e) if !is_pure(e))) => {
                Pieces::Opaque(SkipReason::ImpureBinding)
            }
            other => other,
        }
    }

    /// A value that changed across a loop pass is the same scalar or
    /// nothing a static template can bound.
    fn widen(&self, old: &Pieces, new: &Pieces) -> Pieces {
        if old == new {
            old.clone()
        } else {
            Pieces::Opaque(SkipReason::LoopCarriedFragment)
        }
    }

    fn stable(&self, old: &Pieces, new: &Pieces) -> bool {
        old == new
    }

    fn top(&self, _: Pieces) -> Pieces {
        Pieces::Opaque(SkipReason::LoopCarriedFragment)
    }

    /// Literals, variables, interpolations and concatenations keep their
    /// pieces; any other expression is one dynamic piece, evaluated where
    /// it stands.
    fn at(&self, expr: &Expr, val: Pieces) -> Pieces {
        match expr {
            Expr::Lit(_) | Expr::Var(_) | Expr::Interp(_) => val,
            Expr::Binary { op: BinOp::Concat, .. } => val,
            _ => Pieces::Inline(vec![Piece::Dyn(expr.clone())]),
        }
    }

    fn var(&self, name: &str, val: Pieces) -> Pieces {
        match val {
            Pieces::Scalar => Pieces::Inline(vec![Piece::Dyn(Expr::Var(name.to_string()))]),
            other => other,
        }
    }

    /// The iterated array's elements are runtime scalars.
    fn each(&self, _: &Pieces) -> Pieces {
        Pieces::Scalar
    }

    fn unbound(&self) -> Option<Pieces> {
        Some(Pieces::Scalar)
    }

    /// Reassigning `var` invalidates every inline value that reads it.
    fn assigned(&self, env: &mut Env<Pieces>, var: &str) {
        for val in env.values_mut() {
            if let Pieces::Inline(ps) = val {
                if ps.iter().any(|p| matches!(p, Piece::Dyn(e) if reads(e, var))) {
                    *val = Pieces::Opaque(SkipReason::UnresolvedQueryExpr);
                }
            }
        }
    }
}

/// The prepared form of the sink call `site` to `name` on its evaluated
/// arguments.
fn prepare(site: &Expr, name: &str, args: &[Pieces]) -> Prepared {
    let at = match name.to_ascii_lowercase().as_str() {
        // Already parameterized (the model gate reports these first).
        "db_query" if args.len() >= 2 => return Err(SkipReason::AlreadyPrepared),
        "mysqli_query" if args.len() >= 2 => 1,
        _ => 0,
    };
    let query = args.get(at).ok_or(SkipReason::UnresolvedQueryExpr)?;
    if site.children().any(has_sink) {
        return Err(SkipReason::UnresolvedQueryExpr);
    }
    // The prepared call keeps only the query argument, so every other
    // one must be safe not to evaluate: a variable or a literal.
    if site
        .children()
        .enumerate()
        .any(|(i, e)| i != at && !matches!(e, Expr::Var(_) | Expr::Lit(_)))
    {
        return Err(SkipReason::ImpureBinding);
    }
    match query {
        Pieces::Inline(pieces) => build_prepared(pieces),
        Pieces::Opaque(reason) => Err(*reason),
        Pieces::Scalar => Err(SkipReason::UnresolvedQueryExpr),
    }
}

// ---------------------------------------------------------------------
// Apply.
// ---------------------------------------------------------------------

/// Replaces each recorded sink call node of `stmts` by its prepared call;
/// a sink with no record was never evaluated and skips the route. The
/// recorded addresses stay those of live nodes: a replaced sink holds no
/// other sink, and a replacement is never descended into.
fn splice<'a>(
    stmts: impl IntoIterator<Item = &'a mut Stmt>,
    sites: &[(*const Expr, Prepared)],
) -> Result<(), SkipReason> {
    fn expr(e: &mut Expr, sites: &[(*const Expr, Prepared)]) -> Result<(), SkipReason> {
        let key: *const Expr = e;
        if let Some((_, prepared)) = sites.iter().find(|(k, _)| *k == key) {
            let (text, bindings) = prepared.clone()?;
            *e = prepared_call(&text, bindings);
            return Ok(());
        }
        if matches!(e, Expr::Call { name, .. } if is_sink(name)) {
            return Err(SkipReason::UnresolvedQueryExpr);
        }
        e.children_mut().try_for_each(|c| expr(c, sites))
    }
    for stmt in stmts {
        let (mut exprs, blocks) = stmt.children_mut();
        exprs.try_for_each(|e| expr(e, sites))?;
        splice(blocks, sites)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Prepared-text assembly.
// ---------------------------------------------------------------------

/// In-quote accumulation: the expressions whose concatenation is the
/// quoted region's *escaped* content.
enum RegionPart {
    Lit(String),
    Dyn(Expr),
}

/// Assembles the prepared statement text and its bindings from a piece
/// sequence, scanning single-quote context so dynamic pieces inside SQL
/// string literals fold into one bound parameter per quoted region.
fn build_prepared(pieces: &[Piece]) -> Prepared {
    let mut text = String::new();
    let mut bindings: Vec<Expr> = Vec::new();
    // `None` = outside quotes; `Some(parts)` = inside a quoted region.
    let mut region: Option<Vec<RegionPart>> = None;

    let mut push_placeholder = |text: &mut String, bindings: &mut Vec<Expr>, value: Expr| {
        if text.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
            return Err(SkipReason::HoleNotParamPosition);
        }
        text.push_str(&format!(":jz{}", bindings.len()));
        bindings.push(value);
        Ok(())
    };

    for piece in pieces {
        match piece {
            Piece::Lit(s) => {
                let mut chars = s.chars().peekable();
                while let Some(c) = chars.next() {
                    match &mut region {
                        None => {
                            if c == '\'' {
                                region = Some(Vec::new());
                            } else {
                                text.push(c);
                            }
                        }
                        Some(parts) => {
                            if c == '\\' {
                                // Escaped character stays in the region.
                                let mut lit = String::from('\\');
                                if let Some(n) = chars.next() {
                                    lit.push(n);
                                }
                                push_region_lit(parts, &lit);
                            } else if c == '\'' {
                                // Region closes.
                                let parts = region.take().expect("inside quote");
                                close_region(
                                    parts,
                                    &mut text,
                                    &mut bindings,
                                    &mut push_placeholder,
                                )?;
                            } else {
                                push_region_lit(parts, &c.to_string());
                            }
                        }
                    }
                }
            }
            Piece::Dyn(expr) => match &mut region {
                None => push_placeholder(&mut text, &mut bindings, strval(expr.clone()))?,
                Some(parts) => parts.push(RegionPart::Dyn(expr.clone())),
            },
        }
    }
    if region.is_some() {
        return Err(SkipReason::UnbalancedQuote);
    }
    if parse_sql(&text).is_err() {
        return Err(SkipReason::HoleNotParamPosition);
    }
    Ok((text, bindings))
}

fn push_region_lit(parts: &mut Vec<RegionPart>, s: &str) {
    if let Some(RegionPart::Lit(prev)) = parts.last_mut() {
        prev.push_str(s);
    } else {
        parts.push(RegionPart::Lit(s.to_string()));
    }
}

/// Emits a completed quoted region: verbatim when fully static, otherwise
/// one placeholder bound to `strval(stripslashes(<region concat>))` —
/// `stripslashes` reproduces the SQL lexer's unescaping of the region
/// (the two agree on the `addslashes` escape alphabet, the only escapes
/// the magic-quotes input pipeline produces).
fn close_region(
    parts: Vec<RegionPart>,
    text: &mut String,
    bindings: &mut Vec<Expr>,
    push_placeholder: &mut impl FnMut(&mut String, &mut Vec<Expr>, Expr) -> Result<(), SkipReason>,
) -> Result<(), SkipReason> {
    let has_dyn = parts.iter().any(|p| matches!(p, RegionPart::Dyn(_)));
    if !has_dyn {
        text.push('\'');
        for p in &parts {
            if let RegionPart::Lit(s) = p {
                text.push_str(s);
            }
        }
        text.push('\'');
        return Ok(());
    }
    let exprs: Vec<Expr> = parts
        .into_iter()
        .filter_map(|p| match p {
            RegionPart::Lit(s) if s.is_empty() => None,
            RegionPart::Lit(s) => Some(Expr::Lit(PValue::Str(s))),
            RegionPart::Dyn(e) => Some(e),
        })
        .collect();
    let concat = fold_concat(exprs);
    let value = strval(call("stripslashes", vec![concat]));
    push_placeholder(text, bindings, value)
}

fn fold_concat(mut exprs: Vec<Expr>) -> Expr {
    if exprs.is_empty() {
        return Expr::Lit(PValue::Str(String::new()));
    }
    let first = exprs.remove(0);
    exprs.into_iter().fold(first, |acc, e| Expr::Binary {
        left: Box::new(acc),
        op: BinOp::Concat,
        right: Box::new(e),
    })
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call { name: name.to_string(), args }
}

fn strval(e: Expr) -> Expr {
    call("strval", vec![e])
}

/// The rewritten sink: `db_query('<text>', array(':jz0' => v0, …))`.
fn prepared_call(text: &str, bindings: Vec<Expr>) -> Expr {
    let mut args = vec![Expr::Lit(PValue::Str(text.to_string()))];
    if !bindings.is_empty() {
        let entries = bindings
            .into_iter()
            .enumerate()
            .map(|(i, v)| (Some(Expr::Lit(PValue::Str(format!(":jz{i}")))), v))
            .collect();
        args.push(Expr::ArrayLit(entries));
    }
    Expr::Call { name: "db_query".to_string(), args }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harden(src: &str) -> (RouteHarden, Option<String>) {
        harden_source("test", src)
    }

    fn has_prepared_db_query<'a>(prog: impl IntoIterator<Item = &'a Stmt>) -> bool {
        fn in_expr(e: &Expr) -> bool {
            matches!(e, Expr::Call { name, args } if name == "db_query" && args.len() >= 2)
                || e.children().any(in_expr)
        }
        prog.into_iter().any(|s| {
            let (mut exprs, blocks) = s.children();
            exprs.any(in_expr) || has_prepared_db_query(blocks)
        })
    }

    #[test]
    fn numeric_concat_sink_is_parameterized() {
        let (report, out) = harden(
            r#"
            $id = $_GET['item'];
            $r = mysql_query("SELECT id, name FROM tbl WHERE id=" . $id . " AND hidden=0");
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        assert_eq!(report.sinks, 1);
        assert_eq!(report.placeholders, 1);
        let src = out.expect("rewritten source");
        assert!(
            src.contains("db_query('SELECT id, name FROM tbl WHERE id=:jz0 AND hidden=0'"),
            "{src}"
        );
        assert!(src.contains("':jz0' => strval($id)"), "{src}");
    }

    #[test]
    fn quoted_context_binds_unescaped_region() {
        let (report, out) = harden(
            r#"
            $s = trim(stripslashes($_GET['q']));
            $r = mysql_query("SELECT name FROM t WHERE hidden=0 AND name LIKE '%" . $s . "%' ORDER BY id");
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        let src = out.expect("rewritten source");
        assert!(
            src.contains("WHERE hidden=0 AND name LIKE :jz0 ORDER BY id"),
            "quoted region must collapse to one placeholder: {src}"
        );
        assert!(
            src.contains("strval(stripslashes(('%' . $s) . '%'))"),
            "binding must unescape the region: {src}"
        );
    }

    #[test]
    fn static_quoted_literals_stay_verbatim() {
        let (report, out) = harden(
            r#"
            $r = mysql_query("SELECT option_value FROM wp_options WHERE option_name = 'siteurl' LIMIT 1");
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        assert_eq!(report.placeholders, 0);
        let src = out.expect("rewritten source");
        assert!(src.contains("db_query('SELECT option_value FROM wp_options WHERE option_name = \\'siteurl\\' LIMIT 1')"), "{src}");
    }

    #[test]
    fn var_indirect_sink_inlines_pieces() {
        let (report, out) = harden(
            r#"
            $zid = $_GET['zid'];
            $q = "SELECT name FROM zones WHERE hidden=0 AND cat=" . $zid;
            $r = mysql_query($q);
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        let src = out.expect("rewritten source");
        assert!(
            src.contains("db_query('SELECT name FROM zones WHERE hidden=0 AND cat=:jz0'"),
            "{src}"
        );
        assert!(src.contains("':jz0' => strval($zid)"), "{src}");
    }

    #[test]
    fn insert_with_mixed_contexts() {
        let (report, out) = harden(
            r#"
            $pid = intval($_POST['pid']);
            $author = $_POST['author'];
            $ok = mysql_query("INSERT INTO c (pid, author, approved) VALUES (" . $pid . ", '" . $author . "', '1')");
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        assert_eq!(report.placeholders, 2);
        let src = out.expect("rewritten source");
        assert!(
            src.contains("VALUES (:jz0, :jz1, \\'1\\')"),
            "static quoted literal stays, dynamic ones bind: {src}"
        );
        assert!(src.contains("':jz1' => strval(stripslashes($author))"), "{src}");
    }

    #[test]
    fn sink_argument_with_effects_is_not_dropped() {
        let (report, out) = harden(
            r#"
            $r = mysqli_query($link = mysqli_connect('h'), 'SELECT a FROM t');
            echo $link;
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::ImpureBinding), "{report:?}");
        assert!(out.is_none());
        // A plain variable (or literal) link is safe to drop.
        let (report, out) = harden(
            r#"
            $link = mysqli_connect('h');
            $r = mysqli_query($link, 'SELECT a FROM t');
            $s = mysql_query('SELECT b FROM t', 'conn');
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        assert!(out.expect("rewritten source").contains("$link = mysqli_connect('h');"));
    }

    #[test]
    fn unparsable_source_skips_with_parse_error() {
        let (report, out) = harden("$x = ;");
        assert_eq!(report.skip, Some(SkipReason::ParseError), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn quote_opened_before_a_hole_and_never_closed_skips() {
        let (report, out) = harden(r#"mysql_query("SELECT * FROM t WHERE a='" . $_GET['a']);"#);
        assert_eq!(report.skip, Some(SkipReason::UnbalancedQuote), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn unknown_builtin_skips_with_incomplete_model() {
        let (report, out) = harden(
            r#"
            $q = build_query_somehow($_GET['x']);
            mysql_query($q);
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::IncompleteModel));
        assert!(out.is_none());
    }

    #[test]
    fn prepared_db_query_skips_as_already_prepared() {
        let (report, out) = harden(
            r#"
            $ids = $_GET['ids'];
            $r = db_query("SELECT name FROM n WHERE hidden=0 AND id IN (:ids)", array(':ids' => $ids));
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::AlreadyPrepared));
        assert!(out.is_none());
    }

    #[test]
    fn impure_inline_skips() {
        let (report, out) = harden(
            r#"
            $q = "SELECT x FROM t WHERE a=" . mysql_insert_id();
            mysql_query($q);
        "#,
        );
        // mysql_insert_id is not a known builtin => the model is ⊤ there
        // anyway; use a pure-model impure case instead: a fetch result.
        let _ = (report, out);
        let (report, out) = harden(
            r#"
            $r = mysql_query("SELECT id FROM t");
            $row = mysql_fetch_row($r);
            $q = "SELECT x FROM t WHERE a=" . mysql_error();
            mysql_query($q);
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::ImpureBinding), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn loop_accumulated_query_skips() {
        let (report, out) = harden(
            r#"
            $ids = $_POST['ids'];
            $frag = '';
            foreach ($ids as $v) {
                $frag = $frag . $v . ",";
            }
            mysql_query("SELECT * FROM t WHERE id IN (" . $frag . "0)");
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::LoopCarriedFragment), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn assignment_in_skippable_operand_is_not_inlined() {
        // When `$c` is falsy the query is the first one: inlining the
        // guarded assignment would change what the route sends.
        for guarded in ["$c && ($q = 'SELECT 2');", "$t = $c ? ($q = 'SELECT 2') : 0;"] {
            let (report, out) =
                harden(&format!("$q = 'SELECT 1'; $c = $_GET['c']; {guarded} mysql_query($q);"));
            assert_eq!(report.skip, Some(SkipReason::UnresolvedQueryExpr), "{guarded}: {out:?}");
        }
    }

    #[test]
    fn nested_sink_skips_the_route() {
        let (report, out) = harden(
            r#"
            $id = $_GET['id'];
            $r = mysql_query("SELECT id FROM s WHERE n=" . mysql_num_rows(mysql_query("SELECT id FROM p WHERE id=" . $id)));
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::UnresolvedQueryExpr), "{report:?}");
        assert_eq!(report.sinks, 2);
        assert!(out.is_none());
    }

    #[test]
    fn sink_after_exit_is_a_site() {
        let (report, out) =
            harden("$q = 'SELECT a FROM t WHERE b='; exit; mysql_query($q . $_GET['x']);");
        assert!(report.rewritten(), "{report:?}");
        assert_eq!((report.sinks, report.sinks_rewritten), (1, 1));
        let src = out.expect("rewritten source");
        assert!(src.contains("db_query('SELECT a FROM t WHERE b=:jz0'"), "{src}");
        assert!(!src.contains("mysql_query"), "{src}");
    }

    #[test]
    fn dead_sink_after_break_skips() {
        let (report, out) = harden(
            "foreach ($_GET['a'] as $v) { mysql_query('SELECT 1'); break; mysql_query('SELECT 2'); }",
        );
        assert_eq!(report.skip, Some(SkipReason::UnresolvedQueryExpr), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn reassigning_a_variable_an_inline_value_reads_skips() {
        let (report, out) = harden(
            r#"
            $x = $_GET['a'];
            $q = "SELECT a FROM t WHERE b=" . trim($x);
            $x = 'other';
            mysql_query($q);
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::UnresolvedQueryExpr), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn value_the_loop_changes_after_its_sink_skips() {
        // The first iteration sends the first query, later ones the second.
        let (report, out) = harden(
            "$q = 'SELECT a FROM t'; \
             while ($_GET['c']) { mysql_query($q); $q = 'SELECT a FROM t WHERE b=1'; }",
        );
        assert_eq!(report.skip, Some(SkipReason::LoopCarriedFragment), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn value_assigned_on_one_path_is_not_inlined() {
        let (report, out) =
            harden("if ($_GET['c']) { $q = 'SELECT a FROM t'; } mysql_query($q . ' LIMIT 1');");
        assert_eq!(report.skip, Some(SkipReason::UnresolvedQueryExpr), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn foreach_over_a_built_array_binds_its_elements() {
        let (report, out) = harden(
            r#"
            $ids = array();
            $ids[] = intval($_GET['a']);
            foreach ($ids as $id) {
                mysql_query("SELECT a FROM t WHERE id=" . $id);
            }
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        let src = out.expect("rewritten source");
        assert!(src.contains("db_query('SELECT a FROM t WHERE id=:jz0'"), "{src}");
        assert!(src.contains("':jz0' => strval($id)"), "{src}");
    }

    #[test]
    fn sink_inside_fetch_loop_is_rewritten() {
        let (report, out) = harden(
            r#"
            $posts = mysql_query("SELECT ID FROM p WHERE s = 'x'");
            while ($post = mysql_fetch_assoc($posts)) {
                $pid = $post['ID'];
                $c = mysql_query("SELECT COUNT(*) FROM c WHERE pid = " . $pid);
            }
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        assert_eq!(report.sinks, 2);
        assert_eq!(report.sinks_rewritten, 2);
        let src = out.expect("rewritten source");
        assert!(src.contains("db_query('SELECT COUNT(*) FROM c WHERE pid = :jz0'"), "{src}");
        assert!(src.contains("':jz0' => strval($pid)"), "{src}");
    }

    #[test]
    fn foreach_value_in_quoted_position_binds() {
        let (report, out) = harden(
            r#"
            $opts = array('siteurl', 'blogname');
            foreach ($opts as $o) {
                $r = mysql_query("SELECT v FROM o WHERE k = '" . $o . "' LIMIT 1");
            }
        "#,
        );
        assert!(report.rewritten(), "{report:?}");
        let src = out.expect("rewritten source");
        assert!(src.contains("db_query('SELECT v FROM o WHERE k = :jz0 LIMIT 1'"), "{src}");
        assert!(src.contains("strval(stripslashes($o))"), "{src}");
    }

    #[test]
    fn hole_in_structural_position_skips() {
        // The model happily calls a table name a set of literals when it
        // comes from a foreach over literals — but a *dynamic* table name
        // cannot be a bound parameter. The prepared-text parse catches it.
        let (report, out) = harden(
            r#"
            $tbls = array('a', 'b');
            foreach ($tbls as $t) {
                $r = mysql_query("SELECT x FROM " . $t . " WHERE id=1");
            }
        "#,
        );
        assert_eq!(report.skip, Some(SkipReason::HoleNotParamPosition), "{report:?}");
        assert!(out.is_none());
    }

    #[test]
    fn hardened_source_reparses_and_model_stays_parseable() {
        let (_, out) = harden(
            r#"
            $id = $_GET['id'];
            $r = mysql_query("SELECT name FROM t WHERE hidden=0 AND id=" . $id);
        "#,
        );
        let src = out.expect("rewritten");
        // The hardened source must itself be analyzable.
        let prog = parse_program(&src).expect("hardened source parses");
        assert!(has_prepared_db_query(&prog), "sink now prepared: {src}");
    }

    #[test]
    fn lint_flags_tainted_unmodeled_sinks_only() {
        let mut app = WebApp::new("lint-test");
        app.add_plugin(joza_webapp::app::Plugin::new(
            "modeled",
            "1",
            r#"
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id=" . $id);
            "#,
        ));
        app.add_plugin(joza_webapp::app::Plugin::new(
            "unmodeled",
            "1",
            r#"
            $q = build_query_somehow($_GET['x']);
            mysql_query($q);
            "#,
        ));
        let lint = unparameterized_sink_lint(&app);
        assert_eq!(lint.len(), 1, "{lint:?}");
        assert_eq!(lint[0].route, "unmodeled");
        assert_eq!(lint[0].sink, "mysql_query");
        assert_eq!(lint[0].dirty_cell, None);
    }

    #[test]
    fn lint_flags_raw_input_writes_into_attacker_reachable_cells() {
        let mut app = WebApp::new("lint-so-test");
        app.add_plugin(joza_webapp::app::Plugin::new(
            "writer",
            "1",
            r#"
            $v = $_POST['v'];
            mysql_query("UPDATE prefs SET val='" . $v . "' WHERE id=1");
            "#,
        ));
        app.add_plugin(joza_webapp::app::Plugin::new(
            "reader",
            "1",
            r#"
            $r = mysql_query("SELECT val FROM prefs WHERE id=1");
            $row = mysql_fetch_row($r);
            mysql_query("SELECT * FROM stock WHERE id=" . $row[0]);
            "#,
        ));
        let lint = unparameterized_sink_lint(&app);
        let plant = lint
            .iter()
            .find(|s| s.dirty_cell.is_some())
            .expect("plant write into attacker-reachable cell not flagged");
        assert_eq!(plant.route, "writer");
        assert_eq!(plant.dirty_cell, Some(("prefs".into(), "val".into())));
        assert_eq!(plant.sink, "mysql_query");
        assert!(!plant.sources.is_empty(), "{plant:?}");
    }

    #[test]
    fn harden_app_reports_every_route() {
        let mut app = WebApp::new("app-test");
        app.add_plugin(joza_webapp::app::Plugin::new(
            "good",
            "1",
            r#"
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id=" . $id);
            "#,
        ));
        app.add_plugin(joza_webapp::app::Plugin::new(
            "bad",
            "1",
            r#"
            $q = build_query_somehow($_GET['x']);
            mysql_query($q);
            "#,
        ));
        let (hardened, report) = harden_app(&app);
        assert_eq!(report.routes.len(), 2);
        assert_eq!(report.rewritten_count(), 1);
        assert_eq!(report.rewritten_routes(), vec!["good".to_string()]);
        assert!(hardened.plugin("good").unwrap().source.contains("db_query"));
        assert_eq!(hardened.plugin("bad").unwrap().source, app.plugin("bad").unwrap().source);
    }
}
