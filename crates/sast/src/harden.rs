//! Static parameterization: rewrite modeled sinks into prepared calls.
//!
//! PR 4's query-model inference proves, per sink site, that every query
//! the site can emit has the shape `Lit Hole Lit …` — statically known
//! SQL text with dynamic scalars confined to data-literal positions.
//! That proof is exactly the licence to *repair* the site (ASSIST; "You
//! shall not pass"): replace the string-concatenation sink with a
//! prepared-statement call whose text is the literal skeleton and whose
//! parameters are the original dynamic subexpressions.
//!
//! The pass re-interprets each route's AST with a **pieces domain**: a
//! variable is either `Scalar` (holds a dynamic value usable as one bound
//! parameter), `Inline` (holds a known concatenation of literal text and
//! pure dynamic pieces, which the sink rewrite may inline), or `Opaque`
//! (not safely expressible — the route is skipped with a reason). At each
//! sink, the query argument decomposes into literal/dynamic pieces; a
//! quote-context scan then assembles the prepared text:
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
//! column — fails the parse and skips the route. Evaluation order is
//! preserved: unmoved pieces are evaluated at the sink exactly as the
//! original concatenation did, and pieces inlined from earlier
//! assignments are required to be pure and are invalidated when any
//! variable they read is reassigned.
//!
//! The rewrite is verified *differentially* (`joza_lab`'s harden
//! driver): original and hardened applications must produce bit-identical
//! responses and database states over the benign corpus, and the hardened
//! application must neutralize every exploit targeting a rewritten route.

use crate::absint::{assigned_vars_expr, assigned_vars_stmt};
use crate::querymodel::{infer_plugin, infer_program};
use crate::summaries::is_sink;
use joza_phpsim::ast::{AssignOp, BinOp, Expr, InterpPart, Stmt, SUPERGLOBALS};
use joza_phpsim::emit::emit_program;
use joza_phpsim::parser::parse_program;
use joza_phpsim::value::PValue;
use joza_sqlparse::parser::parse as parse_sql;
use joza_webapp::app::WebApp;
use std::collections::{BTreeMap, BTreeSet};

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

    // Gate on the inference pass: only routes whose model is complete
    // carry the proof that every dynamic input is a data-literal hole.
    let model = infer_program(route, &prog);
    report.sinks = model.sites.len();
    if model.sites.iter().any(|s| s.templates.is_none()) {
        report.skip = Some(if has_prepared_db_query(&prog) {
            SkipReason::AlreadyPrepared
        } else {
            SkipReason::IncompleteModel
        });
        return (report, None);
    }

    let mut rw = Rewriter { failure: None, sinks: 0, rewritten: 0, placeholders: 0 };
    let mut env = Env::new();
    rw.walk_block(&mut prog, &mut env);
    report.sinks = rw.sinks;
    if let Some(reason) = rw.failure {
        report.skip = Some(reason);
        return (report, None);
    }
    report.sinks_rewritten = rw.rewritten;
    report.placeholders = rw.placeholders;

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
// The pieces domain.
// ---------------------------------------------------------------------

/// One constituent of a query under construction.
#[derive(Debug, Clone, PartialEq)]
enum Piece {
    /// Statically known text (string conversion already applied).
    Lit(String),
    /// A dynamic subexpression. `hoisted` pieces were captured from an
    /// earlier assignment and will be re-evaluated at the sink — they
    /// must be pure, and are invalidated if any variable they read is
    /// reassigned before use.
    Dyn { expr: Expr, hoisted: bool },
}

/// What the rewriter knows about a variable.
#[derive(Debug, Clone, PartialEq)]
enum Entry {
    /// Holds a dynamic value; usable as a single bound parameter
    /// (`$v` re-read at the sink is always the runtime value).
    Scalar,
    /// Holds a known concatenation with literal text; the sink rewrite
    /// inlines these pieces so the literals join the SQL skeleton.
    Inline(Vec<Piece>),
    /// Not safely expressible; using it at a sink skips the route.
    Opaque(SkipReason),
}

type Env = BTreeMap<String, Entry>;

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
        Expr::Lit(_) | Expr::Var(_) | Expr::Interp(_) => true,
        Expr::Index { base, index } => is_pure(base) && is_pure(index),
        Expr::Unary { expr, .. } => is_pure(expr),
        Expr::Binary { left, right, .. } => is_pure(left) && is_pure(right),
        Expr::Ternary { cond, then_val, else_val } => {
            is_pure(cond) && then_val.as_deref().is_none_or(is_pure) && is_pure(else_val)
        }
        Expr::ArrayLit(items) => {
            items.iter().all(|(k, v)| k.as_ref().is_none_or(is_pure) && is_pure(v))
        }
        Expr::Isset(args) => args.iter().all(is_pure),
        Expr::Empty(e) => is_pure(e),
        Expr::AssignExpr { .. } => false,
        Expr::Call { name, args } => {
            PURE_FNS.contains(&name.to_ascii_lowercase().as_str()) && args.iter().all(is_pure)
        }
    }
}

/// Variables an expression reads (hoisting validity tracking).
fn free_vars(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Lit(_) => {}
        Expr::Var(name) => {
            out.insert(name.clone());
        }
        Expr::Interp(parts) => {
            for p in parts {
                if let InterpPart::Var(name) = p {
                    out.insert(name.clone());
                }
            }
        }
        Expr::Index { base, index } => {
            free_vars(base, out);
            free_vars(index, out);
        }
        Expr::Call { args, .. } | Expr::Isset(args) => {
            for a in args {
                free_vars(a, out);
            }
        }
        Expr::Unary { expr, .. } | Expr::Empty(expr) => free_vars(expr, out),
        Expr::Binary { left, right, .. } => {
            free_vars(left, out);
            free_vars(right, out);
        }
        Expr::Ternary { cond, then_val, else_val } => {
            free_vars(cond, out);
            if let Some(t) = then_val {
                free_vars(t, out);
            }
            free_vars(else_val, out);
        }
        Expr::ArrayLit(items) => {
            for (k, v) in items {
                if let Some(k) = k {
                    free_vars(k, out);
                }
                free_vars(v, out);
            }
        }
        Expr::AssignExpr { var, expr } => {
            out.insert(var.clone());
            free_vars(expr, out);
        }
    }
}

fn has_prepared_db_query(prog: &[Stmt]) -> bool {
    fn in_expr(e: &Expr) -> bool {
        match e {
            Expr::Call { name, args } => {
                (name.eq_ignore_ascii_case("db_query") && args.len() >= 2)
                    || args.iter().any(in_expr)
            }
            Expr::Index { base, index } => in_expr(base) || in_expr(index),
            Expr::Unary { expr, .. } | Expr::Empty(expr) => in_expr(expr),
            Expr::Binary { left, right, .. } => in_expr(left) || in_expr(right),
            Expr::Ternary { cond, then_val, else_val } => {
                in_expr(cond) || then_val.as_deref().is_some_and(in_expr) || in_expr(else_val)
            }
            Expr::ArrayLit(items) => {
                items.iter().any(|(k, v)| k.as_ref().is_some_and(in_expr) || in_expr(v))
            }
            Expr::Isset(args) => args.iter().any(in_expr),
            Expr::AssignExpr { expr, .. } => in_expr(expr),
            Expr::Lit(_) | Expr::Var(_) | Expr::Interp(_) => false,
        }
    }
    fn in_stmt(s: &Stmt) -> bool {
        match s {
            Stmt::Expr(e) | Stmt::Return(Some(e)) | Stmt::Exit(Some(e)) => in_expr(e),
            Stmt::Assign { indices, expr, .. } => {
                indices.iter().flatten().any(in_expr) || in_expr(expr)
            }
            Stmt::If { cond, then_branch, else_branch } => {
                in_expr(cond) || then_branch.iter().any(in_stmt) || else_branch.iter().any(in_stmt)
            }
            Stmt::While { cond, body } => in_expr(cond) || body.iter().any(in_stmt),
            Stmt::Foreach { array, body, .. } => in_expr(array) || body.iter().any(in_stmt),
            Stmt::Echo(exprs) => exprs.iter().any(in_expr),
            Stmt::Return(None) | Stmt::Exit(None) | Stmt::Break | Stmt::Continue => false,
        }
    }
    prog.iter().any(in_stmt)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Exited,
}

struct Rewriter {
    failure: Option<SkipReason>,
    sinks: usize,
    rewritten: usize,
    placeholders: usize,
}

impl Rewriter {
    fn fail(&mut self, reason: SkipReason) {
        if self.failure.is_none() {
            self.failure = Some(reason);
        }
    }

    fn walk_block(&mut self, stmts: &mut [Stmt], env: &mut Env) -> Flow {
        for stmt in stmts.iter_mut() {
            if self.walk_stmt(stmt, env) == Flow::Exited {
                return Flow::Exited;
            }
        }
        Flow::Normal
    }

    fn walk_stmt(&mut self, stmt: &mut Stmt, env: &mut Env) -> Flow {
        match stmt {
            Stmt::Expr(e) => {
                self.rewrite_expr(e, env);
            }
            Stmt::Assign { var, indices, op, expr } => {
                for idx in indices.iter_mut().flatten() {
                    self.rewrite_expr(idx, env);
                }
                // Classify the *original* right-hand side before any sink
                // inside it is replaced (the classification describes the
                // runtime value either way; the original is what the
                // model pass saw).
                let entry = self.assignment_entry(var, indices, op.as_ref(), expr, env);
                self.rewrite_expr(expr, env);
                env.insert(var.clone(), entry);
                kill_references(env, var);
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.rewrite_expr(cond, env);
                let mut then_env = env.clone();
                let then_flow = self.walk_block(then_branch, &mut then_env);
                let mut else_env = env.clone();
                let else_flow = self.walk_block(else_branch, &mut else_env);
                match (then_flow, else_flow) {
                    (Flow::Normal, Flow::Normal) => *env = join_env(&then_env, &else_env),
                    (Flow::Normal, Flow::Exited) => *env = then_env,
                    (Flow::Exited, Flow::Normal) => *env = else_env,
                    (Flow::Exited, Flow::Exited) => return Flow::Exited,
                }
            }
            Stmt::While { cond, body } => {
                let mut assigned = BTreeSet::new();
                assigned_vars_expr(cond, &mut assigned);
                for s in body.iter() {
                    assigned_vars_stmt(s, &mut assigned);
                }
                let pre = env.clone();
                enter_loop(env, &assigned);
                self.rewrite_expr(cond, env);
                self.walk_block(body, env);
                exit_loop(env, &pre, &assigned);
            }
            Stmt::Foreach { array, key_var, val_var, body } => {
                self.rewrite_expr(array, env);
                let mut assigned = BTreeSet::new();
                if let Some(k) = key_var {
                    assigned.insert(k.clone());
                }
                assigned.insert(val_var.clone());
                for s in body.iter() {
                    assigned_vars_stmt(s, &mut assigned);
                }
                let pre = env.clone();
                enter_loop(env, &assigned);
                // Element and key values are runtime scalars of the
                // iterated array — single bound parameters.
                env.insert(val_var.clone(), Entry::Scalar);
                if let Some(k) = key_var {
                    env.insert(k.clone(), Entry::Scalar);
                }
                self.walk_block(body, env);
                exit_loop(env, &pre, &assigned);
            }
            Stmt::Echo(exprs) => {
                for e in exprs {
                    self.rewrite_expr(e, env);
                }
            }
            Stmt::Return(e) | Stmt::Exit(e) => {
                if let Some(e) = e {
                    self.rewrite_expr(e, env);
                }
                return Flow::Exited;
            }
            Stmt::Break | Stmt::Continue => return Flow::Exited,
        }
        Flow::Normal
    }

    /// The env entry an assignment produces.
    fn assignment_entry(
        &mut self,
        var: &str,
        indices: &[Option<Expr>],
        op: Option<&AssignOp>,
        expr: &Expr,
        env: &Env,
    ) -> Entry {
        if !indices.is_empty() {
            // Smashed array element write: the variable as a whole is no
            // longer a value the pieces domain can place.
            return Entry::Opaque(SkipReason::UnresolvedQueryExpr);
        }
        match op {
            Some(AssignOp::Add) | Some(AssignOp::Sub) => Entry::Scalar,
            Some(AssignOp::Concat) => {
                let old = match env.get(var) {
                    Some(Entry::Inline(ps)) => ps.clone(),
                    // Appending to a scalar (or unknown) would capture a
                    // self-referential value; only straight-line builds
                    // from literals are expressible.
                    _ => return Entry::Opaque(SkipReason::UnresolvedQueryExpr),
                };
                match decompose(expr, env, true) {
                    Ok(mut rhs) => {
                        let mut ps = old;
                        ps.append(&mut rhs);
                        entry_from_pieces(ps)
                    }
                    Err(r) => Entry::Opaque(r),
                }
            }
            None => match decompose(expr, env, true) {
                Ok(ps) => entry_from_pieces(ps),
                Err(r) => Entry::Opaque(r),
            },
        }
    }

    /// Rewrites an operand that may not run (a ternary arm, the right side
    /// of `&&`/`||`): what it assigns joins with the skipped path's state,
    /// so a sink after it never inlines a value that may not be there.
    fn rewrite_maybe(&mut self, e: &mut Expr, env: &mut Env) {
        let mut ran = env.clone();
        self.rewrite_expr(e, &mut ran);
        *env = join_env(env, &ran);
    }

    /// Recursively rewrites sinks inside an expression, updating the env
    /// for embedded assignment expressions.
    fn rewrite_expr(&mut self, e: &mut Expr, env: &mut Env) {
        let replacement = match e {
            Expr::Call { name, args } if is_sink(name) => {
                self.sinks += 1;
                if self.failure.is_some() {
                    return;
                }
                let lower = name.to_ascii_lowercase();
                let query_idx = match lower.as_str() {
                    "mysqli_query" if args.len() >= 2 => 1,
                    "db_query" if args.len() >= 2 => {
                        // Already parameterized (route-level gating makes
                        // this unreachable; keep the reason precise).
                        self.fail(SkipReason::AlreadyPrepared);
                        return;
                    }
                    _ => 0,
                };
                if args.is_empty() {
                    self.fail(SkipReason::UnresolvedQueryExpr);
                    return;
                }
                for (i, a) in args.iter_mut().enumerate() {
                    if i != query_idx {
                        self.rewrite_expr(a, env);
                    }
                }
                match decompose(&args[query_idx], env, false)
                    .and_then(|pieces| build_prepared(&pieces))
                {
                    Ok((text, bindings)) => {
                        self.rewritten += 1;
                        self.placeholders += bindings.len();
                        Some(prepared_call(&text, bindings))
                    }
                    Err(reason) => {
                        self.fail(reason);
                        return;
                    }
                }
            }
            Expr::AssignExpr { var, expr } => {
                let entry = match decompose(expr, env, true) {
                    Ok(ps) => entry_from_pieces(ps),
                    Err(r) => Entry::Opaque(r),
                };
                self.rewrite_expr(expr, env);
                let var = var.clone();
                env.insert(var.clone(), entry);
                kill_references(env, &var);
                None
            }
            Expr::Index { base, index } => {
                self.rewrite_expr(base, env);
                self.rewrite_expr(index, env);
                None
            }
            Expr::Call { args, .. } | Expr::Isset(args) => {
                for a in args {
                    self.rewrite_expr(a, env);
                }
                None
            }
            Expr::Unary { expr, .. } | Expr::Empty(expr) => {
                self.rewrite_expr(expr, env);
                None
            }
            Expr::Binary { left, op, right } => {
                self.rewrite_expr(left, env);
                if matches!(op, BinOp::And | BinOp::Or) {
                    self.rewrite_maybe(right, env);
                } else {
                    self.rewrite_expr(right, env);
                }
                None
            }
            Expr::Ternary { cond, then_val, else_val } => {
                self.rewrite_expr(cond, env);
                if let Some(t) = then_val {
                    self.rewrite_maybe(t, env);
                }
                self.rewrite_maybe(else_val, env);
                None
            }
            Expr::ArrayLit(items) => {
                for (k, v) in items {
                    if let Some(k) = k {
                        self.rewrite_expr(k, env);
                    }
                    self.rewrite_expr(v, env);
                }
                None
            }
            Expr::Lit(_) | Expr::Var(_) | Expr::Interp(_) => None,
        };
        if let Some(new) = replacement {
            *e = new;
        }
    }
}

/// On entering a loop, every variable the loop may assign loses its
/// inline pieces: the entry state mixes pre-loop and previous-iteration
/// values.
fn enter_loop(env: &mut Env, assigned: &BTreeSet<String>) {
    for v in assigned {
        env.insert(v.clone(), Entry::Opaque(SkipReason::LoopCarriedFragment));
    }
    // Inline entries reading loop-assigned variables are stale too.
    for v in assigned {
        kill_references(env, v);
    }
}

/// On exit, a loop-assigned variable survives as `Scalar` only if it was
/// scalar-shaped both before the loop and at the end of the body walk
/// (zero and non-zero iteration paths agree); anything else is opaque.
fn exit_loop(env: &mut Env, pre: &Env, assigned: &BTreeSet<String>) {
    for v in assigned {
        let pre_scalar = matches!(pre.get(v), None | Some(Entry::Scalar));
        let post_scalar = matches!(env.get(v), Some(Entry::Scalar));
        let entry = if pre_scalar && post_scalar {
            Entry::Scalar
        } else {
            Entry::Opaque(SkipReason::LoopCarriedFragment)
        };
        env.insert(v.clone(), entry);
    }
}

/// Reassigning `var` invalidates every inline capture that reads it.
fn kill_references(env: &mut Env, var: &str) {
    let stale: Vec<String> = env
        .iter()
        .filter(|(_, entry)| match entry {
            Entry::Inline(ps) => ps.iter().any(|p| match p {
                Piece::Dyn { expr, hoisted: true } => {
                    let mut vars = BTreeSet::new();
                    free_vars(expr, &mut vars);
                    vars.contains(var)
                }
                _ => false,
            }),
            _ => false,
        })
        .map(|(k, _)| k.clone())
        .collect();
    for k in stale {
        env.insert(k, Entry::Opaque(SkipReason::UnresolvedQueryExpr));
    }
}

fn entry_from_pieces(pieces: Vec<Piece>) -> Entry {
    let has_lit = pieces.iter().any(|p| matches!(p, Piece::Lit(_)));
    if !has_lit {
        // No skeleton text: the value is one dynamic scalar; re-reading
        // the variable at the sink is always faithful.
        return Entry::Scalar;
    }
    let all_pure = pieces.iter().all(|p| match p {
        Piece::Lit(_) => true,
        Piece::Dyn { expr, .. } => is_pure(expr),
    });
    if all_pure {
        Entry::Inline(pieces)
    } else {
        Entry::Opaque(SkipReason::ImpureBinding)
    }
}

/// Decomposes an expression into pieces. `hoisted` marks dynamic pieces
/// as captured-for-later (assignment right-hand sides); at a sink the
/// directly-present subexpressions stay in place (`hoisted = false`) and
/// evaluate exactly where the original concatenation evaluated them.
fn decompose(e: &Expr, env: &Env, hoisted: bool) -> Result<Vec<Piece>, SkipReason> {
    match e {
        Expr::Lit(v) => Ok(vec![Piece::Lit(v.to_php_string())]),
        Expr::Interp(parts) => {
            let mut out = Vec::new();
            for p in parts {
                match p {
                    InterpPart::Lit(s) => out.push(Piece::Lit(s.clone())),
                    InterpPart::Var(name) => out.extend(resolve_var(name, env, hoisted)?),
                }
            }
            Ok(out)
        }
        Expr::Binary { left, op, right } if *op == BinOp::Concat => {
            let mut out = decompose(left, env, hoisted)?;
            out.extend(decompose(right, env, hoisted)?);
            Ok(out)
        }
        Expr::Var(name) => resolve_var(name, env, hoisted),
        other => Ok(vec![Piece::Dyn { expr: other.clone(), hoisted }]),
    }
}

fn resolve_var(name: &str, env: &Env, hoisted: bool) -> Result<Vec<Piece>, SkipReason> {
    if SUPERGLOBALS.contains(&name) {
        return Ok(vec![Piece::Dyn { expr: Expr::Var(name.to_string()), hoisted }]);
    }
    match env.get(name) {
        Some(Entry::Inline(ps)) => Ok(ps.clone()),
        Some(Entry::Scalar) | None => {
            Ok(vec![Piece::Dyn { expr: Expr::Var(name.to_string()), hoisted }])
        }
        Some(Entry::Opaque(reason)) => Err(*reason),
    }
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
fn build_prepared(pieces: &[Piece]) -> Result<(String, Vec<Expr>), SkipReason> {
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
            Piece::Dyn { expr, .. } => match &mut region {
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

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, va) in a {
        let joined = match b.get(k) {
            Some(vb) if va == vb => va.clone(),
            Some(Entry::Scalar) if matches!(va, Entry::Scalar) => Entry::Scalar,
            Some(_) => Entry::Opaque(SkipReason::UnresolvedQueryExpr),
            // Assigned on one path only: the other path's value is the
            // prior (unknown-here) one.
            None => match va {
                Entry::Scalar => Entry::Scalar,
                _ => Entry::Opaque(SkipReason::UnresolvedQueryExpr),
            },
        };
        out.insert(k.clone(), joined);
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            let v = match vb {
                Entry::Scalar => Entry::Scalar,
                _ => Entry::Opaque(SkipReason::UnresolvedQueryExpr),
            };
            out.insert(k.clone(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harden(src: &str) -> (RouteHarden, Option<String>) {
        harden_source("test", src)
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
