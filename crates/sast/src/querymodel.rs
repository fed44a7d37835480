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
//! compile. Walk order, preorder statement ids, loop frames, and branch
//! joins all mirror `analyzer.rs` exactly, so both passes agree on which
//! call sites exist.

use crate::summaries::is_sink;
use joza_phpsim::ast::{AssignOp, BinOp, Expr, InterpPart, Stmt, UnaryOp};
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
/// Loop-widening safety bound; Rep-absorption converges far earlier.
const MAX_LOOP_ITERS: usize = 12;

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
    let mut interp = ModelInterp {
        sinks: BTreeMap::new(),
        break_frames: Vec::new(),
        continue_frames: Vec::new(),
    };
    let mut env = Env::new();
    let mut next = 0usize;
    interp.eval_block(prog, &mut env, &mut next);
    let sites = interp
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

type Env = BTreeMap<String, SVal>;

const SOURCE_SUPERGLOBALS: &[&str] = &["_GET", "_POST", "_COOKIE", "_REQUEST"];

fn is_source_superglobal(name: &str) -> bool {
    SOURCE_SUPERGLOBALS.contains(&name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Exited,
}

struct ModelInterp {
    /// Sink sites keyed by (stmt id, sink name); loop re-visits join in.
    sinks: BTreeMap<(usize, String), SVal>,
    break_frames: Vec<Vec<Env>>,
    continue_frames: Vec<Vec<Env>>,
}

impl ModelInterp {
    fn eval_block(&mut self, stmts: &[Stmt], env: &mut Env, next: &mut usize) -> Flow {
        for (i, stmt) in stmts.iter().enumerate() {
            if self.eval_stmt(stmt, env, next) == Flow::Exited {
                *next += count_block(&stmts[i + 1..]);
                return Flow::Exited;
            }
        }
        Flow::Normal
    }

    fn eval_stmt(&mut self, stmt: &Stmt, env: &mut Env, next: &mut usize) -> Flow {
        let id = *next;
        *next += 1;
        match stmt {
            Stmt::Expr(e) => {
                self.eval_expr(e, env, id);
            }
            Stmt::Assign { var, indices, op, expr } => {
                for idx in indices.iter().flatten() {
                    self.eval_expr(idx, env, id);
                }
                let mut val = self.eval_expr(expr, env, id);
                match op {
                    Some(AssignOp::Concat) => {
                        let old = env.get(var).cloned().unwrap_or_default();
                        val = old.concat(&val);
                    }
                    Some(AssignOp::Add) | Some(AssignOp::Sub) => {
                        // Arithmetic yields a number: one data literal.
                        val = SVal::hole();
                    }
                    None => {}
                }
                if indices.is_empty() {
                    env.insert(var.clone(), val);
                } else {
                    // Smashed arrays: weak update, elements joined.
                    let joined = env.get(var).map_or_else(|| val.clone(), |old| old.join(&val));
                    env.insert(var.clone(), joined);
                }
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.eval_expr(cond, env, id);
                let mut then_env = env.clone();
                let then_flow = self.eval_block(then_branch, &mut then_env, next);
                let mut else_env = env.clone();
                let else_flow = self.eval_block(else_branch, &mut else_env, next);
                match (then_flow, else_flow) {
                    (Flow::Normal, Flow::Normal) => *env = join_env(&then_env, &else_env),
                    (Flow::Normal, Flow::Exited) => *env = then_env,
                    (Flow::Exited, Flow::Normal) => *env = else_env,
                    (Flow::Exited, Flow::Exited) => return Flow::Exited,
                }
            }
            Stmt::While { cond, body } => {
                self.eval_expr(cond, env, id);
                self.loop_fixpoint(body, env, next, |interp, body, env, next| {
                    interp.eval_block(body, env, next);
                });
                self.eval_expr(cond, env, id);
            }
            Stmt::Foreach { array, key_var, val_var, body } => {
                let arr = self.eval_expr(array, env, id);
                // Smashed arrays: elements take the array's own template
                // union (an array literal's values, or a hole for a
                // request-derived array).
                let elem = arr.clone();
                let kv = key_var.clone();
                let vv = val_var.clone();
                self.loop_fixpoint(body, env, next, move |interp, body, env, next| {
                    env.insert(vv.clone(), elem.clone());
                    if let Some(k) = &kv {
                        // Keys are dynamic scalars (and the CVE-2014-3704
                        // injection channel — a hole, never a literal).
                        env.insert(k.clone(), SVal::hole());
                    }
                    interp.eval_block(body, env, next);
                });
            }
            Stmt::Echo(exprs) => {
                for e in exprs {
                    self.eval_expr(e, env, id);
                }
            }
            Stmt::Return(value) | Stmt::Exit(value) => {
                if let Some(e) = value {
                    self.eval_expr(e, env, id);
                }
            }
            Stmt::Break => {
                if let Some(frame) = self.break_frames.last_mut() {
                    frame.push(env.clone());
                }
                return Flow::Exited;
            }
            Stmt::Continue => {
                if let Some(frame) = self.continue_frames.last_mut() {
                    frame.push(env.clone());
                }
                return Flow::Exited;
            }
        }
        Flow::Normal
    }

    /// Same skeleton as `analyzer::loop_fixpoint`, but the widening
    /// replaces the plain join so `.=` accumulation converges to a
    /// `Rep`-form fixpoint instead of growing forever.
    fn loop_fixpoint<F>(&mut self, body: &[Stmt], env: &mut Env, next: &mut usize, mut pass: F)
    where
        F: FnMut(&mut Self, &[Stmt], &mut Env, &mut usize),
    {
        let body_start = *next;
        let body_len = count_block(body);
        self.break_frames.push(Vec::new());
        self.continue_frames.push(Vec::new());
        for iter in 0..MAX_LOOP_ITERS {
            let mut trial = env.clone();
            let mut counter = body_start;
            pass(self, body, &mut trial, &mut counter);
            debug_assert_eq!(counter, body_start + body_len);
            for cont in self.continue_frames.last_mut().expect("loop frame").drain(..) {
                trial = join_env(&trial, &cont);
            }
            let widened = if iter + 1 == MAX_LOOP_ITERS {
                // Safety valve: force ⊤ on anything still moving.
                top_out_diff(env, &trial)
            } else {
                widen_env(env, &trial)
            };
            if widened == *env {
                break;
            }
            *env = widened;
        }
        self.continue_frames.pop();
        for broke in self.break_frames.pop().expect("loop frame") {
            *env = join_env(env, &broke);
        }
        *next = body_start + body_len;
    }

    fn eval_expr(&mut self, expr: &Expr, env: &mut Env, stmt_id: usize) -> SVal {
        match expr {
            Expr::Lit(v) => match v {
                PValue::Str(s) => SVal::lit(s),
                PValue::Int(i) => SVal::lit(&i.to_string()),
                _ => SVal::lit(&v.to_php_string()),
            },
            Expr::Var(name) => read_var(name, env),
            Expr::Interp(parts) => {
                let mut out = SVal::empty();
                for p in parts {
                    let v = match p {
                        InterpPart::Lit(s) => SVal::lit(s),
                        InterpPart::Var(name) => read_var(name, env),
                    };
                    out = out.concat(&v);
                }
                out
            }
            Expr::Index { base, index } => {
                if let Expr::Var(name) = base.as_ref() {
                    if is_source_superglobal(name) {
                        self.eval_expr(index, env, stmt_id);
                        return SVal::hole();
                    }
                }
                let b = self.eval_expr(base, env, stmt_id);
                self.eval_expr(index, env, stmt_id);
                // One element of a smashed value: scalar unless the base
                // is a known set of scalars.
                if b.scalarish() {
                    b
                } else {
                    SVal::hole()
                }
            }
            Expr::Call { name, args } => self.eval_call(name, args, env, stmt_id),
            Expr::Unary { op, expr } => {
                let v = self.eval_expr(expr, env, stmt_id);
                match op {
                    UnaryOp::Silence => v,
                    // Coerce to number/bool: a single literal.
                    UnaryOp::Not | UnaryOp::Neg => SVal::hole(),
                }
            }
            Expr::Binary { left, op, right } => {
                let l = self.eval_expr(left, env, stmt_id);
                let r = self.eval_expr(right, env, stmt_id);
                match op {
                    BinOp::Concat => l.concat(&r),
                    _ => SVal::hole(),
                }
            }
            Expr::Ternary { cond, then_val, else_val } => {
                let c = self.eval_expr(cond, env, stmt_id);
                let e = self.eval_expr(else_val, env, stmt_id);
                match then_val {
                    Some(t) => {
                        let t = self.eval_expr(t, env, stmt_id);
                        t.join(&e)
                    }
                    None => c.join(&e),
                }
            }
            Expr::ArrayLit(items) => {
                // The smashed array value is the union of its element
                // templates (what a foreach reads back out).
                let mut out = SVal::T(BTreeSet::new());
                for (k, v) in items {
                    if let Some(k) = k {
                        self.eval_expr(k, env, stmt_id);
                    }
                    let ev = self.eval_expr(v, env, stmt_id);
                    out = out.join(&ev);
                }
                if matches!(&out, SVal::T(s) if s.is_empty()) {
                    SVal::empty()
                } else {
                    out
                }
            }
            Expr::Isset(exprs) => {
                for e in exprs {
                    self.eval_expr(e, env, stmt_id);
                }
                SVal::hole()
            }
            Expr::Empty(e) => {
                self.eval_expr(e, env, stmt_id);
                SVal::hole()
            }
            Expr::AssignExpr { var, expr } => {
                let v = self.eval_expr(expr, env, stmt_id);
                env.insert(var.clone(), v.clone());
                v
            }
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], env: &mut Env, stmt_id: usize) -> SVal {
        let vals: Vec<SVal> = args.iter().map(|a| self.eval_expr(a, env, stmt_id)).collect();
        let lower = name.to_ascii_lowercase();
        if is_sink(&lower) {
            self.record_sink(stmt_id, &lower, &vals, args);
        }
        match lower.as_str() {
            // Structured string builders (satellite: keep in lockstep
            // with `summaries::effect_of`'s Propagate classification).
            "sprintf" | "vsprintf" => sprintf_model(vals.first(), &vals[1.min(vals.len())..]),
            "implode" | "join" => implode_model(&vals),
            "str_replace" => str_replace_model(&vals),

            // Scalar producers: casts, escapes, decodes, fetches, clocks.
            // Structure-wise they all yield one dynamic scalar as long as
            // the input was scalar-shaped.
            "intval" | "absint" | "abs" | "floatval" | "doubleval" | "strlen" | "strpos"
            | "count" | "sizeof" | "md5" | "number_format" | "preg_match" | "in_array"
            | "is_array" | "is_numeric" | "is_string" | "mysql_num_rows" | "mysqli_num_rows"
            | "time" | "rand" | "mt_rand" | "current_time" => SVal::hole(),

            "addslashes"
            | "magic_quotes"
            | "wp_magic_quotes"
            | "esc_sql"
            | "mysql_real_escape_string"
            | "mysqli_real_escape_string"
            | "real_escape_string"
            | "htmlspecialchars"
            | "esc_html"
            | "esc_attr"
            | "stripslashes"
            | "urldecode"
            | "rawurldecode"
            | "base64_decode"
            | "trim"
            | "strtolower"
            | "strtoupper" => {
                let joined = vals.iter().fold(SVal::empty(), |acc, v| acc.join(v));
                if joined.scalarish() {
                    SVal::hole()
                } else {
                    SVal::Top
                }
            }

            "mysql_fetch_assoc" | "mysql_fetch_array" | "mysql_fetch_row" | "mysql_result" => {
                SVal::hole()
            }

            // Sinks return handles; error strings are dynamic scalars.
            "mysql_query" | "mysqli_query" | "db_query" | "mysql_error" | "mysqli_error" => {
                SVal::hole()
            }

            // Side-effect-only calls.
            "error_log" | "header" | "setcookie" | "session_start" | "ob_start" => SVal::hole(),

            // Unknown builtins could build arbitrary SQL fragments: ⊤
            // keeps the endpoint model honest about completeness.
            _ => SVal::Top,
        }
    }

    fn record_sink(&mut self, stmt_id: usize, sink: &str, vals: &[SVal], args: &[Expr]) {
        let query = match sink {
            // mysqli_query($link, $sql) — legacy 1-arg shape tolerated.
            "mysqli_query" if vals.len() >= 2 => vals[1].clone(),
            // db_query with an $args array goes through placeholder
            // expansion that splices *array keys* into the statement
            // text (CVE-2014-3704): not statically modelable.
            "db_query" if args.len() >= 2 => SVal::Top,
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

fn read_var(name: &str, env: &Env) -> SVal {
    if is_source_superglobal(name) {
        return SVal::hole();
    }
    env.get(name).cloned().unwrap_or_default()
}

/// `sprintf(fmt, args…)`: when the format is one static literal, expand
/// `%d`/`%s`/`%f`/`%u`/`%x` to the corresponding argument's templates
/// (scalar args become holes) and `%%` to `%`; otherwise ⊤.
fn sprintf_model(fmt: Option<&SVal>, args: &[SVal]) -> SVal {
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
    let mut arg_i = 0;
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
                let arg = args.get(arg_i).cloned().unwrap_or_default();
                arg_i += 1;
                // A conversion always emits one scalar, whatever fed it.
                let _ = arg;
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

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = a.clone();
    for (k, v) in b {
        match out.get(k) {
            Some(existing) => {
                let joined = existing.join(v);
                out.insert(k.clone(), joined);
            }
            None => {
                out.insert(k.clone(), v.clone());
            }
        }
    }
    out
}

fn widen_env(old: &Env, new: &Env) -> Env {
    let mut out = old.clone();
    for (k, v) in new {
        match out.get(k) {
            Some(existing) => {
                let w = widen(existing, v);
                out.insert(k.clone(), w);
            }
            None => {
                out.insert(k.clone(), v.clone());
            }
        }
    }
    out
}

/// The last-resort loop join: any variable still changing goes to ⊤.
fn top_out_diff(old: &Env, new: &Env) -> Env {
    let mut out = old.clone();
    for (k, v) in new {
        match out.get(k) {
            Some(existing) if existing == v => {}
            _ => {
                out.insert(k.clone(), SVal::Top);
            }
        }
    }
    out
}

/// Same preorder statement counting as `analyzer::count_block`.
fn count_block(stmts: &[Stmt]) -> usize {
    stmts.iter().map(count_stmt).sum()
}

fn count_stmt(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::If { then_branch, else_branch, .. } => {
            count_block(then_branch) + count_block(else_branch)
        }
        Stmt::While { body, .. } | Stmt::Foreach { body, .. } => count_block(body),
        _ => 0,
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
