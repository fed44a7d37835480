//! The abstract interpreter all three static passes run on.
//!
//! [`run`] owns *how* a phpsim program is walked: preorder statement ids
//! (the order of the parser's span table), branch joins, the
//! `break`/`continue` frames, the loop fixpoint and its pass cap, the
//! `while` condition re-read, the evaluation order of every expression,
//! and reads of the request superglobals. A [`Domain`] supplies only the
//! transfer functions. The taint pass ([`crate::analyzer`]), the
//! query-model pass ([`crate::querymodel`]) and the hardening pass
//! ([`crate::harden`]) are three domains, so they agree by construction on
//! which call sites exist, how they are numbered, and which reads are
//! request input.
//!
//! Branches are walked on cloned environments and joined afterwards.
//! `break`/`continue` end their abstract path: the environment at the
//! jump is recorded with the enclosing loop (break states join the loop's
//! exit state, continue states the next pass's entry) and the statements
//! after the jump are skipped on that path, so a strong update in
//! unreachable tail code can never scrub state that concretely escapes.
//! An operand that may not run (a ternary arm, the right side of
//! `&&`/`||`) joins its assignments in rather than overwriting.
//! A loop body is re-walked, from the same preorder base, until the
//! domain's loop join stops changing the environment. A loop still moving
//! after [`MAX_LOOP_PASSES`] sends every variable it may assign to the
//! domain's top above the join of all of them (so each keeps every
//! source the loop mixes in) and is walked once more on that state, so
//! the sinks inside it see the top values too.

use joza_phpsim::ast::{AssignOp, BinOp, Expr, InterpPart, Stmt, UnaryOp, SUPERGLOBALS};
use joza_phpsim::value::PValue;
use std::collections::{BTreeMap, BTreeSet};

/// Passes a loop body gets to reach a fixpoint before its assigned
/// variables go to top. Every loop of the lab, second-order and CMS routes
/// settles in two.
const MAX_LOOP_PASSES: usize = 12;

/// A value domain: the transfer functions the walker applies.
pub(crate) trait Domain {
    /// The abstract value of one variable; `Default` is an undefined one.
    type Val: Clone + Default;

    /// A literal.
    fn lit(&self, v: &PValue) -> Self::Val;
    /// A literal piece of an interpolated string.
    fn text(&self, s: &str) -> Self::Val;
    /// A value coerced to a number or a bool: arithmetic, comparisons,
    /// `!`, `-`, `isset`, `empty`.
    fn scalar(&self) -> Self::Val;
    /// String concatenation.
    fn concat(&self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// Join where paths or array elements meet.
    fn join(&self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// A read of request input: `$_GET[index]`, or the bare array.
    fn source(&self, superglobal: &str, index: Option<&Expr>) -> Self::Val;
    /// One element read out of a smashed array value, at any index.
    fn element(&self, array: Self::Val) -> Self::Val;
    /// A `foreach` key read out of a smashed array value.
    fn key(&self, array: &Self::Val) -> Self::Val;
    /// An array literal from its `(key, value)` items in order.
    fn array(&self, items: Vec<(Option<Self::Val>, Self::Val)>) -> Self::Val;
    /// The value an indexed write `$a[k1][k2] = v` joins into `$a`.
    fn keyed(&self, val: Self::Val, keys: Vec<Self::Val>) -> Self::Val;
    /// The builtin call `site` (to `name`) at statement `stmt_id` on its
    /// evaluated arguments; sinks are calls too.
    fn call(&mut self, stmt_id: usize, site: &Expr, name: &str, args: Vec<Self::Val>) -> Self::Val;
    /// A value about to be stored in `$var`.
    fn named(&self, val: Self::Val, var: &str) -> Self::Val;
    /// The loop join of one pass's value into the loop-entry value.
    fn widen(&self, old: &Self::Val, new: &Self::Val) -> Self::Val;
    /// True when the loop join changed nothing the fixpoint cares about.
    fn stable(&self, old: &Self::Val, new: &Self::Val) -> bool;
    /// Top above `val`: what a variable becomes when its loop hits the
    /// pass cap.
    fn top(&self, val: Self::Val) -> Self::Val;

    /// The value of the expression `expr`, from the value the transfer
    /// functions gave it.
    fn at(&self, _expr: &Expr, val: Self::Val) -> Self::Val {
        val
    }
    /// The value a read of `$name` yields, from its bound value.
    fn var(&self, _name: &str, val: Self::Val) -> Self::Val {
        val
    }
    /// A `foreach` value read out of an array value (smashed arrays: the
    /// array value itself).
    fn each(&self, array: &Self::Val) -> Self::Val {
        array.clone()
    }
    /// What a merge joins in for a variable one side never bound; `None`
    /// keeps the bound side's value.
    fn unbound(&self) -> Option<Self::Val> {
        None
    }
    /// Called after `$var` was bound in `env`.
    fn assigned(&self, _env: &mut Env<Self::Val>, _var: &str) {}
}

/// Walks `prog` from an empty environment and hands the domain back.
pub(crate) fn run<D: Domain>(dom: D, prog: &[Stmt]) -> D {
    let mut walker = Walker { dom, breaks: Vec::new(), continues: Vec::new() };
    walker.block(prog, &mut Env::new(), &mut 0);
    walker.dom
}

/// A variable environment.
pub(crate) type Env<V> = BTreeMap<String, V>;

/// How a statement hands control onward on one abstract path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Execution continues with the next statement.
    Normal,
    /// The path left via `break`/`continue`; its environment is already
    /// recorded with the enclosing loop.
    Exited,
}

/// A `foreach` loop's per-pass bindings: the array value, the key
/// variable and the value variable.
type Each<'a, V> = (&'a V, Option<&'a str>, &'a str);

struct Walker<D: Domain> {
    dom: D,
    /// Per enclosing loop, the environments captured at `break`.
    breaks: Vec<Vec<Env<D::Val>>>,
    /// Per enclosing loop, the environments captured at `continue`.
    continues: Vec<Vec<Env<D::Val>>>,
}

impl<D: Domain> Walker<D> {
    /// Walks a statement list. After a statement that exits the path, the
    /// tail is skipped but `next` still advances past it, so ids stay
    /// aligned with the span table.
    fn block(&mut self, stmts: &[Stmt], env: &mut Env<D::Val>, next: &mut usize) -> Flow {
        for (i, stmt) in stmts.iter().enumerate() {
            if self.stmt(stmt, env, next) == Flow::Exited {
                *next += count_block(&stmts[i + 1..]);
                return Flow::Exited;
            }
        }
        Flow::Normal
    }

    fn stmt(&mut self, stmt: &Stmt, env: &mut Env<D::Val>, next: &mut usize) -> Flow {
        let id = *next;
        *next += 1;
        match stmt {
            Stmt::Expr(e) => {
                self.expr(e, env, id);
            }
            Stmt::Assign { var, indices, op, expr } => {
                let keys: Vec<_> =
                    indices.iter().flatten().map(|k| self.expr(k, env, id)).collect();
                let val = self.expr(expr, env, id);
                let val = match op {
                    Some(AssignOp::Concat) => {
                        self.dom.concat(&env.get(var).cloned().unwrap_or_default(), &val)
                    }
                    Some(AssignOp::Add | AssignOp::Sub) => self.dom.scalar(),
                    None => val,
                };
                let mut val = self.dom.named(val, var);
                if !indices.is_empty() {
                    // Smashed arrays: a weak update joins into the whole.
                    val = self.dom.keyed(val, keys);
                    if let Some(old) = env.get(var) {
                        val = self.dom.join(old, &val);
                    }
                }
                env.insert(var.clone(), val);
                self.dom.assigned(env, var);
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.expr(cond, env, id);
                let mut then_env = env.clone();
                let then_flow = self.block(then_branch, &mut then_env, next);
                let mut else_env = env.clone();
                let else_flow = self.block(else_branch, &mut else_env, next);
                // A branch that exited contributes no state after the `if`.
                match (then_flow, else_flow) {
                    (Flow::Normal, Flow::Normal) => *env = self.merge(&then_env, &else_env, false),
                    (Flow::Normal, Flow::Exited) => *env = then_env,
                    (Flow::Exited, Flow::Normal) => *env = else_env,
                    (Flow::Exited, Flow::Exited) => return Flow::Exited,
                }
            }
            Stmt::While { cond, body } => {
                self.expr(cond, env, id);
                self.fixpoint(stmt, body, None, env, next);
                // Re-read the condition on the post state (`while ($row =
                // fetch(...))`).
                self.expr(cond, env, id);
            }
            Stmt::Foreach { array, key_var, val_var, body } => {
                let arr = self.expr(array, env, id);
                self.fixpoint(stmt, body, Some((&arr, key_var.as_deref(), val_var)), env, next);
            }
            Stmt::Echo(exprs) => {
                for e in exprs {
                    self.expr(e, env, id);
                }
            }
            Stmt::Return(value) | Stmt::Exit(value) => {
                if let Some(e) = value {
                    self.expr(e, env, id);
                }
            }
            Stmt::Break | Stmt::Continue => {
                let frames = if matches!(stmt, Stmt::Break) {
                    &mut self.breaks
                } else {
                    &mut self.continues
                };
                if let Some(frame) = frames.last_mut() {
                    frame.push(env.clone());
                }
                return Flow::Exited;
            }
        }
        Flow::Normal
    }

    /// Iterates the loop `stmt` with body `body` to a fixpoint of the
    /// domain's loop join (every pass numbering statements from the same
    /// preorder base), then advances `next` past the body.
    fn fixpoint(
        &mut self,
        stmt: &Stmt,
        body: &[Stmt],
        each: Option<Each<'_, D::Val>>,
        env: &mut Env<D::Val>,
        next: &mut usize,
    ) {
        let start = *next;
        self.breaks.push(Vec::new());
        self.continues.push(Vec::new());
        let mut settled = false;
        for _ in 0..MAX_LOOP_PASSES {
            let trial = self.pass(body, each, env, start);
            let widened = self.merge(env, &trial, true);
            settled = env.len() == widened.len()
                && env
                    .iter()
                    .zip(&widened)
                    .all(|((ka, va), (kb, vb))| ka == kb && self.dom.stable(va, vb));
            if settled {
                break;
            }
            *env = widened;
        }
        if !settled {
            let mut assigned = BTreeSet::new();
            assigned_vars_stmt(stmt, &mut assigned);
            let all = assigned
                .iter()
                .map(|var| env.get(var).cloned().unwrap_or_default())
                .reduce(|a, b| self.dom.join(&a, &b));
            if let Some(all) = all {
                let top = self.dom.top(all);
                for var in assigned {
                    env.insert(var, top.clone());
                }
            }
            let trial = self.pass(body, each, env, start);
            *env = self.merge(env, &trial, true);
        }
        self.continues.pop();
        for broke in self.breaks.pop().expect("loop frame") {
            *env = self.merge(env, &broke, false);
        }
        *next = start + count_block(body);
    }

    /// One pass over a loop body from `env`; `continue` states join the
    /// state the pass ends in.
    fn pass(
        &mut self,
        body: &[Stmt],
        each: Option<Each<'_, D::Val>>,
        env: &Env<D::Val>,
        start: usize,
    ) -> Env<D::Val> {
        let mut trial = env.clone();
        if let Some((arr, key_var, val_var)) = each {
            trial.insert(val_var.to_string(), self.dom.named(self.dom.each(arr), val_var));
            self.dom.assigned(&mut trial, val_var);
            if let Some(k) = key_var {
                trial.insert(k.to_string(), self.dom.named(self.dom.key(arr), k));
                self.dom.assigned(&mut trial, k);
            }
        }
        let mut counter = start;
        self.block(body, &mut trial, &mut counter);
        debug_assert_eq!(counter, start + count_block(body));
        let conts = std::mem::take(self.continues.last_mut().expect("loop frame"));
        for cont in &conts {
            trial = self.merge(&trial, cont, false);
        }
        trial
    }

    /// `a` with every variable of `b` joined in (widened when `widen`);
    /// a variable bound on one side only is merged with the domain's
    /// `unbound` value, or keeps that side's value when there is none.
    fn merge(&self, a: &Env<D::Val>, b: &Env<D::Val>, widen: bool) -> Env<D::Val> {
        let meet = |x: &D::Val, y: &D::Val| {
            if widen {
                self.dom.widen(x, y)
            } else {
                self.dom.join(x, y)
            }
        };
        let unbound = self.dom.unbound();
        let mut out = a.clone();
        for (k, v) in b {
            match out.get_mut(k) {
                Some(old) => *old = meet(old, v),
                None => {
                    out.insert(
                        k.clone(),
                        unbound.as_ref().map_or_else(|| v.clone(), |u| meet(u, v)),
                    );
                }
            }
        }
        if let Some(u) = &unbound {
            for (_, v) in out.iter_mut().filter(|(k, _)| !b.contains_key(*k)) {
                *v = meet(v, u);
            }
        }
        out
    }

    fn read(&self, name: &str, env: &Env<D::Val>) -> D::Val {
        let val = if SUPERGLOBALS.contains(&name) {
            self.dom.source(name, None)
        } else {
            env.get(name).cloned().unwrap_or_default()
        };
        self.dom.var(name, val)
    }

    /// Walks an operand that may not run (a ternary arm, the right side of
    /// `&&`/`||`): an assignment inside it is joined into `env`, never a
    /// strong update.
    fn maybe_expr(&mut self, expr: &Expr, env: &mut Env<D::Val>, id: usize) -> D::Val {
        let mut assigned = BTreeSet::new();
        assigned_vars_expr(expr, &mut assigned);
        if assigned.is_empty() {
            return self.expr(expr, env, id);
        }
        let mut ran = env.clone();
        let v = self.expr(expr, &mut ran, id);
        *env = self.merge(env, &ran, false);
        v
    }

    fn expr(&mut self, expr: &Expr, env: &mut Env<D::Val>, id: usize) -> D::Val {
        let val = self.eval(expr, env, id);
        self.dom.at(expr, val)
    }

    fn eval(&mut self, expr: &Expr, env: &mut Env<D::Val>, id: usize) -> D::Val {
        match expr {
            Expr::Lit(v) => self.dom.lit(v),
            Expr::Var(name) => self.read(name, env),
            Expr::Interp(parts) => {
                let mut out = self.dom.text("");
                for p in parts {
                    let v = match p {
                        InterpPart::Lit(s) => self.dom.text(s),
                        InterpPart::Var(name) => self.read(name, env),
                    };
                    out = self.dom.concat(&out, &v);
                }
                out
            }
            Expr::Index { base, index } => {
                if let Expr::Var(name) = base.as_ref() {
                    if SUPERGLOBALS.contains(&name.as_str()) {
                        self.expr(index, env, id);
                        return self.dom.source(name, Some(index));
                    }
                }
                let array = self.expr(base, env, id);
                self.expr(index, env, id);
                self.dom.element(array)
            }
            Expr::Call { name, args } => {
                let vals = args.iter().map(|a| self.expr(a, env, id)).collect();
                self.dom.call(id, expr, name, vals)
            }
            Expr::Unary { op, expr } => {
                let v = self.expr(expr, env, id);
                match op {
                    // `@expr` is a transparent pass-through.
                    UnaryOp::Silence => v,
                    UnaryOp::Not | UnaryOp::Neg => self.dom.scalar(),
                }
            }
            Expr::Binary { left, op, right } => {
                let l = self.expr(left, env, id);
                let r = if matches!(op, BinOp::And | BinOp::Or) {
                    self.maybe_expr(right, env, id)
                } else {
                    self.expr(right, env, id)
                };
                match op {
                    BinOp::Concat => self.dom.concat(&l, &r),
                    _ => self.dom.scalar(),
                }
            }
            Expr::Ternary { cond, then_val, else_val } => {
                let c = self.expr(cond, env, id);
                let e = self.maybe_expr(else_val, env, id);
                match then_val {
                    Some(t) => {
                        let t = self.maybe_expr(t, env, id);
                        self.dom.join(&t, &e)
                    }
                    // `$a ?: $b` evaluates to the condition when truthy.
                    None => self.dom.join(&c, &e),
                }
            }
            Expr::ArrayLit(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for (k, v) in items {
                    let k = k.as_ref().map(|k| self.expr(k, env, id));
                    vals.push((k, self.expr(v, env, id)));
                }
                self.dom.array(vals)
            }
            Expr::Isset(exprs) => {
                for e in exprs {
                    self.expr(e, env, id);
                }
                self.dom.scalar()
            }
            Expr::Empty(e) => {
                self.expr(e, env, id);
                self.dom.scalar()
            }
            Expr::AssignExpr { var, expr } => {
                let v = self.expr(expr, env, id);
                let v = self.dom.named(v, var);
                env.insert(var.clone(), v.clone());
                self.dom.assigned(env, var);
                v
            }
        }
    }
}

/// Number of statements in a subtree: the span-table slots it occupies.
fn count_block<'a>(stmts: impl IntoIterator<Item = &'a Stmt>) -> usize {
    stmts.into_iter().map(|s| 1 + count_block(s.children().1)).sum()
}

/// Variables assigned anywhere in a statement, loop heads included.
fn assigned_vars_stmt(stmt: &Stmt, out: &mut BTreeSet<String>) {
    match stmt {
        Stmt::Assign { var, .. } => {
            out.insert(var.clone());
        }
        Stmt::Foreach { key_var, val_var, .. } => {
            out.extend(key_var.iter().chain([val_var]).cloned());
        }
        _ => {}
    }
    let (exprs, blocks) = stmt.children();
    exprs.for_each(|e| assigned_vars_expr(e, out));
    blocks.for_each(|s| assigned_vars_stmt(s, out));
}

/// Variables an expression assigns (`$x = …` inside an expression).
fn assigned_vars_expr(e: &Expr, out: &mut BTreeSet<String>) {
    if let Expr::AssignExpr { var, .. } = e {
        out.insert(var.clone());
    }
    e.children().for_each(|c| assigned_vars_expr(c, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_phpsim::parser::parse_program_spanned;

    /// A domain that only records which statement id each call is
    /// attributed to.
    #[derive(Default)]
    struct Calls(BTreeSet<(usize, String)>);

    impl Domain for Calls {
        type Val = ();
        fn lit(&self, _: &PValue) {}
        fn text(&self, _: &str) {}
        fn scalar(&self) {}
        fn concat(&self, _: &(), _: &()) {}
        fn join(&self, _: &(), _: &()) {}
        fn source(&self, _: &str, _: Option<&Expr>) {}
        fn element(&self, _: ()) {}
        fn key(&self, _: &()) {}
        fn array(&self, _: Vec<(Option<()>, ())>) {}
        fn keyed(&self, _: (), _: Vec<()>) {}
        fn call(&mut self, stmt_id: usize, _: &Expr, name: &str, _: Vec<()>) {
            self.0.insert((stmt_id, name.to_string()));
        }
        fn named(&self, _: (), _: &str) {}
        fn widen(&self, _: &(), _: &()) {}
        fn stable(&self, _: &(), _: &()) -> bool {
            true
        }
        fn top(&self, _: ()) {}
    }

    #[test]
    fn preorder_ids_match_span_table() {
        // Every statement calls a builtin named after the text its span
        // must start with; `dead()` follows a `break` and is never walked,
        // so the statements after it check that ids skip the dead tail.
        let src = r#"
            $id = assign($_GET['id']);
            if (if_a($id)) {
                $q = assign("SELECT * FROM t WHERE id=$id");
                mysql_query($q);
            } elseif (elseif_b($x)) {
                other();
            } else {
                echo echo_c();
            }
            while (while_d($i < 3)) {
                foreach (foreach_e($rows) as $k => $r) {
                    if (if_f($r)) { break; dead(); }
                    $i = assign($i + 1);
                }
                while (while_g($j)) { continue; }
            }
            exit(exit_h());
        "#;
        let (prog, spans) = parse_program_spanned(src).unwrap();
        assert_eq!(count_block(&prog), spans.len(), "one span per statement");
        let calls = run(Calls::default(), &prog).0;
        let names: BTreeSet<&str> = calls.iter().map(|(_, n)| n.as_str()).collect();
        assert!(!names.contains("dead"), "the tail after a break is not walked");
        for want in ["if_a", "elseif_b", "echo_c", "while_d", "foreach_e", "if_f", "while_g"] {
            assert!(names.contains(want), "{want} was walked");
        }
        for (id, name) in &calls {
            let text = spans[*id].slice(src).trim_start();
            let prefix = match name.as_str() {
                "mysql_query" | "other" => name.as_str(),
                other => other.split('_').next().unwrap(),
            };
            let prefix = if prefix == "assign" { "$" } else { prefix };
            assert!(text.starts_with(prefix), "{name} at id {id} maps to {text:?}");
            assert!(text.contains(&format!("{name}(")), "{name} at id {id} maps to {text:?}");
        }
        // The elseif is a nested `if` with its own slot, anchored at the
        // keyword.
        let (elseif, _) = calls.iter().find(|(_, n)| n == "elseif_b").unwrap();
        assert!(spans[*elseif].slice(src).starts_with("elseif"));
    }
}
