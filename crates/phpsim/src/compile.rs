//! Bytecode compiler: lowers the phpsim AST to a flat [`Chunk`].
//!
//! The tree-walking [`crate::interp::Interp`] re-dispatches on AST nodes
//! and hashes variable-name strings on every access; for the serving
//! workloads in this reproduction that interpreter cost dominates
//! end-to-end request time, so benches measure the interpreter rather
//! than the gate. This module compiles each program once into a compact
//! stack-machine [`Chunk`] — constant pool, variable slots,
//! jump-patched control flow, pre-lowered builtin call names, dedicated
//! host-call ops for `mysql_query`/`db_query` — that
//! [`crate::vm::Vm`] executes against the same [`crate::interp::Host`].
//! The tree-walker stays intact as the differential oracle: both engines
//! share the builtin table, the type-juggling helpers, and the
//! superglobal population code, and the differential suites assert
//! bit-identical output, query order, and error behaviour.
//!
//! Compilation is total: every parsable program compiles (errors such as
//! undefined functions stay runtime errors, raised only if the call is
//! actually executed — exactly like the tree-walker).

use crate::ast::*;
use crate::value::PValue;
use std::collections::HashMap;

/// A builtin call name, lowered once at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallName {
    /// Lowercased dispatch key (PHP function names are case-insensitive).
    pub lower: String,
    /// Original spelling, preserved for the undefined-function error
    /// message the tree-walker produces.
    pub original: String,
}

/// One piece of a compiled interpolated string template.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpSeg {
    /// A literal run.
    Lit(String),
    /// A variable slot, converted with `to_php_string` at runtime.
    Var(u32),
}

/// A bytecode instruction for the phpsim stack machine.
///
/// Indices refer to the owning [`Chunk`]'s pools. Jump targets are
/// absolute instruction offsets (patched after the target is known).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u32),
    /// Push a copy of variable slot `i` (`Null` when never assigned —
    /// observationally identical to the tree-walker's absent map entry).
    Load(u32),
    /// Pop into variable slot `i`.
    Store(u32),
    /// Pop the right-hand side and fold it into slot `i` with a compound
    /// assignment operator (`.=`, `+=`, `-=`).
    StoreOp(u32, AssignOp),
    /// Indexed store `$a[k…] (op)= rhs`. The stack holds the rhs first,
    /// then one value per `true` entry of `index_paths[path]` (a `false`
    /// entry is an `$a[]` append with no key on the stack).
    StoreIndex {
        /// Root variable slot.
        slot: u32,
        /// Index into [`Chunk::index_paths`].
        path: u32,
        /// Compound operator (`None` for plain `=`).
        op: Option<AssignOp>,
    },
    /// Duplicate the top of the stack.
    Dup,
    /// Discard the top of the stack.
    Pop,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy (`to_php_bool`).
    JumpIfFalse(u32),
    /// Pop; jump when truthy.
    JumpIfTrue(u32),
    /// Pop; push `Bool(to_php_bool)` — the second half of `&&`/`||`.
    ToBool,
    /// Pop; push logical negation (also compiles `empty()`).
    Not,
    /// Pop; push arithmetic negation with PHP's `Int`/`Float` rule.
    Neg,
    /// Pop right then left; push `eval_binop` (non-short-circuit ops).
    Bin(BinOp),
    /// Pop `n` values; push their `to_php_string` concatenation. Fuses
    /// `.` chains so query construction allocates once.
    Concat(u32),
    /// Pop index then base; push the element read.
    Index,
    /// Pop the index; push the element read from slot `i` *by reference*
    /// — the fused `$var[k]` form that skips [`Op::Load`]'s whole-value
    /// clone (the dominant cost of fetch loops reading `$row['col']`).
    LoadIndex(u32),
    /// Pop `n` values; append each to the output buffer in order — the
    /// fused `echo a . b . c;` form. Operands are fully evaluated before
    /// the first append, exactly like [`Op::Concat`] + [`Op::Echo`], so
    /// side-effect interleaving with the output buffer is unchanged;
    /// only the intermediate concatenated `String` is gone.
    EchoN(u32),
    /// Pop a value; store it into slot `i` and push its truthiness — the
    /// fused condition-position `while ($x = expr)` form, replacing
    /// `Dup`+`Store` so the assigned value (often a whole result row) is
    /// not cloned just to be boolean-tested.
    StoreTruthy(u32),
    /// Pop the rhs; `slot .= rhs` appending in place when the slot holds
    /// a string (the `$html .= …` accumulation pattern), falling back to
    /// the shared `apply_assign_op` for every other type.
    AppendSlot(u32),
    /// Push the rendered template `interps[i]` (reads slots directly).
    Interp(u32),
    /// Pop `argc` arguments; dispatch builtin `names[name]`; push result.
    Call {
        /// Index into [`Chunk::names`].
        name: u32,
        /// Argument count.
        argc: u32,
    },
    /// Pop the SQL text; run it through [`crate::interp::Host::query`]
    /// with the exact `mysql_query` outcome conversion; push the result.
    HostQuery,
    /// Pop the argument array then the SQL text; expand Drupal-style
    /// placeholders and run [`crate::interp::Host::query_prepared`];
    /// push the result.
    HostQueryPrepared,
    /// Pop; append `to_php_string` to the output buffer.
    Echo,
    /// Pop; append to the output buffer only when the value is a string
    /// (the `die('msg')` rule).
    ExitMsg,
    /// Stop execution (compiles `return`, `exit`, and end-of-program).
    Halt,
    /// Push a fresh empty array.
    NewArray,
    /// Pop a value; append it to the array at the top of the stack.
    ArrayPush,
    /// Pop a key then a value; insert into the array at the top of the
    /// stack.
    ArrayInsert,
    /// Push whether slot `i` holds a non-`Null` value.
    IssetSlot(u32),
    /// Pop index then base; push `isset($base[$index])`.
    IssetIndex,
    /// Zero loop-guard counter `g` (entering a `while`).
    GuardReset(u32),
    /// Bump loop-guard counter `g`; error past the iteration limit,
    /// mirroring the tree-walker's runaway-loop protection.
    GuardTick(u32),
    /// Pop a value; push a snapshot iterator over it (empty for
    /// non-arrays — `foreach` over a scalar silently skips its body).
    IterNew,
    /// Advance the innermost iterator: on exhaustion pop it and jump to
    /// `end`; otherwise store the key (when requested) and value slots
    /// and fall through into the body.
    IterNext {
        /// Key variable slot for the `$k => $v` form.
        key: Option<u32>,
        /// Value variable slot.
        val: u32,
        /// Jump target once the iterator is exhausted.
        end: u32,
    },
    /// Discard the innermost iterator (`break` out of a `foreach`).
    IterPop,
}

/// A compiled program: flat bytecode plus its pools.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Chunk {
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Constant pool.
    pub consts: Vec<PValue>,
    /// Builtin call names (lowered once at compile time).
    pub names: Vec<CallName>,
    /// Variable slot names; slots `0..5` are always [`SUPERGLOBALS`].
    pub vars: Vec<String>,
    /// Interpolated-string templates.
    pub interps: Vec<Vec<InterpSeg>>,
    /// Key-path descriptors for [`Op::StoreIndex`]: `true` entries have
    /// a key value on the stack, `false` entries are appends.
    pub index_paths: Vec<Vec<bool>>,
    /// Number of loop-guard counters the VM must allocate.
    pub guards: u32,
}

/// Compiles a parsed program to bytecode. Total: never fails.
pub fn compile(program: &[Stmt]) -> Chunk {
    let mut c = Compiler::new();
    for stmt in program {
        c.stmt(stmt);
    }
    let end = c.ops.len() as u32;
    for at in std::mem::take(&mut c.top_exits) {
        c.patch(at, end);
    }
    Chunk {
        ops: c.ops,
        consts: c.consts,
        names: c.names,
        vars: c.vars,
        interps: c.interps,
        index_paths: c.index_paths,
        guards: c.guards,
    }
}

/// Per-loop compile context for `break`/`continue` resolution.
struct LoopCtx {
    /// Where `continue` jumps: the condition re-check (`while`) or the
    /// iterator advance (`foreach`).
    continue_pc: u32,
    /// `Jump` placeholders to patch to the loop end.
    breaks: Vec<usize>,
    /// Whether `break` must also discard an active iterator.
    is_foreach: bool,
}

struct Compiler {
    ops: Vec<Op>,
    consts: Vec<PValue>,
    names: Vec<CallName>,
    vars: Vec<String>,
    var_slots: HashMap<String, u32>,
    interps: Vec<Vec<InterpSeg>>,
    index_paths: Vec<Vec<bool>>,
    guards: u32,
    loops: Vec<LoopCtx>,
    /// `break`/`continue` outside any loop: ends the program, exactly as
    /// the tree-walker's flow signal unwinds to `run`.
    top_exits: Vec<usize>,
}

impl Compiler {
    fn new() -> Self {
        let mut c = Compiler {
            ops: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            vars: Vec::new(),
            var_slots: HashMap::new(),
            interps: Vec::new(),
            index_paths: Vec::new(),
            guards: 0,
            loops: Vec::new(),
            top_exits: Vec::new(),
        };
        for sg in SUPERGLOBALS {
            c.slot(sg);
        }
        c
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => *t = target,
            Op::IterNext { end, .. } => *end = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.var_slots.get(name) {
            return s;
        }
        let s = self.vars.len() as u32;
        self.vars.push(name.to_string());
        self.var_slots.insert(name.to_string(), s);
        s
    }

    fn konst(&mut self, v: PValue) -> u32 {
        // Linear-scan interning: constant pools are small and compilation
        // happens once per route.
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn name(&mut self, original: &str) -> u32 {
        let lower = original.to_ascii_lowercase();
        if let Some(i) = self.names.iter().position(|n| n.lower == lower && n.original == original)
        {
            return i as u32;
        }
        self.names.push(CallName { lower, original: original.to_string() });
        (self.names.len() - 1) as u32
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Expr(e) => {
                self.expr(e);
                self.emit(Op::Pop);
            }
            Stmt::Assign { var, indices, op, expr } => {
                // Evaluation order matches the tree-walker: rhs first,
                // then index expressions left to right.
                self.expr(expr);
                if indices.is_empty() {
                    let s = self.slot(var);
                    match op {
                        None => self.emit(Op::Store(s)),
                        // `$x .= rhs` appends in place at runtime instead
                        // of rebuilding the accumulated string.
                        Some(AssignOp::Concat) => self.emit(Op::AppendSlot(s)),
                        Some(aop) => self.emit(Op::StoreOp(s, *aop)),
                    };
                } else {
                    let mut path = Vec::with_capacity(indices.len());
                    for idx in indices {
                        match idx {
                            Some(e) => {
                                self.expr(e);
                                path.push(true);
                            }
                            None => path.push(false),
                        }
                    }
                    let s = self.slot(var);
                    let p = self.index_paths.len() as u32;
                    self.index_paths.push(path);
                    self.emit(Op::StoreIndex { slot: s, path: p, op: *op });
                }
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.cond(cond);
                let to_else = self.emit(Op::JumpIfFalse(0));
                for s in then_branch {
                    self.stmt(s);
                }
                if else_branch.is_empty() {
                    let end = self.here();
                    self.patch(to_else, end);
                } else {
                    let to_end = self.emit(Op::Jump(0));
                    let else_pc = self.here();
                    self.patch(to_else, else_pc);
                    for s in else_branch {
                        self.stmt(s);
                    }
                    let end = self.here();
                    self.patch(to_end, end);
                }
            }
            Stmt::While { cond, body } => {
                let g = self.guards;
                self.guards += 1;
                self.emit(Op::GuardReset(g));
                let cond_pc = self.here();
                self.cond(cond);
                let to_end = self.emit(Op::JumpIfFalse(0));
                self.emit(Op::GuardTick(g));
                self.loops.push(LoopCtx {
                    continue_pc: cond_pc,
                    breaks: Vec::new(),
                    is_foreach: false,
                });
                for s in body {
                    self.stmt(s);
                }
                self.emit(Op::Jump(cond_pc));
                let end = self.here();
                self.patch(to_end, end);
                let ctx = self.loops.pop().expect("loop context");
                for b in ctx.breaks {
                    self.patch(b, end);
                }
            }
            Stmt::Foreach { array, key_var, val_var, body } => {
                // The iterated expression is evaluated once; the snapshot
                // makes in-loop mutation invisible to the iteration,
                // exactly like the tree-walker's owned copy.
                self.expr(array);
                self.emit(Op::IterNew);
                let next_pc = self.here();
                let key = key_var.as_deref().map(|k| self.slot(k));
                let val = self.slot(val_var);
                let iter_at = self.emit(Op::IterNext { key, val, end: 0 });
                self.loops.push(LoopCtx {
                    continue_pc: next_pc,
                    breaks: Vec::new(),
                    is_foreach: true,
                });
                for s in body {
                    self.stmt(s);
                }
                self.emit(Op::Jump(next_pc));
                let end = self.here();
                self.patch(iter_at, end);
                let ctx = self.loops.pop().expect("loop context");
                for b in ctx.breaks {
                    self.patch(b, end);
                }
            }
            Stmt::Echo(exprs) => {
                // Per-expression append, interleaving output with any
                // side effects of later expressions. A concat-chain
                // argument appends its parts directly (no intermediate
                // concatenated string) — the parts are still all
                // evaluated before the first byte is appended, like
                // `Concat` + `Echo` would.
                for e in exprs {
                    if let Expr::Binary { op: BinOp::Concat, .. } = e {
                        let mut parts = Vec::new();
                        flatten_concat(e, &mut parts);
                        for p in &parts {
                            self.expr(p);
                        }
                        self.emit(Op::EchoN(parts.len() as u32));
                    } else {
                        self.expr(e);
                        self.emit(Op::Echo);
                    }
                }
            }
            Stmt::Return(value) => {
                if let Some(v) = value {
                    self.expr(v);
                    self.emit(Op::Pop);
                }
                self.emit(Op::Halt);
            }
            Stmt::Exit(value) => {
                if let Some(v) = value {
                    self.expr(v);
                    self.emit(Op::ExitMsg);
                }
                self.emit(Op::Halt);
            }
            Stmt::Break => match self.loops.last_mut() {
                Some(ctx) => {
                    let is_foreach = ctx.is_foreach;
                    if is_foreach {
                        self.emit(Op::IterPop);
                    }
                    let at = self.emit(Op::Jump(0));
                    self.loops.last_mut().expect("loop context").breaks.push(at);
                }
                None => {
                    let at = self.emit(Op::Jump(0));
                    self.top_exits.push(at);
                }
            },
            Stmt::Continue => match self.loops.last() {
                Some(ctx) => {
                    let target = ctx.continue_pc;
                    self.emit(Op::Jump(target));
                }
                None => {
                    let at = self.emit(Op::Jump(0));
                    self.top_exits.push(at);
                }
            },
        }
    }

    /// Compiles an expression in *condition position* (the next op is a
    /// conditional jump that pops and boolean-tests it). The
    /// `while ($row = fetch())` pattern lowers to [`Op::StoreTruthy`]
    /// here, storing the value without the `Dup` clone — the pushed
    /// truthiness is boolean-identical to the assigned value.
    fn cond(&mut self, expr: &Expr) {
        if let Expr::AssignExpr { var, expr: rhs } = expr {
            self.expr(rhs);
            let s = self.slot(var);
            self.emit(Op::StoreTruthy(s));
        } else {
            self.expr(expr);
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Lit(v) => {
                let i = self.konst(v.clone());
                self.emit(Op::Const(i));
            }
            Expr::Var(name) => {
                let s = self.slot(name);
                self.emit(Op::Load(s));
            }
            Expr::Interp(parts) => {
                let segs: Vec<InterpSeg> = parts
                    .iter()
                    .map(|p| match p {
                        InterpPart::Lit(l) => InterpSeg::Lit(l.clone()),
                        InterpPart::Var(v) => InterpSeg::Var(self.slot(v)),
                    })
                    .collect();
                let i = self.interps.len() as u32;
                self.interps.push(segs);
                self.emit(Op::Interp(i));
            }
            Expr::Index { base, index } => {
                // `$var[k]` reads the slot by reference and clones only
                // the indexed element — valid unless the index expression
                // could reassign the base variable in between (the
                // tree-walker snapshots the base *before* evaluating the
                // index). Reading a variable has no side effects, so with
                // assignment-free indices the reorder is unobservable.
                if let Expr::Var(name) = &**base {
                    if !contains_assign(index) {
                        self.expr(index);
                        let s = self.slot(name);
                        self.emit(Op::LoadIndex(s));
                        return;
                    }
                }
                self.expr(base);
                self.expr(index);
                self.emit(Op::Index);
            }
            Expr::Call { name, args } => {
                // Host-call ops for the two query entry points whose
                // common shapes the compiler can prove; everything else
                // (including the mysqli arg-shuffle forms) dispatches
                // through the shared builtin table.
                for a in args {
                    self.expr(a);
                }
                if name.eq_ignore_ascii_case("mysql_query") && args.len() == 1 {
                    self.emit(Op::HostQuery);
                } else if name.eq_ignore_ascii_case("db_query") && args.len() == 2 {
                    self.emit(Op::HostQueryPrepared);
                } else {
                    let n = self.name(name);
                    self.emit(Op::Call { name: n, argc: args.len() as u32 });
                }
            }
            Expr::Unary { op, expr } => {
                self.expr(expr);
                match op {
                    UnaryOp::Not => {
                        self.emit(Op::Not);
                    }
                    UnaryOp::Neg => {
                        self.emit(Op::Neg);
                    }
                    UnaryOp::Silence => {}
                }
            }
            Expr::Binary { left, op, right } => match op {
                BinOp::And => {
                    self.expr(left);
                    let to_false = self.emit(Op::JumpIfFalse(0));
                    self.expr(right);
                    self.emit(Op::ToBool);
                    let to_end = self.emit(Op::Jump(0));
                    let false_pc = self.here();
                    self.patch(to_false, false_pc);
                    let f = self.konst(PValue::Bool(false));
                    self.emit(Op::Const(f));
                    let end = self.here();
                    self.patch(to_end, end);
                }
                BinOp::Or => {
                    self.expr(left);
                    let to_true = self.emit(Op::JumpIfTrue(0));
                    self.expr(right);
                    self.emit(Op::ToBool);
                    let to_end = self.emit(Op::Jump(0));
                    let true_pc = self.here();
                    self.patch(to_true, true_pc);
                    let t = self.konst(PValue::Bool(true));
                    self.emit(Op::Const(t));
                    let end = self.here();
                    self.patch(to_end, end);
                }
                BinOp::Concat => {
                    // Fuse the whole `.` chain into one n-ary concat;
                    // operand evaluation order is unchanged and string
                    // concatenation is associative, so the built text is
                    // byte-identical.
                    let mut parts = Vec::new();
                    flatten_concat(expr, &mut parts);
                    for p in &parts {
                        self.expr(p);
                    }
                    self.emit(Op::Concat(parts.len() as u32));
                }
                _ => {
                    self.expr(left);
                    self.expr(right);
                    self.emit(Op::Bin(*op));
                }
            },
            Expr::Ternary { cond, then_val, else_val } => match then_val {
                Some(t) => {
                    self.expr(cond);
                    let to_else = self.emit(Op::JumpIfFalse(0));
                    self.expr(t);
                    let to_end = self.emit(Op::Jump(0));
                    let else_pc = self.here();
                    self.patch(to_else, else_pc);
                    self.expr(else_val);
                    let end = self.here();
                    self.patch(to_end, end);
                }
                None => {
                    // `?:` returns the condition value itself when
                    // truthy (not a bool cast).
                    self.expr(cond);
                    self.emit(Op::Dup);
                    let to_end = self.emit(Op::JumpIfTrue(0));
                    self.emit(Op::Pop);
                    self.expr(else_val);
                    let end = self.here();
                    self.patch(to_end, end);
                }
            },
            Expr::ArrayLit(items) => {
                self.emit(Op::NewArray);
                for (key, value) in items {
                    // Value before key — the tree-walker's order.
                    self.expr(value);
                    match key {
                        Some(k) => {
                            self.expr(k);
                            self.emit(Op::ArrayInsert);
                        }
                        None => {
                            self.emit(Op::ArrayPush);
                        }
                    }
                }
            }
            Expr::Isset(exprs) => {
                // Short-circuit chain. Each clause pushes a bool; `Var`
                // and `Index` clauses evaluate (side effects included),
                // anything else is vacuously set *without* evaluation —
                // all exactly as the tree-walker does.
                let mut pending = Vec::new();
                for (i, e) in exprs.iter().enumerate() {
                    self.isset_one(e);
                    if i + 1 < exprs.len() {
                        pending.push(self.emit(Op::JumpIfFalse(0)));
                    }
                }
                if !pending.is_empty() {
                    let to_end = self.emit(Op::Jump(0));
                    let false_pc = self.here();
                    for at in pending {
                        self.patch(at, false_pc);
                    }
                    let f = self.konst(PValue::Bool(false));
                    self.emit(Op::Const(f));
                    let end = self.here();
                    self.patch(to_end, end);
                }
            }
            Expr::Empty(e) => {
                self.expr(e);
                self.emit(Op::Not);
            }
            Expr::AssignExpr { var, expr } => {
                self.expr(expr);
                self.emit(Op::Dup);
                let s = self.slot(var);
                self.emit(Op::Store(s));
            }
        }
    }

    fn isset_one(&mut self, e: &Expr) {
        match e {
            Expr::Var(name) => {
                let s = self.slot(name);
                self.emit(Op::IssetSlot(s));
            }
            Expr::Index { base, index } => {
                self.expr(base);
                self.expr(index);
                self.emit(Op::IssetIndex);
            }
            _ => {
                let t = self.konst(PValue::Bool(true));
                self.emit(Op::Const(t));
            }
        }
    }
}

/// Whether an expression can assign to a variable anywhere inside it —
/// the only side effect that invalidates the fused [`Op::LoadIndex`]
/// base-read reorder (builtins and host calls never touch script
/// variables).
fn contains_assign(e: &Expr) -> bool {
    matches!(e, Expr::AssignExpr { .. }) || e.children().any(contains_assign)
}

/// Flattens a `.` chain into its operands, preserving evaluation order.
fn flatten_concat<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary { left, op: BinOp::Concat, right } => {
            flatten_concat(left, out);
            flatten_concat(right, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile_src(src: &str) -> Chunk {
        compile(&parse_program(src).expect("valid program"))
    }

    #[test]
    fn superglobals_get_fixed_slots() {
        let chunk = compile_src("$x = 1;");
        assert_eq!(&chunk.vars[..5], SUPERGLOBALS);
        assert_eq!(chunk.vars[5], "x");
    }

    #[test]
    fn constants_are_interned() {
        let chunk = compile_src(r#"$a = 'dup'; $b = 'dup'; $c = 'other';"#);
        let strs = chunk.consts.iter().filter(|c| matches!(c, PValue::Str(_))).count();
        assert_eq!(strs, 2, "{:?}", chunk.consts);
    }

    #[test]
    fn concat_chains_fuse() {
        let chunk = compile_src(r#"$q = "a" . $x . "b" . $y;"#);
        assert!(
            chunk.ops.contains(&Op::Concat(4)),
            "expected one fused 4-ary concat: {:?}",
            chunk.ops
        );
    }

    #[test]
    fn mysql_query_compiles_to_host_op() {
        let chunk = compile_src(r#"mysql_query("SELECT 1");"#);
        assert!(chunk.ops.contains(&Op::HostQuery), "{:?}", chunk.ops);
        assert!(chunk.names.is_empty());
    }

    #[test]
    fn jumps_stay_in_bounds() {
        let chunk = compile_src(
            r#"$i = 0;
               while ($i < 3) {
                   $i += 1;
                   if ($i == 2) { continue; }
                   foreach (array(1, 2) as $v) { if ($v == 2) { break; } echo $v; }
               }"#,
        );
        let n = chunk.ops.len() as u32;
        for op in &chunk.ops {
            let t = match op {
                Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => *t,
                Op::IterNext { end, .. } => *end,
                _ => continue,
            };
            assert!(t <= n, "jump target {t} out of bounds in {:?}", chunk.ops);
        }
    }

    #[test]
    fn while_allocates_guard() {
        let chunk = compile_src("while (0) { }");
        assert_eq!(chunk.guards, 1);
        assert!(chunk.ops.contains(&Op::GuardReset(0)));
        assert!(chunk.ops.contains(&Op::GuardTick(0)));
    }
}
