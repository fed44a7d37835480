//! Tree-walking evaluator for the PHP subset.
//!
//! The interpreter executes a plugin script against a [`Host`], which
//! receives every `mysql_query` call. In the full system the host is the
//! web-app framework's database bridge: it routes the query through Joza's
//! hybrid analysis and only then to the in-memory engine. A
//! [`QueryOutcome::Terminated`] from the host aborts the script — the
//! paper's *termination* recovery policy, which "typically results in a
//! blank HTML page returned to the end user" (§IV-E).

use crate::ast::*;
use crate::builtins;
use crate::value::{PArray, PKey, PValue};
use std::collections::HashMap;
use std::fmt;

/// The result of a host-executed SQL query, as seen by PHP code.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// A result set: rows of `(column, value)` pairs. MySQL's client
    /// protocol returns strings, so values are strings here. Writes
    /// report an empty row set.
    Rows(Vec<Vec<(String, String)>>),
    /// The query failed (syntax error, unknown table, or Joza's *error
    /// virtualization* recovery policy). `mysql_query` returns `false` and
    /// `mysql_error()` reports the message.
    Error(String),
    /// Joza's *termination* recovery policy fired: the application is
    /// killed mid-request.
    Terminated,
}

/// The environment a PHP script runs against.
pub trait Host {
    /// Executes one SQL query.
    fn query(&mut self, sql: &str) -> QueryOutcome;

    /// Prepares `sql` (which may contain `:name` placeholders) and
    /// executes it with the given bindings — the PDO/Drupal-style path.
    /// Values bound here are data by contract and must never be parsed as
    /// SQL; the *statement text* is still subject to interception.
    ///
    /// The default implementation reports prepared statements as
    /// unsupported so simple hosts need not implement them.
    fn query_prepared(&mut self, sql: &str, params: &[(String, String)]) -> QueryOutcome {
        let _ = (sql, params);
        QueryOutcome::Error("prepared statements not supported by this host".into())
    }
}

/// A runtime error (or control-flow signal) from PHP execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhpError {
    /// A genuine runtime error (undefined function, bad argument, …).
    Runtime(String),
    /// The host terminated the application (Joza kill policy).
    Terminated,
}

impl fmt::Display for PhpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhpError::Runtime(m) => write!(f, "PHP runtime error: {m}"),
            PhpError::Terminated => f.write_str("application terminated by Joza"),
        }
    }
}

impl std::error::Error for PhpError {}

/// Internal control flow.
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// A cursor over a query result set backing a PHP resource.
#[derive(Debug, Clone)]
pub(crate) struct ResultSet {
    pub(crate) rows: Vec<Vec<(String, String)>>,
    pub(crate) cursor: usize,
}

/// Engine-shared runtime state: the host connection plus the result-set
/// and error registers the SQL builtins operate on. Both the tree-walking
/// [`Interp`] and the bytecode [`crate::vm::Vm`] embed one, so
/// [`crate::builtins`] behaves identically under either engine.
pub(crate) struct Runtime<'h> {
    pub(crate) host: &'h mut dyn Host,
    pub(crate) resources: Vec<ResultSet>,
    pub(crate) last_error: String,
}

impl<'h> Runtime<'h> {
    pub(crate) fn new(host: &'h mut dyn Host) -> Self {
        Runtime { host, resources: Vec::new(), last_error: String::new() }
    }
}

/// The PHP interpreter.
pub struct Interp<'h> {
    pub(crate) vars: HashMap<String, PValue>,
    pub(crate) rt: Runtime<'h>,
    pub(crate) output: String,
    halted: bool,
}

impl<'h> fmt::Debug for Interp<'h> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("vars", &self.vars.len())
            .field("output_len", &self.output.len())
            .finish_non_exhaustive()
    }
}

impl<'h> Interp<'h> {
    /// Creates an interpreter bound to `host` with empty superglobals.
    pub fn new(host: &'h mut dyn Host) -> Self {
        let mut vars = HashMap::new();
        for sg in SUPERGLOBALS {
            vars.insert(sg.to_string(), PValue::Array(PArray::new()));
        }
        Interp { vars, rt: Runtime::new(host), output: String::new(), halted: false }
    }

    /// Sets a `$_GET` parameter (also mirrored into `$_REQUEST`).
    pub fn set_get_param(&mut self, key: &str, value: &str) {
        self.set_superglobal("_GET", key, value);
        self.set_superglobal("_REQUEST", key, value);
    }

    /// Sets a `$_POST` parameter (also mirrored into `$_REQUEST`).
    pub fn set_post_param(&mut self, key: &str, value: &str) {
        self.set_superglobal("_POST", key, value);
        self.set_superglobal("_REQUEST", key, value);
    }

    /// Sets a `$_COOKIE` value.
    pub fn set_cookie(&mut self, key: &str, value: &str) {
        self.set_superglobal("_COOKIE", key, value);
    }

    /// Sets a `$_SERVER` entry (e.g. `HTTP_USER_AGENT`, `REMOTE_ADDR`).
    pub fn set_server_var(&mut self, key: &str, value: &str) {
        self.set_superglobal("_SERVER", key, value);
    }

    fn set_superglobal(&mut self, global: &str, key: &str, value: &str) {
        if let Some(PValue::Array(a)) = self.vars.get_mut(global) {
            set_superglobal_entry(a, key, value);
        }
    }

    /// Everything the script `echo`ed so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Reads a variable (for assertions in tests/harnesses).
    pub fn var(&self, name: &str) -> Option<&PValue> {
        self.vars.get(name)
    }

    /// Runs a program to completion.
    ///
    /// # Errors
    ///
    /// [`PhpError::Terminated`] if the host killed the request;
    /// [`PhpError::Runtime`] on genuine script errors.
    pub fn run(&mut self, program: &[Stmt]) -> Result<(), PhpError> {
        self.exec_block(program)?;
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, PhpError> {
        for stmt in stmts {
            if self.halted {
                return Ok(Flow::Return);
            }
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, PhpError> {
        match stmt {
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign { var, indices, op, expr } => {
                let rhs = self.eval(expr)?;
                self.assign(var, indices, *op, rhs)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_branch, else_branch } => {
                if self.eval(cond)?.to_php_bool() {
                    self.exec_block(then_branch)
                } else {
                    self.exec_block(else_branch)
                }
            }
            Stmt::While { cond, body } => {
                let mut guard = 0usize;
                while self.eval(cond)?.to_php_bool() {
                    guard += 1;
                    if guard > 1_000_000 {
                        return Err(PhpError::Runtime("loop iteration limit exceeded".into()));
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach { array, key_var, val_var, body } => {
                let arr = match self.eval(array)? {
                    PValue::Array(a) => a,
                    _ => return Ok(Flow::Normal), // PHP warns; we skip
                };
                for (k, v) in arr.iter() {
                    if let Some(kv) = key_var {
                        let key_val = match k {
                            PKey::Int(i) => PValue::Int(*i),
                            PKey::Str(s) => PValue::Str(s.clone()),
                        };
                        self.vars.insert(kv.clone(), key_val);
                    }
                    self.vars.insert(val_var.clone(), v.clone());
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Echo(exprs) => {
                for e in exprs {
                    let v = self.eval(e)?;
                    self.output.push_str(&v.to_php_string());
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                if let Some(v) = value {
                    self.eval(v)?;
                }
                self.halted = true;
                Ok(Flow::Return)
            }
            Stmt::Exit(value) => {
                if let Some(v) = value {
                    let msg = self.eval(v)?;
                    if let PValue::Str(s) = msg {
                        self.output.push_str(&s);
                    }
                }
                self.halted = true;
                Ok(Flow::Return)
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn assign(
        &mut self,
        var: &str,
        indices: &[Option<Expr>],
        op: Option<AssignOp>,
        rhs: PValue,
    ) -> Result<(), PhpError> {
        if indices.is_empty() {
            let new = match op {
                None => rhs,
                Some(aop) => {
                    let old = self.vars.get(var).cloned().unwrap_or_default();
                    apply_assign_op(aop, &old, &rhs)
                }
            };
            self.vars.insert(var.to_string(), new);
            return Ok(());
        }
        // Indexed assignment: resolve index values first, then walk/create
        // nested arrays.
        let mut keys: Vec<Option<PKey>> = Vec::with_capacity(indices.len());
        for idx in indices {
            match idx {
                Some(e) => {
                    let v = self.eval(e)?;
                    keys.push(Some(PKey::from_value(&v)));
                }
                None => keys.push(None),
            }
        }
        let root = self.vars.entry(var.to_string()).or_insert_with(|| PValue::Array(PArray::new()));
        assign_into(root, &keys, op, rhs)
    }

    pub(crate) fn eval(&mut self, expr: &Expr) -> Result<PValue, PhpError> {
        match expr {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(name) => Ok(self.vars.get(name).cloned().unwrap_or_default()),
            Expr::Interp(parts) => {
                let mut s = String::new();
                for p in parts {
                    match p {
                        InterpPart::Lit(l) => s.push_str(l),
                        InterpPart::Var(v) => {
                            let val = self.vars.get(v).cloned().unwrap_or_default();
                            s.push_str(&val.to_php_string());
                        }
                    }
                }
                Ok(PValue::Str(s))
            }
            Expr::Index { base, index } => {
                let b = self.eval(base)?;
                let i = self.eval(index)?;
                Ok(index_read(&b, &i))
            }
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                builtins::call_builtin(&mut self.rt, name, vals)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr)?;
                Ok(match op {
                    UnaryOp::Not => PValue::Bool(!v.to_php_bool()),
                    UnaryOp::Neg => match v {
                        PValue::Int(i) => PValue::Int(-i),
                        other => PValue::Float(-other.to_php_float()),
                    },
                    UnaryOp::Silence => v,
                })
            }
            Expr::Binary { left, op, right } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        let l = self.eval(left)?;
                        if !l.to_php_bool() {
                            return Ok(PValue::Bool(false));
                        }
                        let r = self.eval(right)?;
                        return Ok(PValue::Bool(r.to_php_bool()));
                    }
                    BinOp::Or => {
                        let l = self.eval(left)?;
                        if l.to_php_bool() {
                            return Ok(PValue::Bool(true));
                        }
                        let r = self.eval(right)?;
                        return Ok(PValue::Bool(r.to_php_bool()));
                    }
                    _ => {}
                }
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                Ok(eval_binop(*op, &l, &r))
            }
            Expr::Ternary { cond, then_val, else_val } => {
                let c = self.eval(cond)?;
                if c.to_php_bool() {
                    match then_val {
                        Some(t) => self.eval(t),
                        None => Ok(c),
                    }
                } else {
                    self.eval(else_val)
                }
            }
            Expr::ArrayLit(items) => {
                let mut arr = PArray::new();
                for (key, value) in items {
                    let v = self.eval(value)?;
                    match key {
                        Some(k) => {
                            let kv = self.eval(k)?;
                            arr.set(PKey::from_value(&kv), v);
                        }
                        None => arr.push(v),
                    }
                }
                Ok(PValue::Array(arr))
            }
            Expr::Isset(exprs) => {
                for e in exprs {
                    if !self.isset(e)? {
                        return Ok(PValue::Bool(false));
                    }
                }
                Ok(PValue::Bool(true))
            }
            Expr::Empty(e) => {
                let v = self.eval(e)?;
                Ok(PValue::Bool(!v.to_php_bool()))
            }
            Expr::AssignExpr { var, expr } => {
                let v = self.eval(expr)?;
                self.vars.insert(var.clone(), v.clone());
                Ok(v)
            }
        }
    }

    fn isset(&mut self, e: &Expr) -> Result<bool, PhpError> {
        match e {
            Expr::Var(name) => Ok(self.vars.get(name).is_some_and(|v| !matches!(v, PValue::Null))),
            Expr::Index { base, index } => {
                let b = self.eval(base)?;
                let i = self.eval(index)?;
                Ok(isset_index(&b, &i))
            }
            _ => Ok(true),
        }
    }
}

/// Populates one request parameter into a superglobal array, including
/// PHP's bracket syntax: `ids[k]=v` populates `$_GET['ids']['k']`. Both
/// the base name and the *inner key* are attacker-chosen — the channel
/// CVE-2014-3704 (Drupal expandArguments) abuses. Shared verbatim by both
/// engines so request setup is bit-identical.
pub(crate) fn set_superglobal_entry(a: &mut PArray, key: &str, value: &str) {
    if let Some((base, sub)) = split_bracket_key(key) {
        let inner = match a.get(&PKey::Str(base.to_string())) {
            Some(PValue::Array(existing)) => {
                let mut copy = existing.clone();
                copy.set(
                    PKey::from_value(&PValue::Str(sub.to_string())),
                    PValue::Str(value.to_string()),
                );
                copy
            }
            _ => {
                let mut fresh = PArray::new();
                fresh.set(
                    PKey::from_value(&PValue::Str(sub.to_string())),
                    PValue::Str(value.to_string()),
                );
                fresh
            }
        };
        a.set(PKey::Str(base.to_string()), PValue::Array(inner));
    } else {
        a.set(PKey::Str(key.to_string()), PValue::Str(value.to_string()));
    }
}

/// Indexed assignment `$a[k1][k2]… op= rhs`: walks (and creates) nested
/// arrays along the resolved key path. `None` keys are `$a[]` appends.
/// Shared by both engines — the tree-walker and the VM's `StoreIndex` op.
pub(crate) fn assign_into(
    target: &mut PValue,
    keys: &[Option<PKey>],
    op: Option<AssignOp>,
    rhs: PValue,
) -> Result<(), PhpError> {
    let PValue::Array(arr) = target else {
        *target = PValue::Array(PArray::new());
        return assign_into(target, keys, op, rhs);
    };
    match keys {
        [] => unreachable!("assign called with empty key path"),
        [None] => {
            arr.push(rhs);
            Ok(())
        }
        [Some(k)] => {
            let new = match op {
                None => rhs,
                Some(aop) => {
                    let old = arr.get(k).cloned().unwrap_or_default();
                    apply_assign_op(aop, &old, &rhs)
                }
            };
            arr.set(k.clone(), new);
            Ok(())
        }
        [first, rest @ ..] => {
            let key = match first {
                Some(k) => k.clone(),
                None => {
                    // `$a[]['k'] = v`: append an array then descend.
                    arr.push(PValue::Array(PArray::new()));
                    let last = arr.iter().last().map(|(k, _)| k.clone()).unwrap();
                    last
                }
            };
            if arr.get(&key).is_none() {
                arr.set(key.clone(), PValue::Array(PArray::new()));
            }
            // Re-borrow mutably via a rebuild: PArray has no get_mut;
            // emulate by taking, mutating, re-setting.
            let mut sub = arr.get(&key).cloned().unwrap();
            assign_into(&mut sub, rest, op, rhs)?;
            arr.set(key, sub);
            Ok(())
        }
    }
}

/// The `expr[index]` read: array lookup, string byte slicing, `Null`
/// otherwise. Shared by both engines.
pub(crate) fn index_read(b: &PValue, i: &PValue) -> PValue {
    match b {
        PValue::Array(a) => a.get(&PKey::from_value(i)).cloned().unwrap_or_default(),
        PValue::Str(s) => {
            let idx = i.to_php_int();
            if idx >= 0 && (idx as usize) < s.len() {
                PValue::Str(s[idx as usize..idx as usize + 1].to_string())
            } else {
                PValue::Str(String::new())
            }
        }
        _ => PValue::Null,
    }
}

/// `isset($base[$index])` after both operands evaluated: only array bases
/// can be set, and a `Null` element counts as unset. Shared by both
/// engines.
pub(crate) fn isset_index(b: &PValue, i: &PValue) -> bool {
    match b {
        PValue::Array(a) => a.get(&PKey::from_value(i)).is_some_and(|v| !matches!(v, PValue::Null)),
        _ => false,
    }
}

pub(crate) fn apply_assign_op(op: AssignOp, old: &PValue, rhs: &PValue) -> PValue {
    match op {
        AssignOp::Concat => PValue::Str(format!("{}{}", old.to_php_string(), rhs.to_php_string())),
        AssignOp::Add => numeric_binop(old, rhs, |a, b| a + b),
        AssignOp::Sub => numeric_binop(old, rhs, |a, b| a - b),
    }
}

fn numeric_binop(l: &PValue, r: &PValue, f: impl Fn(f64, f64) -> f64) -> PValue {
    let result = f(l.to_php_float(), r.to_php_float());
    if result == result.trunc()
        && matches!(l, PValue::Int(_) | PValue::Str(_) | PValue::Null | PValue::Bool(_))
        && matches!(r, PValue::Int(_) | PValue::Str(_) | PValue::Null | PValue::Bool(_))
        && result.abs() < 9e15
    {
        PValue::Int(result as i64)
    } else {
        PValue::Float(result)
    }
}

pub(crate) fn eval_binop(op: BinOp, l: &PValue, r: &PValue) -> PValue {
    match op {
        BinOp::Concat => PValue::Str(format!("{}{}", l.to_php_string(), r.to_php_string())),
        BinOp::Add => numeric_binop(l, r, |a, b| a + b),
        BinOp::Sub => numeric_binop(l, r, |a, b| a - b),
        BinOp::Mul => numeric_binop(l, r, |a, b| a * b),
        BinOp::Div => {
            let d = r.to_php_float();
            if d == 0.0 {
                PValue::Bool(false) // PHP 5 warns and yields false
            } else {
                PValue::Float(l.to_php_float() / d)
            }
        }
        BinOp::Mod => {
            let d = r.to_php_int();
            if d == 0 {
                PValue::Bool(false)
            } else {
                PValue::Int(l.to_php_int() % d)
            }
        }
        BinOp::Eq => PValue::Bool(l.loose_eq(r)),
        BinOp::NotEq => PValue::Bool(!l.loose_eq(r)),
        BinOp::Identical => PValue::Bool(l.strict_eq(r)),
        BinOp::NotIdentical => PValue::Bool(!l.strict_eq(r)),
        BinOp::Lt => PValue::Bool(php_cmp(l, r) == std::cmp::Ordering::Less),
        BinOp::Gt => PValue::Bool(php_cmp(l, r) == std::cmp::Ordering::Greater),
        BinOp::LtEq => PValue::Bool(php_cmp(l, r) != std::cmp::Ordering::Greater),
        BinOp::GtEq => PValue::Bool(php_cmp(l, r) != std::cmp::Ordering::Less),
        BinOp::And | BinOp::Or => unreachable!("short-circuited in eval"),
    }
}

/// Splits a PHP bracket-syntax parameter name `base[sub]` into
/// `(base, sub)`; returns `None` for plain names.
fn split_bracket_key(key: &str) -> Option<(&str, &str)> {
    let open = key.find('[')?;
    let close = key.rfind(']')?;
    if open == 0 || close != key.len() - 1 || close <= open {
        return None;
    }
    Some((&key[..open], &key[open + 1..close]))
}

fn php_cmp(l: &PValue, r: &PValue) -> std::cmp::Ordering {
    use crate::value::is_numeric;
    if let (PValue::Str(a), PValue::Str(b)) = (l, r) {
        if !(is_numeric(a) && is_numeric(b)) {
            return a.cmp(b);
        }
    }
    l.to_php_float().partial_cmp(&r.to_php_float()).unwrap_or(std::cmp::Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// A host that records queries and returns canned rows.
    pub(crate) struct FakeHost {
        pub queries: Vec<String>,
        pub rows: Vec<Vec<(String, String)>>,
        pub terminate: bool,
    }

    impl FakeHost {
        pub fn new() -> Self {
            FakeHost { queries: Vec::new(), rows: Vec::new(), terminate: false }
        }
    }

    impl Host for FakeHost {
        fn query(&mut self, sql: &str) -> QueryOutcome {
            self.queries.push(sql.to_string());
            if self.terminate {
                QueryOutcome::Terminated
            } else {
                QueryOutcome::Rows(self.rows.clone())
            }
        }
    }

    fn run_with(host: &mut FakeHost, src: &str) -> Result<String, PhpError> {
        let prog = parse_program(src).unwrap();
        let mut interp = Interp::new(host);
        interp.set_get_param("id", "7");
        interp.set_get_param("name", "alice");
        interp.run(&prog)?;
        Ok(interp.output().to_string())
    }

    #[test]
    fn concat_query_construction() {
        let mut host = FakeHost::new();
        run_with(
            &mut host,
            r#"$id = $_GET['id'];
               $q = "SELECT * FROM records WHERE ID=" . $id . " LIMIT 5";
               mysql_query($q);"#,
        )
        .unwrap();
        assert_eq!(host.queries, ["SELECT * FROM records WHERE ID=7 LIMIT 5"]);
    }

    #[test]
    fn interpolated_query_construction() {
        let mut host = FakeHost::new();
        run_with(
            &mut host,
            r#"$id = $_GET['id'];
               mysql_query("SELECT * FROM t WHERE id=$id");"#,
        )
        .unwrap();
        assert_eq!(host.queries, ["SELECT * FROM t WHERE id=7"]);
    }

    #[test]
    fn if_else_and_comparison() {
        let mut host = FakeHost::new();
        let out = run_with(
            &mut host,
            r#"$x = 5;
               if ($x > 3) { echo "big"; } else { echo "small"; }"#,
        )
        .unwrap();
        assert_eq!(out, "big");
    }

    #[test]
    fn while_fetch_loop() {
        let mut host = FakeHost::new();
        host.rows = vec![
            vec![("id".into(), "1".into()), ("name".into(), "a".into())],
            vec![("id".into(), "2".into()), ("name".into(), "b".into())],
        ];
        let out = run_with(
            &mut host,
            r#"$r = mysql_query("SELECT id, name FROM t");
               while ($row = mysql_fetch_assoc($r)) {
                   echo $row['name'], ";";
               }"#,
        )
        .unwrap();
        assert_eq!(out, "a;b;");
    }

    #[test]
    fn foreach_and_arrays() {
        let mut host = FakeHost::new();
        let out = run_with(
            &mut host,
            r#"$items = array('x' => 1, 'y' => 2);
               foreach ($items as $k => $v) { echo $k, "=", $v, " "; }"#,
        )
        .unwrap();
        assert_eq!(out, "x=1 y=2 ");
    }

    #[test]
    fn termination_aborts_script() {
        let mut host = FakeHost::new();
        host.terminate = true;
        let err =
            run_with(&mut host, r#"mysql_query("SELECT 1"); echo "never reached";"#).unwrap_err();
        assert_eq!(err, PhpError::Terminated);
    }

    #[test]
    fn exit_stops_execution() {
        let mut host = FakeHost::new();
        let out = run_with(&mut host, r#"echo "a"; exit; echo "b";"#).unwrap();
        assert_eq!(out, "a");
    }

    #[test]
    fn die_with_message() {
        let mut host = FakeHost::new();
        let out = run_with(&mut host, r#"die('fatal');"#).unwrap();
        assert_eq!(out, "fatal");
    }

    #[test]
    fn nested_array_assignment() {
        let mut host = FakeHost::new();
        let out = run_with(&mut host, r#"$a['x']['y'] = 5; echo $a['x']['y'];"#).unwrap();
        assert_eq!(out, "5");
    }

    #[test]
    fn isset_and_ternary_default() {
        let mut host = FakeHost::new();
        let out = run_with(
            &mut host,
            r#"$v = isset($_GET['missing']) ? $_GET['missing'] : 'dflt'; echo $v;"#,
        )
        .unwrap();
        assert_eq!(out, "dflt");
    }

    #[test]
    fn loose_comparison_juggling() {
        let mut host = FakeHost::new();
        let out =
            run_with(&mut host, r#"if ('1' == 1) { echo "y"; } if ('1' === 1) { echo "n"; }"#)
                .unwrap();
        assert_eq!(out, "y");
    }

    #[test]
    fn string_index_read() {
        let mut host = FakeHost::new();
        let out = run_with(&mut host, r#"$s = 'abc'; echo $s[1];"#).unwrap();
        assert_eq!(out, "b");
    }

    #[test]
    fn undefined_variable_is_null() {
        let mut host = FakeHost::new();
        let out = run_with(&mut host, r#"echo "[", $nope, "]";"#).unwrap();
        assert_eq!(out, "[]");
    }

    #[test]
    fn break_and_continue() {
        let mut host = FakeHost::new();
        let out = run_with(
            &mut host,
            r#"$i = 0;
               while ($i < 10) {
                   $i += 1;
                   if ($i == 2) { continue; }
                   if ($i == 4) { break; }
                   echo $i;
               }"#,
        )
        .unwrap();
        assert_eq!(out, "13");
    }

    #[test]
    fn compound_concat_assign() {
        let mut host = FakeHost::new();
        let out = run_with(&mut host, r#"$q = "SELECT"; $q .= " 1"; echo $q;"#).unwrap();
        assert_eq!(out, "SELECT 1");
    }
}
