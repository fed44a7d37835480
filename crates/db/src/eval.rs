//! Expression evaluation with MySQL semantics.

use crate::engine::{Database, DbError, SideEffects};
use joza_sqlparse::ast::*;
use joza_sqlparse::Value;

/// One logical row: `(qualifier, column, value)` bindings. Qualifier and
/// column are stored lowercased for case-insensitive resolution.
#[derive(Debug, Clone, Default)]
pub(crate) struct Env {
    pub entries: Vec<(Option<String>, String, Value)>,
}

impl Env {
    pub fn push(&mut self, qualifier: Option<&str>, name: &str, value: Value) {
        self.entries.push((
            qualifier.map(|q| q.to_ascii_lowercase()),
            name.to_ascii_lowercase(),
            value,
        ));
    }

    pub fn lookup(&self, table: Option<&str>, name: &str) -> Option<&Value> {
        let name = name.to_ascii_lowercase();
        let table = table.map(|t| t.to_ascii_lowercase());
        self.entries
            .iter()
            .find(|(q, n, _)| {
                *n == name
                    && match (&table, q) {
                        (None, _) => true,
                        (Some(t), Some(q)) => t == q,
                        (Some(_), None) => false,
                    }
            })
            .map(|(_, _, v)| v)
    }
}

/// Evaluation context. `outer` chains to the enclosing query's context for
/// correlated subqueries.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub db: &'a Database,
    pub env: Option<&'a Env>,
    pub group: Option<&'a [Env]>,
    pub outer: Option<&'a Ctx<'a>>,
}

impl<'a> Ctx<'a> {
    fn resolve(&self, table: Option<&str>, name: &str) -> Option<Value> {
        if let Some(env) = self.env {
            if let Some(v) = env.lookup(table, name) {
                return Some(v.clone());
            }
        }
        // Group context: resolve against the first row of the group (MySQL
        // permissive non-aggregated column semantics).
        if let Some(group) = self.group {
            if let Some(first) = group.first() {
                if let Some(v) = first.lookup(table, name) {
                    return Some(v.clone());
                }
            }
        }
        self.outer.and_then(|o| o.resolve(table, name))
    }
}

pub(crate) const AGGREGATES: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT"];

pub(crate) fn eval(ctx: Ctx<'_>, side: &mut SideEffects, e: &Expr) -> Result<Value, DbError> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Wildcard => Ok(Value::Int(1)),
        Expr::Column(c) => ctx
            .resolve(c.table.as_deref(), &c.name)
            .ok_or_else(|| DbError::UnknownColumn(c.to_string())),
        Expr::Unary { op, expr } => {
            let v = eval(ctx, side, expr)?;
            Ok(match op {
                UnaryOp::Not => {
                    if v.is_null() {
                        Value::Null
                    } else {
                        Value::from(!v.is_truthy())
                    }
                }
                UnaryOp::Neg => match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Null => Value::Null,
                    other => Value::Float(-other.as_f64()),
                },
                UnaryOp::Plus => v,
            })
        }
        Expr::Binary { left, op, right } => eval_binary(ctx, side, left, *op, right),
        Expr::Function { name, args, distinct } => {
            if AGGREGATES.contains(&name.as_str()) {
                return eval_aggregate(ctx, side, name, args, *distinct);
            }
            // IF / IFNULL / COALESCE evaluate lazily: `IF(c, SLEEP(5), 0)`
            // must only sleep when the condition holds — that laziness *is*
            // the double-blind timing channel.
            match name.as_str() {
                "IF" if args.len() == 3 => {
                    let c = eval(ctx, side, &args[0])?;
                    return eval(ctx, side, if c.is_truthy() { &args[1] } else { &args[2] });
                }
                "IFNULL" if args.len() == 2 => {
                    let v = eval(ctx, side, &args[0])?;
                    return if v.is_null() { eval(ctx, side, &args[1]) } else { Ok(v) };
                }
                "COALESCE" => {
                    for a in args {
                        let v = eval(ctx, side, a)?;
                        if !v.is_null() {
                            return Ok(v);
                        }
                    }
                    return Ok(Value::Null);
                }
                _ => {}
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(ctx, side, a)?);
            }
            eval_function(side, name, &vals)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, side, expr)?;
            Ok(Value::from(v.is_null() != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(ctx, side, expr)?;
            let mut found = false;
            for item in list {
                let iv = eval(ctx, side, item)?;
                if v.sql_eq(&iv) == Some(true) {
                    found = true;
                    break;
                }
            }
            Ok(Value::from(found != *negated))
        }
        Expr::InSubquery { expr, subquery, negated } => {
            let v = eval(ctx, side, expr)?;
            let rows = crate::exec::run_select_with_outer(ctx.db, subquery, side, Some(&ctx))?;
            let found =
                rows.iter().any(|r| r.first().is_some_and(|cell| v.sql_eq(cell) == Some(true)));
            Ok(Value::from(found != *negated))
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(ctx, side, expr)?;
            let lo = eval(ctx, side, low)?;
            let hi = eval(ctx, side, high)?;
            let inside = matches!(
                (v.compare(&lo), v.compare(&hi)),
                (Some(a), Some(b))
                    if a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater
            );
            Ok(Value::from(inside != *negated))
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval(ctx, side, expr)?;
            let p = eval(ctx, side, pattern)?;
            let hit = like_match(&v.as_str(), &p.as_str());
            Ok(Value::from(hit != *negated))
        }
        Expr::Subquery(sub) => {
            let rows = crate::exec::run_select_with_outer(ctx.db, sub, side, Some(&ctx))?;
            Ok(rows.first().and_then(|r| r.first().cloned()).unwrap_or(Value::Null))
        }
        Expr::Exists(sub) => {
            let rows = crate::exec::run_select_with_outer(ctx.db, sub, side, Some(&ctx))?;
            Ok(Value::from(!rows.is_empty()))
        }
        Expr::Case { operand, branches, else_arm } => {
            let op_val = operand.as_deref().map(|o| eval(ctx, side, o)).transpose()?;
            for (when, then) in branches {
                let w = eval(ctx, side, when)?;
                let hit = match &op_val {
                    Some(ov) => ov.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return eval(ctx, side, then);
                }
            }
            match else_arm {
                Some(e) => eval(ctx, side, e),
                None => Ok(Value::Null),
            }
        }
        Expr::Placeholder(_) => Ok(Value::Null),
        Expr::Variable(name) => Ok(match name.to_ascii_lowercase().as_str() {
            "@@version" => Value::Str(mysql_version()),
            _ => Value::Null,
        }),
    }
}

fn eval_binary(
    ctx: Ctx<'_>,
    side: &mut SideEffects,
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
) -> Result<Value, DbError> {
    // Short-circuit logicals (important: `0 AND SLEEP(5)` must not sleep).
    match op {
        BinaryOp::And => {
            let l = eval(ctx, side, left)?;
            if !l.is_null() && !l.is_truthy() {
                return Ok(Value::Int(0));
            }
            let r = eval(ctx, side, right)?;
            if l.is_null() || r.is_null() {
                return Ok(if !r.is_null() && !r.is_truthy() {
                    Value::Int(0)
                } else {
                    Value::Null
                });
            }
            return Ok(Value::from(r.is_truthy()));
        }
        BinaryOp::Or => {
            let l = eval(ctx, side, left)?;
            if !l.is_null() && l.is_truthy() {
                return Ok(Value::Int(1));
            }
            let r = eval(ctx, side, right)?;
            if r.is_null() || l.is_null() {
                return Ok(if !r.is_null() && r.is_truthy() { Value::Int(1) } else { Value::Null });
            }
            return Ok(Value::from(r.is_truthy()));
        }
        _ => {}
    }
    let l = eval(ctx, side, left)?;
    let r = eval(ctx, side, right)?;
    Ok(match op {
        BinaryOp::Xor => {
            if l.is_null() || r.is_null() {
                Value::Null
            } else {
                Value::from(l.is_truthy() != r.is_truthy())
            }
        }
        BinaryOp::Eq => tri(l.sql_eq(&r)),
        BinaryOp::NotEq => tri(l.sql_eq(&r).map(|b| !b)),
        BinaryOp::Lt => tri(l.compare(&r).map(|o| o == std::cmp::Ordering::Less)),
        BinaryOp::LtEq => tri(l.compare(&r).map(|o| o != std::cmp::Ordering::Greater)),
        BinaryOp::Gt => tri(l.compare(&r).map(|o| o == std::cmp::Ordering::Greater)),
        BinaryOp::GtEq => tri(l.compare(&r).map(|o| o != std::cmp::Ordering::Less)),
        BinaryOp::Regexp => {
            // Substring semantics: enough for the testbed payloads.
            Value::from(l.as_str().to_ascii_lowercase().contains(&r.as_str().to_ascii_lowercase()))
        }
        BinaryOp::Add => arith(&l, &r, |a, b| a + b),
        BinaryOp::Sub => arith(&l, &r, |a, b| a - b),
        BinaryOp::Mul => arith(&l, &r, |a, b| a * b),
        BinaryOp::Div => {
            if l.is_null() || r.is_null() || r.as_f64() == 0.0 {
                Value::Null
            } else {
                Value::Float(l.as_f64() / r.as_f64())
            }
        }
        BinaryOp::Mod => {
            if l.is_null() || r.is_null() || r.as_i64() == 0 {
                Value::Null
            } else {
                Value::Int(l.as_i64() % r.as_i64())
            }
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("short-circuited above"),
    })
}

fn tri(b: Option<bool>) -> Value {
    match b {
        Some(v) => Value::from(v),
        None => Value::Null,
    }
}

fn arith(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    let out = f(l.as_f64(), r.as_f64());
    if out == out.trunc()
        && out.abs() < 9e15
        && !matches!(l, Value::Float(_))
        && !matches!(r, Value::Float(_))
    {
        Value::Int(out as i64)
    } else {
        Value::Float(out)
    }
}

/// MySQL `LIKE` with `%` and `_`, case-insensitive (ASCII folding, one
/// byte per `_`).
///
/// The iterative wildcard match: on a mismatch, retry from the last `%`
/// with it swallowing one more byte of `s`. Only the last `%` ever needs
/// retrying (whatever an earlier one would swallow, the later one can),
/// so the match runs in `O(|s|·|pattern|)` time and constant space,
/// folds case per byte and copies nothing. A backtracking matcher that
/// retries every split after every `%` is exponential in the number of
/// `%`s: eleven bytes of `_%` pairs from a search box cost seconds.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    let (s, p) = (s.as_bytes(), pattern.as_bytes());
    let (mut i, mut j) = (0, 0);
    // After the last `%` seen: (pattern index past it, bytes of `s` it has
    // swallowed up to).
    let mut retry: Option<(usize, usize)> = None;
    while i < s.len() {
        match p.get(j) {
            Some(b'%') => {
                j += 1;
                retry = Some((j, i));
            }
            Some(&c) if c == b'_' || c.eq_ignore_ascii_case(&s[i]) => {
                i += 1;
                j += 1;
            }
            _ => match retry {
                Some((after, swallowed)) => {
                    retry = Some((after, swallowed + 1));
                    (i, j) = (swallowed + 1, after);
                }
                None => return false,
            },
        }
    }
    p[j..].iter().all(|&c| c == b'%')
}

fn mysql_version() -> String {
    "5.6.27-joza-sim".to_string()
}

fn eval_aggregate(
    ctx: Ctx<'_>,
    side: &mut SideEffects,
    name: &str,
    args: &[Expr],
    distinct: bool,
) -> Result<Value, DbError> {
    let group: &[Env] = ctx.group.unwrap_or(&[]);
    // Evaluate the argument once per group row.
    let mut values: Vec<Value> = Vec::with_capacity(group.len());
    for row in group {
        let row_ctx = Ctx { db: ctx.db, env: Some(row), group: None, outer: ctx.outer };
        let v = match args.first() {
            Some(Expr::Wildcard) | None => Value::Int(1),
            Some(a) => eval(row_ctx, side, a)?,
        };
        values.push(v);
    }
    if distinct {
        let mut seen: Vec<String> = Vec::new();
        values.retain(|v| {
            let k = format!("{v:?}");
            if seen.contains(&k) {
                false
            } else {
                seen.push(k);
                true
            }
        });
    }
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    Ok(match name {
        "COUNT" => {
            if matches!(args.first(), Some(Expr::Wildcard) | None) {
                Value::Int(values.len() as i64)
            } else {
                Value::Int(non_null.len() as i64)
            }
        }
        "SUM" => {
            if non_null.is_empty() {
                Value::Null
            } else {
                Value::Float(non_null.iter().map(|v| v.as_f64()).sum::<f64>())
            }
        }
        "AVG" => {
            if non_null.is_empty() {
                Value::Null
            } else {
                Value::Float(
                    non_null.iter().map(|v| v.as_f64()).sum::<f64>() / non_null.len() as f64,
                )
            }
        }
        "MIN" => non_null
            .iter()
            .fold(None::<Value>, |acc, v| match acc {
                None => Some((*v).clone()),
                Some(a) => {
                    if v.compare(&a) == Some(std::cmp::Ordering::Less) {
                        Some((*v).clone())
                    } else {
                        Some(a)
                    }
                }
            })
            .unwrap_or(Value::Null),
        "MAX" => non_null
            .iter()
            .fold(None::<Value>, |acc, v| match acc {
                None => Some((*v).clone()),
                Some(a) => {
                    if v.compare(&a) == Some(std::cmp::Ordering::Greater) {
                        Some((*v).clone())
                    } else {
                        Some(a)
                    }
                }
            })
            .unwrap_or(Value::Null),
        "GROUP_CONCAT" => {
            if non_null.is_empty() {
                Value::Null
            } else {
                Value::Str(non_null.iter().map(|v| v.as_str()).collect::<Vec<_>>().join(","))
            }
        }
        other => return Err(DbError::Other(format!("unknown aggregate {other}"))),
    })
}

fn eval_function(side: &mut SideEffects, name: &str, args: &[Value]) -> Result<Value, DbError> {
    let a = |i: usize| -> Value { args.get(i).cloned().unwrap_or(Value::Null) };
    let s = |i: usize| -> String { a(i).as_str() };
    Ok(match name {
        "CONCAT" => {
            if args.iter().any(Value::is_null) {
                Value::Null
            } else {
                Value::Str(args.iter().map(Value::as_str).collect())
            }
        }
        "CONCAT_WS" => {
            let sep = s(0);
            Value::Str(
                args[1..]
                    .iter()
                    .filter(|v| !v.is_null())
                    .map(Value::as_str)
                    .collect::<Vec<_>>()
                    .join(&sep),
            )
        }
        "CHAR" => Value::Str(
            args.iter()
                .filter(|v| !v.is_null())
                .map(|v| char::from_u32(v.as_i64().clamp(0, 0x10FFFF) as u32).unwrap_or('\u{FFFD}'))
                .collect(),
        ),
        "ASCII" | "ORD" => {
            let st = s(0);
            if a(0).is_null() {
                Value::Null
            } else {
                Value::Int(st.as_bytes().first().map_or(0, |b| i64::from(*b)))
            }
        }
        "LENGTH" | "CHAR_LENGTH" => {
            if a(0).is_null() {
                Value::Null
            } else {
                Value::Int(s(0).len() as i64)
            }
        }
        "LOWER" => Value::Str(s(0).to_ascii_lowercase()),
        "UPPER" => Value::Str(s(0).to_ascii_uppercase()),
        "TRIM" => Value::Str(s(0).trim().to_string()),
        "REPLACE" => Value::Str(s(0).replace(&s(1), &s(2))),
        "SUBSTRING" | "SUBSTR" | "MID" => {
            if a(0).is_null() {
                return Ok(Value::Null);
            }
            let st = s(0);
            let pos = a(1).as_i64();
            let len = if args.len() > 2 { Some(a(2).as_i64()) } else { None };
            Value::Str(mysql_substring(&st, pos, len))
        }
        "INSTR" => Value::Int(s(0).find(&s(1)).map_or(0, |i| i as i64 + 1)),
        "LPAD" => {
            let st = s(0);
            let target = a(1).as_i64().max(0) as usize;
            let pad = s(2);
            Value::Str(pad_to(&st, target, &pad, true))
        }
        "RPAD" => {
            let st = s(0);
            let target = a(1).as_i64().max(0) as usize;
            let pad = s(2);
            Value::Str(pad_to(&st, target, &pad, false))
        }
        "HEX" => Value::Str(s(0).bytes().map(|b| format!("{b:02X}")).collect()),
        "UNHEX" => {
            let h = s(0);
            if h.len() % 2 != 0 || !h.bytes().all(|b| b.is_ascii_hexdigit()) {
                Value::Null
            } else {
                let bytes: Vec<u8> = (0..h.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap_or(0))
                    .collect();
                Value::Str(String::from_utf8_lossy(&bytes).into_owned())
            }
        }
        "MD5" => Value::Str(pseudo_md5(&s(0))),
        "IF" => {
            if a(0).is_truthy() {
                a(1)
            } else {
                a(2)
            }
        }
        "IFNULL" => {
            if a(0).is_null() {
                a(1)
            } else {
                a(0)
            }
        }
        "COALESCE" => args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null),
        "VERSION" => Value::Str(mysql_version()),
        "USER" | "CURRENT_USER" | "USERNAME" | "SYSTEM_USER" | "SESSION_USER" => {
            Value::Str("wpuser@localhost".to_string())
        }
        "DATABASE" | "SCHEMA" => Value::Str("wordpress".to_string()),
        "NOW" | "CURRENT_TIMESTAMP" => Value::Str("2014-11-01 12:00:00".to_string()),
        "FLOOR" => Value::Int(a(0).as_f64().floor() as i64),
        "ROUND" => Value::Int(a(0).as_f64().round() as i64),
        "ABS" => {
            let f = a(0).as_f64().abs();
            if f == f.trunc() {
                Value::Int(f as i64)
            } else {
                Value::Float(f)
            }
        }
        "RAND" => {
            // xorshift — deterministic per engine.
            side.rand_state ^= side.rand_state << 13;
            side.rand_state ^= side.rand_state >> 7;
            side.rand_state ^= side.rand_state << 17;
            Value::Float((side.rand_state % 1_000_000) as f64 / 1_000_000.0)
        }
        "SLEEP" => {
            let secs = a(0).as_f64().max(0.0);
            side.sleep_ms += (secs * 1000.0) as u64;
            Value::Int(0)
        }
        "BENCHMARK" => {
            // Model: one million iterations ≈ 250 virtual ms.
            let iters = a(0).as_i64().max(0) as u64;
            side.sleep_ms += iters / 4000;
            Value::Int(0)
        }
        "CAST" | "CONVERT" => a(0),
        "EXTRACTVALUE" | "UPDATEXML" => {
            // MySQL raises `XPATH syntax error` embedding (a prefix of) the
            // evaluated XPath argument — the error-based exfiltration channel.
            let leak = s(1);
            let truncated: String = leak.chars().take(32).collect();
            return Err(DbError::Xpath(truncated));
        }
        "LOAD_FILE" => Value::Null,
        other => return Err(DbError::Other(format!("unknown function {other}()"))),
    })
}

/// MySQL SUBSTRING: 1-based, negative positions count from the end.
fn mysql_substring(s: &str, pos: i64, len: Option<i64>) -> String {
    let n = s.len() as i64;
    let start = if pos > 0 {
        pos - 1
    } else if pos < 0 {
        (n + pos).max(0)
    } else {
        return String::new(); // MySQL: position 0 yields empty
    };
    if start >= n {
        return String::new();
    }
    let end = match len {
        None => n,
        Some(l) if l <= 0 => return String::new(),
        Some(l) => (start + l).min(n),
    };
    s.get(start as usize..end as usize).unwrap_or("").to_string()
}

fn pad_to(s: &str, target: usize, pad: &str, left: bool) -> String {
    if s.len() >= target {
        return s[..target].to_string();
    }
    if pad.is_empty() {
        return String::new();
    }
    let mut padding = String::new();
    while s.len() + padding.len() < target {
        padding.push_str(pad);
    }
    padding.truncate(target - s.len());
    if left {
        format!("{padding}{s}")
    } else {
        format!("{s}{padding}")
    }
}

/// Deterministic stand-in for MD5 (stable 32-hex digest; not crypto).
fn pseudo_md5(s: &str) -> String {
    let mut h1: u64 = 0xcbf29ce484222325;
    let mut h2: u64 = 0x9e3779b97f4a7c15;
    for &b in s.as_bytes() {
        h1 = (h1 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        h2 = h2.rotate_left(7) ^ u64::from(b).wrapping_mul(0x2545F4914F6CDD1D);
    }
    format!("{h1:016x}{h2:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backtracking matcher `like_match` replaced: it retries the rest
    /// of the pattern at every split after a `%`. The reference for the
    /// iterative one (exponential in the number of `%`s).
    fn like_match_reference(s: &str, pattern: &str) -> bool {
        fn rec(s: &[u8], p: &[u8]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some(b'%') => (0..=s.len()).any(|skip| rec(&s[skip..], &p[1..])),
                Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
                Some(&c) => !s.is_empty() && s[0] == c && rec(&s[1..], &p[1..]),
            }
        }
        rec(s.to_ascii_lowercase().as_bytes(), pattern.to_ascii_lowercase().as_bytes())
    }

    proptest::proptest! {
        /// The iterative matcher agrees with the backtracking one on short
        /// strings over `aA_%b` and a two-byte character, so `_` meets
        /// half a character and `%` runs, case folding and literal `_`/`%`
        /// in the subject all occur. Every subject is tried against every
        /// pattern of the case.
        #[test]
        fn like_match_agrees_with_backtracking_reference(
            subjects in proptest::collection::vec("[aA_%bé]{0,10}", 12..13),
            patterns in proptest::collection::vec("[aA_%bé]{0,8}", 12..13),
        ) {
            for s in &subjects {
                for p in &patterns {
                    let want = like_match_reference(s, p);
                    proptest::prop_assert_eq!(like_match(s, p), want, "{:?} LIKE {:?}", s, p);
                }
            }
        }
    }

    #[test]
    fn like_many_wildcard_pairs_on_a_long_subject() {
        // 40 `_%` pairs against 4 KB: the backtracking matcher would not
        // finish; the iterative one is O(|s|·|p|).
        let subject: String = "lorem ipsum dolor ".repeat(228);
        assert!(subject.len() >= 4096);
        let pairs = "_%".repeat(40);
        assert!(like_match(&subject, &pairs));
        assert!(like_match(&subject, &format!("{pairs}DOLOR ")));
        assert!(!like_match(&subject, &format!("{pairs}#")));
        assert!(!like_match(&subject[..39], &pairs));
        assert!(like_match(&subject[..40], &pairs));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello world", "%world"));
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("HELLO", "hello"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%b%"));
    }

    #[test]
    fn substring_semantics() {
        assert_eq!(mysql_substring("Quadratically", 5, Some(6)), "ratica");
        assert_eq!(mysql_substring("Sakila", -3, None), "ila");
        assert_eq!(mysql_substring("Sakila", 0, None), "");
        assert_eq!(mysql_substring("abc", 10, None), "");
        assert_eq!(mysql_substring("abc", 1, Some(0)), "");
    }

    #[test]
    fn padding() {
        assert_eq!(pad_to("hi", 5, "?", true), "???hi");
        assert_eq!(pad_to("hi", 5, "ab", false), "hiaba");
        assert_eq!(pad_to("hello", 3, "?", true), "hel");
    }

    #[test]
    fn env_lookup_qualifiers() {
        let mut env = Env::default();
        env.push(Some("u"), "ID", Value::Int(1));
        env.push(Some("p"), "id", Value::Int(2));
        assert_eq!(env.lookup(None, "id"), Some(&Value::Int(1))); // first wins
        assert_eq!(env.lookup(Some("p"), "ID"), Some(&Value::Int(2)));
        assert_eq!(env.lookup(Some("x"), "id"), None);
    }
}
