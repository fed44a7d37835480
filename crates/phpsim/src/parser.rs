//! Recursive-descent parser for the PHP subset.

use crate::ast::*;
use crate::lexer::{lex_php_spanned, LexError, PTok, StrPart};
use crate::span::Span;
use crate::value::PValue;
use std::cell::Cell;
use std::fmt;

/// An error produced while parsing PHP source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhpParseError {
    /// Token index where the error occurred (best effort).
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for PhpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PHP parse error near token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for PhpParseError {}

impl From<LexError> for PhpParseError {
    fn from(e: LexError) -> Self {
        PhpParseError { at: 0, message: e.to_string() }
    }
}

/// Parses a PHP-subset script into a [`Program`].
///
/// # Errors
///
/// Returns [`PhpParseError`] on lex errors or constructs outside the
/// subset. Plugin sources in the testbed are authored against this subset.
///
/// # Examples
///
/// ```
/// use joza_phpsim::parser::parse_program;
///
/// let prog = parse_program(r#"
///     $id = intval($_GET['id']);
///     if ($id > 0) { mysql_query("SELECT * FROM t WHERE id=$id"); }
/// "#)?;
/// assert_eq!(prog.len(), 2);
/// # Ok::<(), joza_phpsim::parser::PhpParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, PhpParseError> {
    parse_program_spanned(src).map(|(prog, _)| prog)
}

/// Parses a PHP-subset script into a [`Program`] plus a byte-[`Span`]
/// table with one entry per statement, indexed in statement *preorder*:
/// a statement before its children, the `then` branch before the `else`
/// branch, bodies in textual order. `spans[id]` is the source range of
/// the `id`-th statement in that order.
///
/// # Errors
///
/// Same failure modes as [`parse_program`].
pub fn parse_program_spanned(src: &str) -> Result<(Program, Vec<Span>), PhpParseError> {
    PARSES.with(|n| n.set(n.get() + 1));
    let (toks, tok_spans) = lex_php_spanned(src)?;
    let mut p = PhpParser { toks, tok_spans, pos: 0, stmt_spans: Vec::new() };
    let mut out = Vec::new();
    while p.pos < p.toks.len() {
        out.push(p.stmt()?);
    }
    Ok((out, p.stmt_spans))
}

thread_local! {
    static PARSES: Cell<u64> = const { Cell::new(0) };
}

/// How many sources [`parse_program_spanned`] (and so [`parse_program`])
/// has parsed on the calling thread, failed parses included. A test can
/// read it before and after a pipeline to pin how often it parses.
pub fn parse_count() -> u64 {
    PARSES.with(Cell::get)
}

struct PhpParser {
    toks: Vec<PTok>,
    tok_spans: Vec<Span>,
    pos: usize,
    /// Statement spans in preorder; slots are pushed when a statement
    /// starts parsing and closed when it finishes.
    stmt_spans: Vec<Span>,
}

type PResult<T> = Result<T, PhpParseError>;

impl PhpParser {
    fn err(&self, message: impl Into<String>) -> PhpParseError {
        PhpParseError { at: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<&PTok> {
        self.toks.get(self.pos)
    }

    fn at_op(&self, op: &str) -> bool {
        matches!(self.peek(), Some(PTok::Op(o)) if *o == op)
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if self.at_op(op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: &str) -> PResult<()> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{op}`, found {:?}", self.peek())))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(PTok::Ident(i)) if i.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    /// Opens a preorder span slot whose `lo` is the start of the token at
    /// `tok`, returning the slot index for [`Self::end_stmt`].
    fn begin_stmt_at(&mut self, tok: usize) -> usize {
        let lo = self
            .tok_spans
            .get(tok)
            .map_or_else(|| self.tok_spans.last().map_or(0, |s| s.hi), |s| s.lo);
        self.stmt_spans.push(Span::new(lo, lo));
        self.stmt_spans.len() - 1
    }

    /// Closes a span slot at the end of the previously consumed token.
    fn end_stmt(&mut self, slot: usize) {
        let hi = self
            .pos
            .checked_sub(1)
            .and_then(|i| self.tok_spans.get(i))
            .map_or(self.stmt_spans[slot].lo, |s| s.hi);
        self.stmt_spans[slot].hi = hi.max(self.stmt_spans[slot].lo);
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let slot = self.begin_stmt_at(self.pos);
        let stmt = self.stmt_inner()?;
        self.end_stmt(slot);
        Ok(stmt)
    }

    fn stmt_inner(&mut self) -> PResult<Stmt> {
        if self.eat_kw("if") {
            return self.if_stmt();
        }
        if self.eat_kw("while") {
            self.expect_op("(")?;
            let cond = self.expr()?;
            self.expect_op(")")?;
            let body = self.block_or_single()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.eat_kw("foreach") {
            self.expect_op("(")?;
            let array = self.expr()?;
            self.expect_kw("as")?;
            let first = self.var_name()?;
            let (key_var, val_var) =
                if self.eat_op("=>") { (Some(first), self.var_name()?) } else { (None, first) };
            self.expect_op(")")?;
            let body = self.block_or_single()?;
            return Ok(Stmt::Foreach { array, key_var, val_var, body });
        }
        if self.eat_kw("echo") {
            let mut exprs = vec![self.expr()?];
            while self.eat_op(",") {
                exprs.push(self.expr()?);
            }
            self.expect_op(";")?;
            return Ok(Stmt::Echo(exprs));
        }
        if self.eat_kw("return") {
            let value = if self.at_op(";") { None } else { Some(self.expr()?) };
            self.expect_op(";")?;
            return Ok(Stmt::Return(value));
        }
        if self.eat_kw("exit") || self.eat_kw("die") {
            let value = if self.eat_op("(") {
                let v = if self.at_op(")") { None } else { Some(self.expr()?) };
                self.expect_op(")")?;
                v
            } else {
                None
            };
            self.expect_op(";")?;
            return Ok(Stmt::Exit(value));
        }
        if self.eat_kw("break") {
            self.expect_op(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_kw("continue") {
            self.expect_op(";")?;
            return Ok(Stmt::Continue);
        }
        // Assignment: $var [index]* (=|.=|+=|-=) expr ;
        if let Some(PTok::Var(_)) = self.peek() {
            if let Some(stmt) = self.try_assignment()? {
                return Ok(stmt);
            }
        }
        // Fallback: expression statement.
        let e = self.expr()?;
        self.expect_op(";")?;
        Ok(Stmt::Expr(e))
    }

    /// Attempts to parse an assignment statement; rewinds and returns
    /// `Ok(None)` when the `$var…` turns out to be a plain expression.
    fn try_assignment(&mut self) -> PResult<Option<Stmt>> {
        let save = self.pos;
        let var = match self.peek() {
            Some(PTok::Var(v)) => v.clone(),
            _ => return Ok(None),
        };
        self.pos += 1;
        let mut indices: Vec<Option<Expr>> = Vec::new();
        while self.eat_op("[") {
            if self.eat_op("]") {
                indices.push(None);
            } else {
                let idx = self.expr()?;
                self.expect_op("]")?;
                indices.push(Some(idx));
            }
        }
        let op = if self.eat_op("=") {
            None
        } else if self.eat_op(".=") {
            Some(AssignOp::Concat)
        } else if self.eat_op("+=") {
            Some(AssignOp::Add)
        } else if self.eat_op("-=") {
            Some(AssignOp::Sub)
        } else {
            self.pos = save;
            return Ok(None);
        };
        let expr = self.expr()?;
        self.expect_op(";")?;
        Ok(Some(Stmt::Assign { var, indices, op, expr }))
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        self.expect_op("(")?;
        let cond = self.expr()?;
        self.expect_op(")")?;
        let then_branch = self.block_or_single()?;
        let else_branch = if self.at_kw("elseif") {
            let kw = self.pos;
            self.pos += 1;
            vec![self.nested_if(kw)?]
        } else if self.eat_kw("else") {
            if self.at_kw("if") {
                let kw = self.pos;
                self.pos += 1;
                vec![self.nested_if(kw)?]
            } else {
                self.block_or_single()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then_branch, else_branch })
    }

    /// An `elseif`/`else if` desugars into a nested `If` *statement* in
    /// the else branch; it needs its own preorder span slot (anchored at
    /// the keyword token) because it is not parsed through [`Self::stmt`].
    fn nested_if(&mut self, kw_tok: usize) -> PResult<Stmt> {
        let slot = self.begin_stmt_at(kw_tok);
        let stmt = self.if_stmt()?;
        self.end_stmt(slot);
        Ok(stmt)
    }

    fn block_or_single(&mut self) -> PResult<Vec<Stmt>> {
        if self.eat_op("{") {
            let mut body = Vec::new();
            while !self.eat_op("}") {
                if self.peek().is_none() {
                    return Err(self.err("unterminated block"));
                }
                body.push(self.stmt()?);
            }
            Ok(body)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn var_name(&mut self) -> PResult<String> {
        match self.peek() {
            Some(PTok::Var(v)) => {
                let v = v.clone();
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.err("expected variable")),
        }
    }

    // ----- expressions -----

    fn expr(&mut self) -> PResult<Expr> {
        // Assignment expression: `$var = expr` (supports the idiomatic
        // `while ($row = mysql_fetch_assoc($r))`).
        if let Some(PTok::Var(v)) = self.peek() {
            if matches!(self.toks.get(self.pos + 1), Some(PTok::Op("="))) {
                let var = v.clone();
                self.pos += 2;
                let rhs = self.expr()?;
                return Ok(Expr::AssignExpr { var, expr: Box::new(rhs) });
            }
        }
        self.ternary()
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.or_expr()?;
        if self.eat_op("?") {
            if self.eat_op(":") {
                let else_val = self.ternary()?;
                return Ok(Expr::Ternary {
                    cond: Box::new(cond),
                    then_val: None,
                    else_val: Box::new(else_val),
                });
            }
            let then_val = self.expr()?;
            self.expect_op(":")?;
            let else_val = self.ternary()?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_val: Some(Box::new(then_val)),
                else_val: Box::new(else_val),
            });
        }
        Ok(cond)
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_op("||") || self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary { left: Box::new(left), op: BinOp::Or, right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut left = self.equality()?;
        while self.eat_op("&&") || self.eat_kw("and") {
            let right = self.equality()?;
            left = Expr::Binary { left: Box::new(left), op: BinOp::And, right: Box::new(right) };
        }
        Ok(left)
    }

    fn equality(&mut self) -> PResult<Expr> {
        let mut left = self.relational()?;
        loop {
            let op = if self.eat_op("===") {
                BinOp::Identical
            } else if self.eat_op("!==") {
                BinOp::NotIdentical
            } else if self.eat_op("==") {
                BinOp::Eq
            } else if self.eat_op("!=") || self.eat_op("<>") {
                BinOp::NotEq
            } else {
                break;
            };
            let right = self.relational()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn relational(&mut self) -> PResult<Expr> {
        let mut left = self.additive()?;
        loop {
            let op = if self.eat_op("<=") {
                BinOp::LtEq
            } else if self.eat_op(">=") {
                BinOp::GtEq
            } else if self.eat_op("<") {
                BinOp::Lt
            } else if self.eat_op(">") {
                BinOp::Gt
            } else {
                break;
            };
            let right = self.additive()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn additive(&mut self) -> PResult<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_op(".") {
                BinOp::Concat
            } else if self.eat_op("+") {
                BinOp::Add
            } else if self.eat_op("-") {
                BinOp::Sub
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> PResult<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_op("*") {
                BinOp::Mul
            } else if self.eat_op("/") {
                BinOp::Div
            } else if self.eat_op("%") {
                BinOp::Mod
            } else {
                break;
            };
            let right = self.unary()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> PResult<Expr> {
        if self.eat_op("!") {
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(self.unary()?) });
        }
        if self.eat_op("-") {
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(self.unary()?) });
        }
        if self.eat_op("@") {
            return Ok(Expr::Unary { op: UnaryOp::Silence, expr: Box::new(self.unary()?) });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut base = self.primary()?;
        while self.eat_op("[") {
            let index = self.expr()?;
            self.expect_op("]")?;
            base = Expr::Index { base: Box::new(base), index: Box::new(index) };
        }
        Ok(base)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let tok = self.peek().cloned().ok_or_else(|| self.err("unexpected end of input"))?;
        match tok {
            PTok::Var(name) => {
                self.pos += 1;
                Ok(Expr::Var(name))
            }
            PTok::Int(i) => {
                self.pos += 1;
                Ok(Expr::Lit(PValue::Int(i)))
            }
            PTok::Float(f) => {
                self.pos += 1;
                Ok(Expr::Lit(PValue::Float(f)))
            }
            PTok::Str(parts) => {
                self.pos += 1;
                if parts.iter().all(|p| matches!(p, StrPart::Lit(_))) {
                    let joined: String = parts
                        .iter()
                        .map(|p| match p {
                            StrPart::Lit(s) => s.as_str(),
                            StrPart::Interp(_) => unreachable!(),
                        })
                        .collect();
                    Ok(Expr::Lit(PValue::Str(joined)))
                } else {
                    Ok(Expr::Interp(
                        parts
                            .into_iter()
                            .map(|p| match p {
                                StrPart::Lit(s) => InterpPart::Lit(s),
                                StrPart::Interp(v) => InterpPart::Var(v),
                            })
                            .collect(),
                    ))
                }
            }
            PTok::Op("(") => {
                self.pos += 1;
                let inner = self.expr()?;
                self.expect_op(")")?;
                Ok(inner)
            }
            PTok::Op("[") => {
                self.pos += 1;
                self.array_lit("]")
            }
            PTok::Ident(name) => {
                self.pos += 1;
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => Ok(Expr::Lit(PValue::Bool(true))),
                    "false" => Ok(Expr::Lit(PValue::Bool(false))),
                    "null" => Ok(Expr::Lit(PValue::Null)),
                    "array" => {
                        self.expect_op("(")?;
                        self.array_lit(")")
                    }
                    "isset" => {
                        self.expect_op("(")?;
                        let mut args = vec![self.expr()?];
                        while self.eat_op(",") {
                            args.push(self.expr()?);
                        }
                        self.expect_op(")")?;
                        Ok(Expr::Isset(args))
                    }
                    "empty" => {
                        self.expect_op("(")?;
                        let e = self.expr()?;
                        self.expect_op(")")?;
                        Ok(Expr::Empty(Box::new(e)))
                    }
                    _ => {
                        self.expect_op("(")?;
                        let mut args = Vec::new();
                        if !self.at_op(")") {
                            args.push(self.expr()?);
                            while self.eat_op(",") {
                                args.push(self.expr()?);
                            }
                        }
                        self.expect_op(")")?;
                        Ok(Expr::Call { name, args })
                    }
                }
            }
            other => Err(self.err(format!("unexpected token {other}"))),
        }
    }

    fn array_lit(&mut self, close: &str) -> PResult<Expr> {
        let mut items = Vec::new();
        if !self.at_op(close) {
            loop {
                let first = self.expr()?;
                if self.eat_op("=>") {
                    let value = self.expr()?;
                    items.push((Some(first), value));
                } else {
                    items.push((None, first));
                }
                if !self.eat_op(",") {
                    break;
                }
                if self.at_op(close) {
                    break; // trailing comma
                }
            }
        }
        self.expect_op(close)?;
        Ok(Expr::ArrayLit(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Stmt {
        let mut prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 1, "expected one stmt in {src}");
        prog.remove(0)
    }

    #[test]
    fn simple_assignment() {
        match parse_one("$x = 5;") {
            Stmt::Assign { var, indices, op, expr } => {
                assert_eq!(var, "x");
                assert!(indices.is_empty());
                assert!(op.is_none());
                assert_eq!(expr, Expr::Lit(PValue::Int(5)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn concat_assignment() {
        match parse_one("$q .= ' LIMIT 5';") {
            Stmt::Assign { op: Some(AssignOp::Concat), .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn superglobal_index() {
        match parse_one("$id = $_GET['id'];") {
            Stmt::Assign { expr: Expr::Index { base, index }, .. } => {
                assert_eq!(*base, Expr::Var("_GET".into()));
                assert_eq!(*index, Expr::Lit(PValue::Str("id".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn array_append() {
        match parse_one("$a[] = 1;") {
            Stmt::Assign { indices, .. } => assert_eq!(indices, vec![None]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_array_assign() {
        match parse_one("$a['x'][2] = 1;") {
            Stmt::Assign { indices, .. } => assert_eq!(indices.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_elseif_else() {
        let stmt = parse_one("if ($a) { $x = 1; } elseif ($b) { $x = 2; } else { $x = 3; }");
        match stmt {
            Stmt::If { else_branch, .. } => {
                assert_eq!(else_branch.len(), 1);
                assert!(matches!(else_branch[0], Stmt::If { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn while_and_foreach() {
        parse_one("while ($row = mysql_fetch_assoc($r)) { $out .= $row['id']; }");
        parse_one("foreach ($items as $k => $v) { $q .= $v; }");
        parse_one("foreach ($items as $v) $q .= $v;");
    }

    #[test]
    fn function_call_expr_stmt() {
        match parse_one("mysql_query($q);") {
            Stmt::Expr(Expr::Call { name, args }) => {
                assert_eq!(name, "mysql_query");
                assert_eq!(args.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interpolated_string_expr() {
        match parse_one(r#"$q = "SELECT * WHERE id=$id";"#) {
            Stmt::Assign { expr: Expr::Interp(parts), .. } => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[1], InterpPart::Var("id".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ternary_and_short_ternary() {
        parse_one("$x = $a ? 1 : 2;");
        parse_one("$x = $a ?: 'default';");
    }

    #[test]
    fn echo_multiple() {
        match parse_one("echo $a, 'x', 3;") {
            Stmt::Echo(exprs) => assert_eq!(exprs.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exit_and_die() {
        assert!(matches!(parse_one("exit;"), Stmt::Exit(None)));
        assert!(matches!(parse_one("die('msg');"), Stmt::Exit(Some(_))));
    }

    #[test]
    fn array_literals() {
        parse_one("$a = array(1, 2, 3);");
        parse_one("$a = array('k' => 'v', 'k2' => 2);");
        parse_one("$a = ['x', 'y',];");
    }

    #[test]
    fn isset_empty() {
        parse_one("$x = isset($_GET['id']) ? $_GET['id'] : 0;");
        parse_one("if (empty($x)) { $x = 1; }");
    }

    #[test]
    fn precedence_concat_vs_compare() {
        // `.` binds tighter than `==`.
        match parse_one("$x = $a . $b == $c;") {
            Stmt::Assign { expr: Expr::Binary { op: BinOp::Eq, .. }, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assignment_in_while_condition() {
        // `$row = f()` inside a condition is an expression in real PHP; our
        // subset models the common `while ($row = mysql_fetch_assoc(...))`
        // via a dedicated hack-free path: it parses as Call wrapped in
        // assignment-expression. Verify it parses.
        let prog = parse_program("while ($row = mysql_fetch_assoc($r)) { echo $row['a']; }");
        assert!(prog.is_ok());
    }

    #[test]
    fn errors() {
        assert!(parse_program("$x = ;").is_err());
        assert!(parse_program("if ($a { }").is_err());
        assert!(parse_program("$x = 5").is_err()); // missing semicolon
        assert!(parse_program("foo(;").is_err());
    }

    #[test]
    fn spans_cover_whole_statements() {
        let src = "$a = 1; $b = $a . 'x'; mysql_query($b);";
        let (prog, spans) = parse_program_spanned(src).unwrap();
        assert_eq!(prog.len(), 3);
        assert_eq!(spans[0].slice(src), "$a = 1;");
        assert_eq!(spans[1].slice(src), "$b = $a . 'x';");
        assert_eq!(spans[2].slice(src), "mysql_query($b);");
    }
}
