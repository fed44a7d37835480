//! Typed abstract syntax tree for the MySQL subset Joza executes.
//!
//! The in-memory database engine (`joza-db`) evaluates it and binds
//! prepared-statement values into it; [`crate::cells`] reads result-column
//! provenance off it for the engine and for the static store/load pass.
//! Each structural walk over expressions goes through [`Expr::children`]
//! (or [`Expr::children_mut`]), which never enters a nested `SELECT`: a
//! caller that cares about subqueries matches the subquery variants
//! itself. [`Statement::exprs_mut`] lists the expressions a statement
//! holds.

use crate::value::Value;
use std::fmt;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT …` (possibly a `UNION` chain).
    Select(SelectStatement),
    /// `INSERT INTO …`
    Insert(InsertStatement),
    /// `UPDATE … SET …`
    Update(UpdateStatement),
    /// `DELETE FROM …`
    Delete(DeleteStatement),
}

impl Statement {
    /// Whether executing this statement can modify data.
    pub fn is_write(&self) -> bool {
        !matches!(self, Statement::Select(_))
    }

    /// The statement's expressions in source order (a `SELECT`'s as
    /// [`SelectStatement::exprs_mut`] lists them). Nested subqueries are
    /// not entered.
    pub fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Statement::Select(s) => s.exprs_mut(),
            Statement::Insert(i) => i.rows.iter_mut().flatten().collect(),
            Statement::Update(u) => u
                .assignments
                .iter_mut()
                .map(|(_, e)| e)
                .chain(&mut u.where_clause)
                .chain(u.limit.iter_mut().flat_map(Limit::exprs_mut))
                .collect(),
            Statement::Delete(d) => d
                .where_clause
                .iter_mut()
                .chain(d.limit.iter_mut().flat_map(Limit::exprs_mut))
                .collect(),
        }
    }
}

/// A `SELECT` statement, including any `UNION`/`UNION ALL` continuations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<Projection>,
    /// `FROM` table (absent for `SELECT 1`-style queries).
    pub from: Option<TableRef>,
    /// `JOIN` clauses, in order.
    pub joins: Vec<Join>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` clause.
    pub limit: Option<Limit>,
    /// `UNION`/`UNION ALL` continuations applied to this query's rows.
    pub set_ops: Vec<(SetOp, SelectStatement)>,
}

impl SelectStatement {
    /// The expressions of this `SELECT` and then of each `UNION` arm,
    /// clause by clause: projections, `JOIN … ON`, `WHERE`, `GROUP BY`,
    /// `HAVING`, `ORDER BY`, `LIMIT`. Nested subqueries are not entered.
    pub fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        let mut out = Vec::new();
        self.push_exprs_mut(&mut out);
        out
    }

    fn push_exprs_mut<'a>(&'a mut self, out: &mut Vec<&'a mut Expr>) {
        out.extend(self.projections.iter_mut().filter_map(|p| match p {
            Projection::Expr { expr, .. } => Some(expr),
            _ => None,
        }));
        out.extend(self.joins.iter_mut().filter_map(|j| j.on.as_mut()));
        out.extend(self.where_clause.iter_mut().chain(&mut self.group_by).chain(&mut self.having));
        out.extend(self.order_by.iter_mut().map(|o| &mut o.expr));
        out.extend(self.limit.iter_mut().flat_map(Limit::exprs_mut));
        for (_, arm) in &mut self.set_ops {
            arm.push_exprs_mut(out);
        }
    }
}

/// One projection in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS` alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Alias, if any.
        alias: Option<String>,
    },
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name (backticks stripped).
    pub name: String,
    /// `AS` alias, if any.
    pub alias: Option<String>,
}

/// A join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join flavor.
    pub kind: JoinKind,
    /// Joined table.
    pub table: TableRef,
    /// `ON` predicate (absent for `CROSS JOIN`).
    pub on: Option<Expr>,
}

/// Join flavors supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    Left,
    /// `CROSS JOIN`
    Cross,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key expression.
    pub expr: Expr,
    /// `DESC` if true, `ASC` otherwise.
    pub desc: bool,
}

/// A `LIMIT [offset,] count` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Limit {
    /// Row offset (0 when unspecified).
    pub offset: Option<Expr>,
    /// Maximum number of rows.
    pub count: Expr,
}

impl Limit {
    fn exprs_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        self.offset.iter_mut().chain([&mut self.count])
    }
}

/// Set operations chaining `SELECT`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `UNION` (dedups).
    Union,
    /// `UNION ALL`.
    UnionAll,
}

/// An `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    /// Target table.
    pub table: String,
    /// Column list (may be empty: positional insert).
    pub columns: Vec<String>,
    /// One expression row per `VALUES` tuple.
    pub rows: Vec<Vec<Expr>>,
}

/// An `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStatement {
    /// Target table.
    pub table: String,
    /// `SET col = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `LIMIT` clause.
    pub limit: Option<Limit>,
}

/// A `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStatement {
    /// Target table.
    pub table: String,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `LIMIT` clause.
    pub limit: Option<Limit>,
}

/// A column reference, optionally qualified by table or alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Qualifier (`t` in `t.id`), if present.
    pub table: Option<String>,
    /// Column name (backticks stripped).
    pub name: String,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference.
    Column(ColumnRef),
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A function call.
    Function {
        /// Uppercased function name.
        name: String,
        /// Arguments; `COUNT(*)` is represented with a single
        /// [`Expr::Wildcard`] argument.
        args: Vec<Expr>,
        /// `DISTINCT` inside an aggregate, e.g. `COUNT(DISTINCT x)`.
        distinct: bool,
    },
    /// `*` used as a function argument (`COUNT(*)`).
    Wildcard,
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (list…)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery.
        subquery: Box<SelectStatement>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// The `%`/`_` pattern.
        pattern: Box<Expr>,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// A scalar subquery `(SELECT …)`.
    Subquery(Box<SelectStatement>),
    /// `EXISTS (SELECT …)`.
    Exists(Box<SelectStatement>),
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Operand for the simple form (`CASE x WHEN v THEN …`).
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` arm.
        else_arm: Option<Box<Expr>>,
    },
    /// `?` or `:name` placeholder (prepared statements).
    Placeholder(String),
    /// `@var` / `@@sysvar`.
    Variable(String),
}

/// An expression's direct subexpressions: up to three leading operands,
/// a list, `CASE` branches, and a trailing `ELSE` arm.
type ExprParts<'a> = ([Option<&'a Expr>; 3], &'a [Expr], &'a [(Expr, Expr)], Option<&'a Expr>);
type ExprPartsMut<'a> =
    ([Option<&'a mut Expr>; 3], &'a mut [Expr], &'a mut [(Expr, Expr)], Option<&'a mut Expr>);

impl Expr {
    /// The direct subexpressions, in source order: the one traversal every
    /// structural recursion over SQL expressions goes through. A nested
    /// `SELECT` is not entered: [`Expr::InSubquery`] yields only its tested
    /// expression, [`Expr::Subquery`] and [`Expr::Exists`] yield nothing.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let (fixed, list, branches, last): ExprParts<'_> = match self {
            Expr::Literal(_)
            | Expr::Column(_)
            | Expr::Wildcard
            | Expr::Subquery(_)
            | Expr::Exists(_)
            | Expr::Placeholder(_)
            | Expr::Variable(_) => ([None; 3], &[], &[], None),
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => ([Some(&**expr), None, None], &[], &[], None),
            Expr::Binary { left: a, right: b, .. } | Expr::Like { expr: a, pattern: b, .. } => {
                ([Some(&**a), Some(&**b), None], &[], &[], None)
            }
            Expr::Between { expr, low, high, .. } => {
                ([Some(&**expr), Some(&**low), Some(&**high)], &[], &[], None)
            }
            Expr::Function { args, .. } => ([None; 3], args, &[], None),
            Expr::InList { expr, list, .. } => ([Some(&**expr), None, None], list, &[], None),
            Expr::Case { operand, branches, else_arm } => {
                ([operand.as_deref(), None, None], &[], branches, else_arm.as_deref())
            }
        };
        fixed
            .into_iter()
            .flatten()
            .chain(list)
            .chain(branches.iter().flat_map(|(w, t)| [w, t]))
            .chain(last)
    }

    /// [`Expr::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (fixed, list, branches, last): ExprPartsMut<'_> = match self {
            Expr::Literal(_)
            | Expr::Column(_)
            | Expr::Wildcard
            | Expr::Subquery(_)
            | Expr::Exists(_)
            | Expr::Placeholder(_)
            | Expr::Variable(_) => ([None, None, None], &mut [], &mut [], None),
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => {
                ([Some(&mut **expr), None, None], &mut [], &mut [], None)
            }
            Expr::Binary { left: a, right: b, .. } | Expr::Like { expr: a, pattern: b, .. } => {
                ([Some(&mut **a), Some(&mut **b), None], &mut [], &mut [], None)
            }
            Expr::Between { expr, low, high, .. } => {
                ([Some(&mut **expr), Some(&mut **low), Some(&mut **high)], &mut [], &mut [], None)
            }
            Expr::Function { args, .. } => ([None, None, None], args, &mut [], None),
            Expr::InList { expr, list, .. } => {
                ([Some(&mut **expr), None, None], list, &mut [], None)
            }
            Expr::Case { operand, branches, else_arm } => {
                ([operand.as_deref_mut(), None, None], &mut [], branches, else_arm.as_deref_mut())
            }
        };
        fixed
            .into_iter()
            .flatten()
            .chain(list)
            .chain(branches.iter_mut().flat_map(|(w, t)| [w, t]))
            .chain(last)
    }

    /// Whether `pred` holds for this expression or any expression under
    /// it, preorder, without entering nested subqueries.
    pub fn any(&self, pred: &impl Fn(&Expr) -> bool) -> bool {
        pred(self) || self.children().any(|c| c.any(pred))
    }

    /// Convenience constructor for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience constructor for an unqualified column.
    pub fn col(name: &str) -> Expr {
        Expr::Column(ColumnRef { table: None, name: name.to_string() })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical `NOT` / `!`.
    Not,
    /// Arithmetic negation.
    Neg,
    /// Unary plus (no-op).
    Plus,
}

/// Binary operators in precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `OR` / `||`.
    Or,
    /// `XOR`.
    Xor,
    /// `AND` / `&&`.
    And,
    /// `=`.
    Eq,
    /// `<>` / `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `REGEXP` / `RLIKE`.
    Regexp,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%` / `MOD`.
    Mod,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_write_classification() {
        let sel = Statement::Select(SelectStatement::default());
        assert!(!sel.is_write());
        let ins =
            Statement::Insert(InsertStatement { table: "t".into(), columns: vec![], rows: vec![] });
        assert!(ins.is_write());
    }

    #[test]
    fn column_ref_display() {
        let c = ColumnRef { table: Some("t".into()), name: "id".into() };
        assert_eq!(c.to_string(), "t.id");
        let c = ColumnRef { table: None, name: "id".into() };
        assert_eq!(c.to_string(), "id");
    }

    #[test]
    fn children_are_exactly_the_direct_subexpressions() {
        let l = |i: i64| Expr::lit(i);
        let b = |i: i64| Box::new(l(i));
        let sub = || {
            let expr = l(99);
            Box::new(SelectStatement {
                projections: vec![Projection::Expr { expr, alias: None }],
                ..SelectStatement::default()
            })
        };
        let cases = [
            (l(0), vec![]),
            (Expr::col("c"), vec![]),
            (Expr::Unary { op: UnaryOp::Neg, expr: b(1) }, vec![1]),
            (Expr::Binary { left: b(1), op: BinaryOp::Add, right: b(2) }, vec![1, 2]),
            (
                Expr::Function { name: "F".into(), args: vec![l(1), l(2)], distinct: false },
                vec![1, 2],
            ),
            (Expr::Wildcard, vec![]),
            (Expr::IsNull { expr: b(1), negated: false }, vec![1]),
            (Expr::InList { expr: b(1), list: vec![l(2), l(3)], negated: false }, vec![1, 2, 3]),
            (Expr::InSubquery { expr: b(1), subquery: sub(), negated: false }, vec![1]),
            (Expr::Between { expr: b(1), low: b(2), high: b(3), negated: true }, vec![1, 2, 3]),
            (Expr::Like { expr: b(1), pattern: b(2), negated: false }, vec![1, 2]),
            (Expr::Subquery(sub()), vec![]),
            (Expr::Exists(sub()), vec![]),
            (
                Expr::Case {
                    operand: Some(b(1)),
                    branches: vec![(l(2), l(3)), (l(4), l(5))],
                    else_arm: Some(b(6)),
                },
                vec![1, 2, 3, 4, 5, 6],
            ),
            (
                Expr::Case { operand: None, branches: vec![(l(1), l(2))], else_arm: None },
                vec![1, 2],
            ),
            (Expr::Placeholder(":p".into()), vec![]),
            (Expr::Variable("@v".into()), vec![]),
        ];
        let variants: std::collections::HashSet<_> =
            cases.iter().map(|(e, _)| std::mem::discriminant(e)).collect();
        assert_eq!(variants.len(), 16, "every variant has a case");
        for (mut e, want) in cases {
            let want: Vec<Expr> = want.into_iter().map(l).collect();
            assert_eq!(e.children().cloned().collect::<Vec<_>>(), want, "{e:?}");
            assert_eq!(e.children_mut().map(|c| c.clone()).collect::<Vec<_>>(), want, "{e:?}");
            e.children_mut().for_each(|c| *c = l(7));
            assert!(e.children().all(|c| *c == l(7)), "{e:?}");
        }
    }

    #[test]
    fn any_does_not_enter_subqueries() {
        let has_99 = |e: &Expr| *e == Expr::lit(99i64);
        let sub = crate::parse("SELECT 1 IN (SELECT 99) FROM t").unwrap();
        let Statement::Select(s) = sub else { panic!("a SELECT") };
        let Projection::Expr { expr, .. } = &s.projections[0] else { panic!("an expression") };
        assert!(!expr.any(&has_99));
        assert!(Expr::Unary { op: UnaryOp::Not, expr: Box::new(Expr::lit(99i64)) }.any(&has_99));
    }

    #[test]
    fn exprs_mut_lists_every_clause_and_union_arm() {
        let mut stmt = crate::parse(
            "SELECT 1, t.* FROM t JOIN u ON 2 WHERE 3 GROUP BY 4 HAVING 5 ORDER BY 6 \
             LIMIT 7, 8 UNION SELECT 9 FROM v WHERE (SELECT 10)",
        )
        .unwrap();
        let got: Vec<String> = stmt.exprs_mut().iter().map(|e| format!("{e:?}")).collect();
        let want: Vec<String> = (1..=9i64).map(|i| format!("{:?}", Expr::lit(i))).collect();
        assert_eq!(&got[..9], &want[..]);
        assert_eq!(got.len(), 10, "the scalar subquery is listed, not entered");
        let mut update = crate::parse("UPDATE t SET a = 1, b = 2 WHERE 3 LIMIT 4").unwrap();
        assert_eq!(update.exprs_mut().len(), 4);
    }

    #[test]
    fn expr_constructors() {
        assert_eq!(Expr::lit(5i64), Expr::Literal(Value::Int(5)));
        assert_eq!(Expr::col("x"), Expr::Column(ColumnRef { table: None, name: "x".into() }));
    }
}
