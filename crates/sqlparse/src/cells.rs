//! Output columns: the one list of what a `SELECT` returns — per column
//! its name and the stored `(table, column)` cells its values come from —
//! and the name checks MySQL makes before it reads a row.
//!
//! The second-order defense treats values fetched from attacker-reachable
//! ("dirty") cells as taint sources. Two passes must therefore agree on
//! which cells a `SELECT` returns: the database engine (`joza-db`), which
//! attributes every result column of each `SELECT` it runs, and the static
//! store/load pass (`joza-sast`), which reads the `SELECT`s its query
//! templates render to as loads. Both walk [`output_columns`]; they differ
//! only in the [`Schema`] they pass. The engine knows every table; the
//! static pass runs before any database exists and passes
//! [`UnknownSchema`]. The engine also takes its result names, its `UNION`
//! widths and the names of an empty result from this list.
//!
//! The rule, per output column:
//!
//! * A column reference resolves through the scopes of the enclosing
//!   `SELECT` bodies, innermost first — the engine evaluates a correlated
//!   subquery the same way. `q.c` is column `c` of the first table aliased
//!   (or named) `q` that may hold `c`, in the nearest scope that has one; a
//!   table whose columns are unknown may hold any column. Failing that, it
//!   is `c` of the nearest table aliased `q`, and a qualifier in no scope is
//!   taken as a table name. An unqualified `c` belongs to every table of
//!   the nearest scope whose schema lists `c`. A table whose columns are
//!   unknown may hold `c` too, so it is taken as well and the search goes
//!   on outward: without a schema, `c` belongs to every table of every
//!   enclosing scope.
//! * `*` expands to one output column per column of each table of the
//!   `SELECT`'s own `FROM` and `JOIN`s, in that order — the order of a
//!   row's values in the engine. `q.*` does the same for every table
//!   aliased `q` in the nearest scope that has one. A table whose columns
//!   are unknown gives the single cell `(table, "*")`, and `q.*` with `q`
//!   in no scope projects nothing.
//! * A computed projection carries every cell it references. A scalar
//!   subquery (and `EXISTS`) carries the cells its own projections carry;
//!   `x IN (SELECT …)` carries only `x`'s.
//! * `UNION` arms merge positionally; the first arm names the columns.
//!
//! Under a schema that [knows every table](Schema::knows_every_table) the
//! walk is also MySQL's name check, and accepts exactly the names the
//! engine resolves on a row. A table it does not have fails with
//! [`NameError::UnknownTable`], and so does `q.*` when no table of the
//! `SELECT`'s own `FROM` and `JOIN`s is aliased `q` — `q` unknown, or bound
//! only by an enclosing query. A column reference that resolves nowhere
//! fails with [`NameError::UnknownColumn`]: in the select list, `JOIN … ON`
//! (against the tables joined so far), `WHERE`, `GROUP BY`, `HAVING` and
//! `ORDER BY`, and in every subquery, `IN (SELECT …)` included. `UNION` arms
//! of different widths fail with [`NameError::UnionColumnMismatch`].
//! `LIMIT` is not checked: the engine evaluates it without a row. Without
//! such a schema nothing fails and only the select lists are walked.
//!
//! Cells come back lowercased, each column's in first-reference order
//! without repeats. Attribution is inclusive: an extra cell only makes the
//! gate capture an extra input, never miss one.

use crate::ast::{Expr, Projection, SelectStatement};

/// A storage location: `(table, column)`, lowercased. [`ANY`] as the
/// column stands for every column of the table.
pub type Cell = (String, String);

/// The wildcard column.
pub const ANY: &str = "*";

/// What a resolver knows about the tables a query names.
pub trait Schema {
    /// The columns of `table` (a lowercased name), or `None` when this
    /// schema cannot tell.
    fn columns(&self, table: &str) -> Option<&[String]>;

    /// Whether this schema knows every table: a table it has no columns
    /// for does not exist, and a name that resolves nowhere is an error.
    fn knows_every_table(&self) -> bool {
        false
    }
}

/// A schema that knows no table's columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnknownSchema;

impl Schema for UnknownSchema {
    fn columns(&self, _table: &str) -> Option<&[String]> {
        None
    }
}

/// One output column of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputColumn {
    /// The result name, from the first `UNION` arm: the alias; else the
    /// column's lowercased name for `*` and `q.*`; else the referenced
    /// column's name, `NAME()` for a call, the literal, or `expr`.
    pub name: String,
    /// The cells the column draws from, over every `UNION` arm.
    pub cells: Vec<Cell>,
}

/// A name the schema does not have (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A table in `FROM` or `JOIN`, or the `q` of `q.*`, as written.
    UnknownTable(String),
    /// A column reference, as written (`q.c` or `c`).
    UnknownColumn(String),
    /// `UNION` arms with differing column counts.
    UnionColumnMismatch {
        /// Column count of the first arm.
        left: usize,
        /// Column count of the offending arm.
        right: usize,
    },
}

/// The output columns of `sel` under `schema`, its `UNION` arms merged.
/// See the [module docs](self) for the rule.
///
/// # Errors
///
/// Only under a schema that [knows every
/// table](Schema::knows_every_table): the first name it does not have,
/// or `UNION` arms of different widths.
pub fn output_columns(
    sel: &SelectStatement,
    schema: &impl Schema,
) -> Result<Vec<OutputColumn>, NameError> {
    Resolver::new(schema).select(sel)
}

/// The cells each output column of `sel` draws from: the cells of
/// [`output_columns`]. A statement that fails its name checks has none.
pub fn projected_cells(sel: &SelectStatement, schema: &impl Schema) -> Vec<Vec<Cell>> {
    output_columns(sel, schema)
        .map_or_else(|_| Vec::new(), |cols| cols.into_iter().map(|c| c.cells).collect())
}

/// Checks the names of expressions the engine evaluates against one row
/// of `table`, or against no row: the assignments and `WHERE` of an
/// `UPDATE` or a `DELETE`, the values of an `INSERT`. Their subqueries
/// are checked as in [`output_columns`].
///
/// # Errors
///
/// As [`output_columns`].
pub fn check_names<'e>(
    table: Option<&str>,
    exprs: impl IntoIterator<Item = &'e Expr>,
    schema: &impl Schema,
) -> Result<(), NameError> {
    let mut resolver = Resolver::new(schema);
    let scope = table.map(|t| resolver.table_entry(t, None)).transpose()?;
    resolver.scopes.push(scope.into_iter().collect());
    exprs.into_iter().try_for_each(|e| resolver.expr(e, &mut Vec::new()))
}

struct Resolver<'s, S> {
    schema: &'s S,
    /// Whether names are checked: the schema knows every table.
    strict: bool,
    /// `(alias-or-name, table)` pairs of each enclosing `SELECT` body,
    /// outermost first; within a body, `FROM` first, then the `JOIN`s.
    scopes: Vec<Vec<(String, String)>>,
}

impl<'s, S: Schema> Resolver<'s, S> {
    fn new(schema: &'s S) -> Self {
        Resolver { schema, strict: schema.knows_every_table(), scopes: Vec::new() }
    }

    fn select(&mut self, sel: &SelectStatement) -> Result<Vec<OutputColumn>, NameError> {
        let mut cols = self.body(sel)?;
        for (_, arm) in &sel.set_ops {
            let arm_cols = self.body(arm)?;
            if self.strict && arm_cols.len() != cols.len() {
                let (left, right) = (cols.len(), arm_cols.len());
                return Err(NameError::UnionColumnMismatch { left, right });
            }
            for (i, arm_col) in arm_cols.into_iter().enumerate() {
                match cols.get_mut(i) {
                    Some(col) => {
                        arm_col.cells.into_iter().for_each(|c| push_unique(&mut col.cells, c))
                    }
                    None => cols.push(arm_col),
                }
            }
        }
        Ok(cols)
    }

    /// `(alias-or-name, table)` for a table of a `FROM` or `JOIN`.
    fn table_entry(&self, name: &str, alias: Option<&str>) -> Result<(String, String), NameError> {
        let table = name.to_ascii_lowercase();
        if self.strict && self.schema.columns(&table).is_none() {
            return Err(NameError::UnknownTable(name.to_string()));
        }
        Ok((alias.map_or_else(|| table.clone(), str::to_ascii_lowercase), table))
    }

    fn body(&mut self, sel: &SelectStatement) -> Result<Vec<OutputColumn>, NameError> {
        let tables = sel.from.iter().chain(sel.joins.iter().map(|j| &j.table));
        let entries = tables
            .map(|t| self.table_entry(&t.name, t.alias.as_deref()))
            .collect::<Result<Vec<_>, _>>()?;
        // Each `ON` sees the tables joined so far, as in the engine.
        let mut entries = entries.into_iter();
        self.scopes.push(entries.next().into_iter().collect());
        for (join, entry) in sel.joins.iter().zip(entries) {
            self.scopes.last_mut().expect("pushed above").push(entry);
            if let Some(on) = join.on.as_ref().filter(|_| self.strict) {
                self.expr(on, &mut Vec::new())?;
            }
        }
        let mut cols = Vec::new();
        for p in &sel.projections {
            match p {
                Projection::Wildcard => {
                    let own = self.scopes.len() - 1;
                    self.expand(own, |_| true, &mut cols);
                }
                Projection::QualifiedWildcard(q) => {
                    let ql = q.to_ascii_lowercase();
                    let depth = self.scopes.iter().rposition(|s| s.iter().any(|(a, _)| *a == ql));
                    match depth {
                        Some(d) if !self.strict || d + 1 == self.scopes.len() => {
                            self.expand(d, |alias| alias == ql, &mut cols)
                        }
                        _ if self.strict => return Err(NameError::UnknownTable(q.clone())),
                        _ => {}
                    }
                }
                Projection::Expr { expr, alias } => {
                    let mut cells = Vec::new();
                    self.expr(expr, &mut cells)?;
                    let name = alias.clone().unwrap_or_else(|| expr_name(expr));
                    cols.push(OutputColumn { name, cells });
                }
            }
        }
        if self.strict {
            let clauses = sel.where_clause.iter().chain(&sel.group_by).chain(&sel.having);
            for e in clauses.chain(sel.order_by.iter().map(|o| &o.expr)) {
                self.expr(e, &mut Vec::new())?;
            }
        }
        self.scopes.pop();
        Ok(cols)
    }

    /// One output column per column of each table of scope `depth` whose
    /// alias passes `pick`.
    fn expand(&self, depth: usize, pick: impl Fn(&str) -> bool, cols: &mut Vec<OutputColumn>) {
        for (_, table) in self.scopes[depth].iter().filter(|(alias, _)| pick(alias)) {
            match self.schema.columns(table) {
                Some(columns) => cols.extend(columns.iter().map(|c| {
                    let name = c.to_ascii_lowercase();
                    OutputColumn { cells: vec![(table.clone(), name.clone())], name }
                })),
                None => cols.push(OutputColumn {
                    name: ANY.to_string(),
                    cells: vec![(table.clone(), ANY.to_string())],
                }),
            }
        }
    }

    fn expr(&mut self, e: &Expr, col: &mut Vec<Cell>) -> Result<(), NameError> {
        match e {
            Expr::Column(c) => self.column(c.table.as_deref(), &c.name, col),
            Expr::Subquery(sub) | Expr::Exists(sub) => {
                for c in self.select(sub)? {
                    c.cells.into_iter().for_each(|cell| push_unique(col, cell));
                }
                Ok(())
            }
            Expr::InSubquery { expr, subquery, .. } => {
                self.expr(expr, col)?;
                if self.strict {
                    self.select(subquery)?;
                }
                Ok(())
            }
            _ => e.children().try_for_each(|child| self.expr(child, col)),
        }
    }

    /// Whether `table` may hold column `name` (lowercased).
    fn holds(&self, table: &str, name: &str) -> bool {
        self.schema.columns(table).is_none_or(|cs| cs.iter().any(|c| c.eq_ignore_ascii_case(name)))
    }

    fn column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        col: &mut Vec<Cell>,
    ) -> Result<(), NameError> {
        let lower = name.to_ascii_lowercase();
        if let Some(q) = qualifier {
            let q_lower = q.to_ascii_lowercase();
            let mut aliased = self.scopes.iter().rev().flatten().filter(|(a, _)| *a == q_lower);
            let table = match aliased.clone().find(|(_, t)| self.holds(t, &lower)) {
                Some((_, table)) => table.clone(),
                None if self.strict => return Err(NameError::UnknownColumn(format!("{q}.{name}"))),
                None => aliased.next().map_or(q_lower, |(_, t)| t.clone()),
            };
            push_unique(col, (table, lower));
            return Ok(());
        }
        for scope in self.scopes.iter().rev() {
            let mut listed = false;
            for (_, table) in scope.iter().filter(|(_, t)| self.holds(t, &lower)) {
                listed |= self.schema.columns(table).is_some();
                push_unique(col, (table.clone(), lower.clone()));
            }
            if listed {
                return Ok(());
            }
        }
        if self.strict {
            return Err(NameError::UnknownColumn(name.to_string()));
        }
        Ok(())
    }
}

/// The result name of a computed projection without an alias.
fn expr_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.name.clone(),
        Expr::Function { name, .. } => format!("{name}()"),
        Expr::Literal(v) => v.to_string(),
        _ => "expr".to_string(),
    }
}

fn push_unique(col: &mut Vec<Cell>, cell: Cell) {
    if !col.contains(&cell) {
        col.push(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;

    struct Tables(Vec<(&'static str, Vec<String>)>);

    impl Schema for Tables {
        fn columns(&self, table: &str) -> Option<&[String]> {
            self.0.iter().find(|(t, _)| *t == table).map(|(_, c)| c.as_slice())
        }
    }

    fn cells(sql: &str, schema: &impl Schema) -> Vec<Vec<String>> {
        let Ok(Statement::Select(sel)) = crate::parse(sql) else { panic!("not a SELECT: {sql}") };
        let cols = projected_cells(&sel, schema);
        cols.into_iter().map(|c| c.into_iter().map(|(t, c)| format!("{t}.{c}")).collect()).collect()
    }

    #[test]
    fn without_a_schema_every_enclosing_table_may_hold_a_column() {
        let s = &UnknownSchema;
        assert_eq!(cells("SELECT *, U.x FROM t JOIN u AS U", s), [["t.*"], ["u.*"], ["u.x"]]);
        assert_eq!(
            cells("SELECT (SELECT a FROM u), x.b, y.* FROM t", s),
            [vec!["u.a", "t.a"], vec!["x.b"]],
        );
        assert_eq!(cells("SELECT (SELECT p.a FROM u) FROM t p", s), [["t.a"]]);
        assert_eq!(cells("SELECT a FROM t UNION SELECT b FROM u", s), [["t.a", "u.b"]]);
        assert_eq!(
            cells("SELECT 1 IN (SELECT a FROM u), EXISTS (SELECT a FROM u)", s),
            [vec![], vec!["u.a"]]
        );
    }

    #[test]
    fn a_schema_picks_the_nearest_scope_that_has_the_column() {
        let s =
            &Tables(vec![("t", vec!["A".into(), "b".into()]), ("u", vec!["a".into(), "c".into()])]);
        assert_eq!(cells("SELECT * FROM t", s), [["t.a"], ["t.b"]]);
        assert_eq!(cells("SELECT a, c FROM t JOIN u", s), [vec!["t.a", "u.a"], vec!["u.c"]]);
        assert_eq!(cells("SELECT (SELECT a FROM u) FROM t", s), [["u.a"]]);
        assert_eq!(cells("SELECT (SELECT b FROM u) FROM t", s), [["t.b"]]);
        assert_eq!(cells("SELECT (SELECT z FROM u) FROM t", s), [[""; 0]]);
    }

    /// A schema that knows every table.
    struct Every(Tables);

    impl Schema for Every {
        fn columns(&self, table: &str) -> Option<&[String]> {
            self.0.columns(table)
        }

        fn knows_every_table(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_complete_schema_checks_names_as_the_engine_resolves_them() {
        let s = &Every(Tables(vec![("t", vec!["a".into()]), ("u", vec!["b".into()])]));
        let check = |sql: &str| {
            let Ok(Statement::Select(sel)) = crate::parse(sql) else { panic!("not a SELECT") };
            output_columns(&sel, s).map(|cols| cols.into_iter().map(|c| c.name).collect::<Vec<_>>())
        };
        assert_eq!(
            check("SELECT *, a AS x FROM t JOIN u"),
            Ok(vec!["a".into(), "b".into(), "x".into()])
        );
        assert_eq!(check("SELECT (SELECT p.a FROM u) FROM t p"), Ok(vec!["expr".into()]));
        let unknown_table = |t: &str| Err(NameError::UnknownTable(t.into()));
        let unknown_column = |c: &str| Err(NameError::UnknownColumn(c.into()));
        assert_eq!(check("SELECT a FROM v"), unknown_table("v"));
        // `p.*` names a table of the enclosing query only.
        assert_eq!(check("SELECT (SELECT p.* FROM u) FROM t p"), unknown_table("p"));
        // `ON` sees the tables joined so far.
        assert_eq!(check("SELECT a FROM t JOIN u ON u.b = w.a JOIN t w"), unknown_column("w.a"));
        assert_eq!(check("SELECT a FROM t WHERE 1 IN (SELECT c FROM u)"), unknown_column("c"));
        assert_eq!(check("SELECT a FROM t ORDER BY t.b"), unknown_column("t.b"));
        let mismatch = Err(NameError::UnionColumnMismatch { left: 1, right: 2 });
        assert_eq!(check("SELECT a FROM t UNION SELECT * FROM t JOIN u"), mismatch);
    }
}
