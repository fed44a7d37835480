//! Projected cells: the stored `(table, column)` cells each output column
//! of a `SELECT` draws its values from.
//!
//! The second-order defense treats values fetched from attacker-reachable
//! ("dirty") cells as taint sources. Two passes must therefore agree on
//! which cells a `SELECT` returns: the database engine (`joza-db`), which
//! attributes every result column of each `SELECT` it runs, and the static
//! store/load pass (`joza-sast`), which reads the `SELECT`s its query
//! templates render to as loads. Both call [`projected_cells`]; they differ
//! only in the [`Schema`] they pass. The engine knows its tables' columns;
//! the static pass runs before any database exists and passes
//! [`UnknownSchema`].
//!
//! The rule, per output column:
//!
//! * A column reference resolves through the scopes of the enclosing
//!   `SELECT` bodies, innermost first — the engine evaluates a correlated
//!   subquery the same way. `q.c` is column `c` of the table aliased (or
//!   named) `q` in the nearest scope that has one; a qualifier in no scope
//!   is taken as a table name. An unqualified `c` belongs to every table of
//!   the nearest scope whose schema lists `c`. A table whose columns are
//!   unknown may hold `c` too, so it is taken as well and the search goes
//!   on outward: without a schema, `c` belongs to every table of every
//!   enclosing scope.
//! * `*` and `q.*` expand to one output column per column of the table, or
//!   to the single cell `(table, "*")` when its columns are unknown. `q.*`
//!   with `q` in no scope projects nothing, as in the engine.
//! * A computed projection carries every cell it references. A scalar
//!   subquery (and `EXISTS`) carries the cells its own projections carry;
//!   `x IN (SELECT …)` carries only `x`'s.
//! * `UNION` arms merge positionally.
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
}

/// A schema that knows no table's columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnknownSchema;

impl Schema for UnknownSchema {
    fn columns(&self, _table: &str) -> Option<&[String]> {
        None
    }
}

/// The cells each output column of `sel` (its `UNION` arms included)
/// draws from, under `schema`. See the [module docs](self) for the rule.
pub fn projected_cells(sel: &SelectStatement, schema: &impl Schema) -> Vec<Vec<Cell>> {
    Resolver { schema, scopes: Vec::new() }.select(sel)
}

struct Resolver<'s, S> {
    schema: &'s S,
    /// `(alias-or-name, table)` pairs of each enclosing `SELECT` body,
    /// outermost first; within a body, `FROM` first, then the `JOIN`s.
    scopes: Vec<Vec<(String, String)>>,
}

impl<S: Schema> Resolver<'_, S> {
    fn select(&mut self, sel: &SelectStatement) -> Vec<Vec<Cell>> {
        let mut cols = self.body(sel);
        for (_, arm) in &sel.set_ops {
            for (i, arm_col) in self.select(arm).into_iter().enumerate() {
                match cols.get_mut(i) {
                    Some(col) => arm_col.into_iter().for_each(|cell| push_unique(col, cell)),
                    None => cols.push(arm_col),
                }
            }
        }
        cols
    }

    fn body(&mut self, sel: &SelectStatement) -> Vec<Vec<Cell>> {
        let tables = sel.from.iter().chain(sel.joins.iter().map(|j| &j.table));
        self.scopes.push(
            tables
                .map(|t| {
                    let name = t.name.to_ascii_lowercase();
                    (t.alias.as_deref().map_or_else(|| name.clone(), str::to_ascii_lowercase), name)
                })
                .collect(),
        );
        let mut cols = Vec::new();
        for p in &sel.projections {
            match p {
                Projection::Wildcard => {
                    for (_, table) in self.scopes.last().into_iter().flatten() {
                        self.expand(table, &mut cols);
                    }
                }
                Projection::QualifiedWildcard(q) => {
                    if let Some(table) = self.table_of(&q.to_ascii_lowercase()) {
                        self.expand(table, &mut cols);
                    }
                }
                Projection::Expr { expr, .. } => {
                    let mut col = Vec::new();
                    self.expr(expr, &mut col);
                    cols.push(col);
                }
            }
        }
        self.scopes.pop();
        cols
    }

    /// One output column per column of `table`.
    fn expand(&self, table: &str, cols: &mut Vec<Vec<Cell>>) {
        match self.schema.columns(table) {
            Some(columns) => cols
                .extend(columns.iter().map(|c| vec![(table.to_string(), c.to_ascii_lowercase())])),
            None => cols.push(vec![(table.to_string(), ANY.to_string())]),
        }
    }

    /// The table aliased (or named) `qualifier` in the nearest scope.
    fn table_of(&self, qualifier: &str) -> Option<&str> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.iter().find(|(alias, _)| alias == qualifier))
            .map(|(_, table)| table.as_str())
    }

    fn expr(&mut self, e: &Expr, col: &mut Vec<Cell>) {
        match e {
            Expr::Column(c) => self.column(c.table.as_deref(), &c.name, col),
            Expr::Subquery(sub) | Expr::Exists(sub) => {
                self.select(sub).into_iter().flatten().for_each(|cell| push_unique(col, cell))
            }
            _ => e.children().for_each(|child| self.expr(child, col)),
        }
    }

    fn column(&self, qualifier: Option<&str>, name: &str, col: &mut Vec<Cell>) {
        let name = name.to_ascii_lowercase();
        if let Some(q) = qualifier {
            let q = q.to_ascii_lowercase();
            let table = self.table_of(&q).map_or_else(|| q.clone(), str::to_string);
            push_unique(col, (table, name));
            return;
        }
        for scope in self.scopes.iter().rev() {
            let mut listed = false;
            for (_, table) in scope {
                // A table whose columns are unknown may hold `name`.
                let known = self.schema.columns(table);
                if known.is_none_or(|columns| columns.iter().any(|c| c.eq_ignore_ascii_case(&name)))
                {
                    listed |= known.is_some();
                    push_unique(col, (table.clone(), name.clone()));
                }
            }
            if listed {
                return;
            }
        }
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
}
