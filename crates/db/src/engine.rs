//! The database engine facade.

use crate::table::Table;
use joza_sqlparse::cells::{self, NameError};
use joza_sqlparse::{parse, ParseError, Statement, Value};
use std::collections::HashMap;
use std::fmt;

/// An error from query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The query failed to parse.
    Parse(ParseError),
    /// Unknown table.
    UnknownTable(String),
    /// Unknown column.
    UnknownColumn(String),
    /// `UNION` arms with differing column counts.
    UnionColumnMismatch {
        /// Column count of the first arm.
        left: usize,
        /// Column count of the offending arm.
        right: usize,
    },
    /// An XPATH error raised by `EXTRACTVALUE`/`UPDATEXML` — the channel
    /// error-based injections exfiltrate through. The message embeds the
    /// evaluated argument, exactly like MySQL's `XPATH syntax error`.
    Xpath(String),
    /// Anything else (unsupported construct, bad function arity, …).
    Other(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "SQL syntax error: {e}"),
            DbError::UnknownTable(t) => write!(f, "table '{t}' doesn't exist"),
            DbError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            DbError::UnionColumnMismatch { left, right } => write!(
                f,
                "the used SELECT statements have a different number of columns ({left} vs {right})"
            ),
            DbError::Xpath(s) => write!(f, "XPATH syntax error: '{s}'"),
            DbError::Other(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<NameError> for DbError {
    fn from(e: NameError) -> Self {
        match e {
            NameError::UnknownTable(t) => DbError::UnknownTable(t),
            NameError::UnknownColumn(c) => DbError::UnknownColumn(c),
            NameError::UnionColumnMismatch { left, right } => {
                DbError::UnionColumnMismatch { left, right }
            }
        }
    }
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for writes).
    pub columns: Vec<String>,
    /// Result rows (empty for writes).
    pub rows: Vec<Vec<Value>>,
    /// Rows affected by a write.
    pub affected: usize,
    /// Virtual time the query consumed, in milliseconds. Includes
    /// `SLEEP`/`BENCHMARK` charges — the double-blind signal.
    pub elapsed_ms: u64,
    /// Per-output-column provenance: the `(table, column)` cells each
    /// result column may draw values from (empty for writes). The
    /// second-order gate uses this to recognise values fetched from
    /// dirty cells and re-introduce them as taint sources.
    pub origins: Vec<Vec<(String, String)>>,
}

/// Side effects accumulated while evaluating expressions.
#[derive(Debug, Default)]
pub(crate) struct SideEffects {
    /// Milliseconds charged by SLEEP/BENCHMARK.
    pub sleep_ms: u64,
    /// Deterministic RAND() state.
    pub rand_state: u64,
}

/// An in-memory database: named tables plus a virtual clock.
#[derive(Debug, Default)]
pub struct Database {
    pub(crate) tables: HashMap<String, Table>,
    clock_ms: u64,
    queries_executed: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates (or replaces) a table.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) {
        self.tables.insert(name.to_ascii_lowercase(), Table::new(name, columns));
    }

    /// Appends a row to a table, padding to the schema.
    ///
    /// # Panics
    ///
    /// Panics if the table does not exist — table setup is harness code,
    /// not attacker-reachable.
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) {
        self.tables
            .get_mut(&table.to_ascii_lowercase())
            .unwrap_or_else(|| panic!("no such table {table}"))
            .push_row(row);
    }

    /// Looks up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Iterates all tables in name order — a deterministic dump order, so
    /// two databases can be compared state-for-state (the hardening
    /// pass's differential verification diffs entire databases after
    /// original-vs-rewritten request runs).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        names.into_iter().map(move |n| &self.tables[n])
    }

    /// Total virtual time consumed by all queries, in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Number of statements executed so far.
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed
    }

    /// Parses and executes one SQL statement.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on parse failure or execution error; the error
    /// *message* is part of the observable behaviour (error-based
    /// injection).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        // Stacked queries: a quote/comment-aware scan for a top-level
        // `;` splits the text into statements executed in order
        // (MySQL multi-statement semantics: stop at the first error,
        // earlier effects persist). Queries without a top-level `;`
        // take the original single-statement path bit-identically.
        if let Some(stmts) = split_stacked(sql) {
            let mut total_elapsed = 0;
            let mut last = None;
            for s in &stmts {
                let r = self.execute_single(s)?;
                total_elapsed += r.elapsed_ms;
                last = Some(r);
            }
            let mut result = last.expect("split_stacked yields at least one statement");
            result.elapsed_ms = total_elapsed;
            return Ok(result);
        }
        self.execute_single(sql)
    }

    fn execute_single(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        let stmt = parse(sql)?;
        self.execute_parsed(&stmt)
    }

    /// Executes an already-parsed statement (the prepared-statement path
    /// after binding; see [`Database::execute_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on execution error.
    pub fn execute_parsed(&mut self, stmt: &Statement) -> Result<QueryResult, DbError> {
        self.queries_executed += 1;
        let mut side = SideEffects { sleep_ms: 0, rand_state: self.queries_executed };
        let result = match stmt {
            Statement::Select(sel) => {
                let output = cells::output_columns(sel, self)?;
                let rows = crate::exec::run_select(self, sel, &mut side)?;
                debug_assert!(rows.iter().all(|row| row.len() == output.len()));
                let (columns, origins) = output.into_iter().map(|c| (c.name, c.cells)).unzip();
                QueryResult { columns, rows, affected: 0, elapsed_ms: 0, origins }
            }
            Statement::Insert(ins) => {
                cells::check_names(None, ins.rows.iter().flatten(), self)?;
                let affected = crate::exec::run_insert(self, ins, &mut side)?;
                QueryResult {
                    columns: vec![],
                    rows: vec![],
                    affected,
                    elapsed_ms: 0,
                    origins: vec![],
                }
            }
            Statement::Update(upd) => {
                let assigned = upd.assignments.iter().map(|(_, e)| e);
                let exprs = upd.where_clause.iter().chain(assigned);
                cells::check_names(Some(&upd.table), exprs, self)?;
                let affected = crate::exec::run_update(self, upd, &mut side)?;
                QueryResult {
                    columns: vec![],
                    rows: vec![],
                    affected,
                    elapsed_ms: 0,
                    origins: vec![],
                }
            }
            Statement::Delete(del) => {
                cells::check_names(Some(&del.table), &del.where_clause, self)?;
                let affected = crate::exec::run_delete(self, del, &mut side)?;
                QueryResult {
                    columns: vec![],
                    rows: vec![],
                    affected,
                    elapsed_ms: 0,
                    origins: vec![],
                }
            }
        };
        // Virtual cost model: 1ms base cost per query + SLEEP charges.
        let elapsed = 1 + side.sleep_ms;
        self.clock_ms += elapsed;
        Ok(QueryResult { elapsed_ms: elapsed, ..result })
    }
}

/// Splits `sql` at top-level `;` separators, skipping string literals
/// (`'…'`, `"…"`, `` `…` `` with backslash and doubled-quote escapes),
/// line comments (`-- `, `#`) and block comments.
///
/// Returns `None` when there is no top-level `;` — the caller must then
/// use the original single-statement path — or when every segment is
/// blank. Comment-only trailing segments (the classic `; DROP …-- -`
/// suffix leaves one) are dropped rather than executed.
fn split_stacked(sql: &str) -> Option<Vec<String>> {
    let b = sql.as_bytes();
    let mut parts: Vec<&str> = Vec::new();
    let mut start = 0;
    let mut i = 0;
    let mut saw_semicolon = false;
    while i < b.len() {
        match b[i] {
            q @ (b'\'' | b'"' | b'`') => {
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == q {
                        if i + 1 < b.len() && b[i + 1] == q {
                            i += 2; // doubled quote stays inside the literal
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'-' if i + 1 < b.len()
                && b[i + 1] == b'-'
                && (i + 2 >= b.len() || b[i + 2].is_ascii_whitespace()) =>
            {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(b.len());
            }
            b';' => {
                saw_semicolon = true;
                parts.push(&sql[start..i]);
                start = i + 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    if !saw_semicolon {
        return None;
    }
    parts.push(&sql[start..]);
    let stmts: Vec<String> = parts
        .into_iter()
        .map(str::trim)
        .filter(|s| segment_has_content(s))
        .map(String::from)
        .collect();
    if stmts.is_empty() {
        None
    } else {
        Some(stmts)
    }
}

/// True when the segment contains anything besides whitespace/comments.
fn segment_has_content(seg: &str) -> bool {
    let b = seg.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            c if c.is_ascii_whitespace() => i += 1,
            b'-' if i + 1 < b.len()
                && b[i + 1] == b'-'
                && (i + 2 >= b.len() || b[i + 2].is_ascii_whitespace()) =>
            {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(b.len());
            }
            _ => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table("users", &["id", "user_login", "user_pass"]);
        db.insert_row("users", vec![Value::Int(1), "admin".into(), "p4ss".into()]);
        db.insert_row("users", vec![Value::Int(2), "bob".into(), "hunter2".into()]);
        db.create_table("posts", &["id", "title", "author_id", "status"]);
        db.insert_row(
            "posts",
            vec![Value::Int(10), "Hello".into(), Value::Int(1), "publish".into()],
        );
        db.insert_row("posts", vec![Value::Int(11), "Draft".into(), Value::Int(2), "draft".into()]);
        db.insert_row(
            "posts",
            vec![Value::Int(12), "World".into(), Value::Int(1), "publish".into()],
        );
        db
    }

    #[test]
    fn select_where() {
        let mut db = sample_db();
        let r = db.execute("SELECT title FROM posts WHERE status = 'publish'").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn select_star_column_order() {
        let mut db = sample_db();
        let r = db.execute("SELECT * FROM users WHERE id = 2").unwrap();
        assert_eq!(r.columns, ["id", "user_login", "user_pass"]);
        assert_eq!(r.rows[0][1], Value::Str("bob".into()));
    }

    #[test]
    fn tautology_returns_everything() {
        let mut db = sample_db();
        let benign = db.execute("SELECT * FROM users WHERE id = 999").unwrap();
        assert!(benign.rows.is_empty());
        let attacked = db.execute("SELECT * FROM users WHERE id = 999 OR 1=1").unwrap();
        assert_eq!(attacked.rows.len(), 2);
    }

    #[test]
    fn union_leaks_other_table() {
        let mut db = sample_db();
        let r = db
            .execute("SELECT title FROM posts WHERE id = -1 UNION SELECT user_pass FROM users")
            .unwrap();
        let leaked: Vec<String> = r.rows.iter().map(|row| row[0].as_str()).collect();
        assert!(leaked.contains(&"p4ss".to_string()));
        assert!(leaked.contains(&"hunter2".to_string()));
    }

    #[test]
    fn union_column_mismatch_errors() {
        let mut db = sample_db();
        let err = db.execute("SELECT id, title FROM posts UNION SELECT id FROM users").unwrap_err();
        assert!(matches!(err, DbError::UnionColumnMismatch { left: 2, right: 1 }));
    }

    #[test]
    fn sleep_charges_virtual_time() {
        let mut db = sample_db();
        let r = db.execute("SELECT * FROM users WHERE id=1 AND SLEEP(2)").unwrap();
        assert!(r.elapsed_ms >= 2000);
        // And the WHERE is false overall (SLEEP returns 0).
        assert!(r.rows.is_empty());
        assert!(db.clock_ms() >= 2000);
    }

    #[test]
    fn conditional_sleep_is_the_double_blind_signal() {
        let mut db = sample_db();
        let truthy = db
            .execute("SELECT IF(SUBSTRING(user_pass,1,1)='p', SLEEP(1), 0) FROM users WHERE id=1")
            .unwrap();
        assert!(truthy.elapsed_ms >= 1000);
        let falsy = db
            .execute("SELECT IF(SUBSTRING(user_pass,1,1)='z', SLEEP(1), 0) FROM users WHERE id=1")
            .unwrap();
        assert!(falsy.elapsed_ms < 1000);
    }

    #[test]
    fn insert_update_delete() {
        let mut db = sample_db();
        let r = db
            .execute("INSERT INTO users (id, user_login, user_pass) VALUES (3, 'carol', 'x')")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = db.execute("UPDATE users SET user_pass = 'y' WHERE user_login = 'carol'").unwrap();
        assert_eq!(r.affected, 1);
        let r = db.execute("SELECT user_pass FROM users WHERE id = 3").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("y".into()));
        let r = db.execute("DELETE FROM users WHERE id = 3").unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(db.table("users").unwrap().len(), 2);
    }

    #[test]
    fn unknown_table_and_column() {
        let mut db = sample_db();
        assert!(matches!(db.execute("SELECT * FROM nope").unwrap_err(), DbError::UnknownTable(_)));
        assert!(matches!(
            db.execute("SELECT nope FROM users").unwrap_err(),
            DbError::UnknownColumn(_)
        ));
    }

    #[test]
    fn error_based_extraction_leaks_through_message() {
        let mut db = sample_db();
        let err = db
            .execute("SELECT EXTRACTVALUE(1, CONCAT(0x7e, (SELECT user_pass FROM users LIMIT 1)))")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("p4ss"), "error message should leak data: {msg}");
    }

    #[test]
    fn parse_error_reported() {
        let mut db = sample_db();
        assert!(matches!(db.execute("SELEC 1").unwrap_err(), DbError::Parse(_)));
    }

    #[test]
    fn order_by_and_limit() {
        let mut db = sample_db();
        let r = db.execute("SELECT id FROM posts ORDER BY id DESC LIMIT 2").unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64()).collect();
        assert_eq!(ids, [12, 11]);
        let r = db.execute("SELECT id FROM posts ORDER BY id LIMIT 1, 2").unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64()).collect();
        assert_eq!(ids, [11, 12]);
    }

    #[test]
    fn join_and_aggregate() {
        let mut db = sample_db();
        let r = db
            .execute(
                "SELECT u.user_login, COUNT(*) FROM posts p JOIN users u ON p.author_id = u.id \
                 GROUP BY u.user_login ORDER BY u.user_login",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Str("admin".into()));
        assert_eq!(r.rows[0][1].as_i64(), 2);
    }

    #[test]
    fn aggregate_tested_against_a_subquery_aggregates() {
        // `posts` has three rows: one group, one row, whichever form the
        // candidate list takes.
        let mut db = sample_db();
        for q in
            ["SELECT COUNT(*) IN (1, 3) FROM posts", "SELECT COUNT(*) IN (SELECT 3) FROM posts"]
        {
            let r = db.execute(q).unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(1)]], "{q}");
        }
    }

    #[test]
    fn replace_into_works_as_insert() {
        let mut db = sample_db();
        db.execute("REPLACE INTO users (id, user_login, user_pass) VALUES (9, 'z', 'z')").unwrap();
        assert_eq!(db.table("users").unwrap().len(), 3);
    }

    #[test]
    fn virtual_clock_accumulates() {
        let mut db = sample_db();
        let before = db.clock_ms();
        db.execute("SELECT 1").unwrap();
        db.execute("SELECT 1").unwrap();
        assert_eq!(db.clock_ms(), before + 2);
        assert_eq!(db.queries_executed(), 2);
    }

    #[test]
    fn stacked_queries_execute_in_order() {
        let mut db = sample_db();
        let r = db
            .execute("INSERT INTO users (id, user_login, user_pass) VALUES (7, 'eve', 'x'); SELECT user_login FROM users WHERE id = 7")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Str("eve".into())]]);
        assert_eq!(db.queries_executed(), 2);
        // Total elapsed covers both statements.
        assert_eq!(r.elapsed_ms, 2);
    }

    #[test]
    fn stacked_error_aborts_but_earlier_effects_persist() {
        let mut db = sample_db();
        let err =
            db.execute("DELETE FROM posts WHERE id = 10; SELECT * FROM no_such_table").unwrap_err();
        assert!(matches!(err, DbError::UnknownTable(_)));
        assert_eq!(db.table("posts").unwrap().len(), 2, "first statement already ran");
    }

    #[test]
    fn semicolons_inside_literals_and_comments_do_not_split() {
        let mut db = sample_db();
        let r = db.execute("SELECT 'a;b' FROM users WHERE id = 1 -- trailing; note").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Str("a;b".into())]]);
        assert_eq!(db.queries_executed(), 1);
    }

    #[test]
    fn comment_only_trailing_segment_is_dropped() {
        let mut db = sample_db();
        let r = db.execute("SELECT id FROM users WHERE id = 1; -- -").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(db.queries_executed(), 1);
    }

    #[test]
    fn split_stacked_is_none_without_top_level_semicolon() {
        assert_eq!(split_stacked("SELECT 1"), None);
        assert_eq!(split_stacked("SELECT ';'"), None);
        assert_eq!(split_stacked(";"), None);
        assert_eq!(
            split_stacked("SELECT 1; DROP TABLE users-- -"),
            Some(vec!["SELECT 1".to_string(), "DROP TABLE users-- -".to_string()])
        );
    }
}
