//! Result-column provenance: which `(table, column)` cells feed each
//! output column of a `SELECT`.
//!
//! The second-order defense needs to know, per fetched value, which
//! stored cells it may have come from: the gate treats values originating
//! in *dirty* cells (cells the static store/load pass marked
//! attacker-reachable) as taint sources for the current request. Every
//! `SELECT`'s [`QueryResult::origins`](crate::QueryResult::origins) is
//! the cells of [`output_columns`](joza_sqlparse::cells::output_columns)
//! under the database's own schema — the rule the static pass applies
//! without one, so the runtime capture and the static dirty set name the
//! same cells.
//! Origins are computed from the statement and the schema, per column and
//! not per row, so their cost does not grow with the result.
//!
//! With a schema, an unqualified column belongs to the tables of the
//! nearest enclosing scope that have it, a correlated reference (`p.title`
//! inside a subquery, `p` bound by the outer `FROM`) to the outer table,
//! and `*` expands to the table's columns. The database knows every
//! table, so a name it does not have fails the query before a row is
//! read.

use crate::engine::Database;
use crate::table::Table;
use joza_sqlparse::cells::Schema;

impl Schema for Database {
    fn columns(&self, table: &str) -> Option<&[String]> {
        self.tables.get(table).map(Table::columns)
    }

    fn knows_every_table(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_sqlparse::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("profiles", &["id", "bio", "sig"]);
        db.insert_row("profiles", vec![Value::Int(1), "hello".into(), "s".into()]);
        db.create_table("posts", &["id", "title"]);
        db.insert_row("posts", vec![Value::Int(1), "t".into()]);
        db
    }

    #[test]
    fn direct_and_wildcard_projections() {
        let mut d = db();
        let r = d.execute("SELECT bio FROM profiles").unwrap();
        assert_eq!(r.origins, vec![vec![("profiles".to_string(), "bio".to_string())]]);

        let r = d.execute("SELECT * FROM profiles").unwrap();
        assert_eq!(r.origins.len(), 3);
        assert_eq!(r.origins[1], vec![("profiles".to_string(), "bio".to_string())]);
    }

    #[test]
    fn computed_projection_carries_all_referenced_columns() {
        let mut d = db();
        let r = d.execute("SELECT CONCAT(bio, sig) FROM profiles").unwrap();
        assert_eq!(r.origins.len(), 1);
        assert!(r.origins[0].contains(&("profiles".to_string(), "bio".to_string())));
        assert!(r.origins[0].contains(&("profiles".to_string(), "sig".to_string())));
    }

    #[test]
    fn union_merges_positionally() {
        let mut d = db();
        let r = d.execute("SELECT bio FROM profiles UNION SELECT title FROM posts").unwrap();
        assert_eq!(r.origins.len(), 1);
        assert!(r.origins[0].contains(&("profiles".to_string(), "bio".to_string())));
        assert!(r.origins[0].contains(&("posts".to_string(), "title".to_string())));
    }

    #[test]
    fn correlated_reference_resolves_to_the_outer_table() {
        let mut d = db();
        d.create_table("users", &["id", "name"]);
        d.insert_row("users", vec![Value::Int(1), "u".into()]);
        let title = vec![vec![("posts".to_string(), "title".to_string())]];
        let r =
            d.execute("SELECT (SELECT p.title FROM users u LIMIT 1) AS t FROM posts p").unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("t")]]);
        assert_eq!(r.origins, title);
        // Unqualified: `users` has no `title`, so the outer scope's does.
        let r = d.execute("SELECT (SELECT title FROM users LIMIT 1) AS t FROM posts").unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("t")]]);
        assert_eq!(r.origins, title);
        // The innermost scope that has the column wins.
        let r = d.execute("SELECT (SELECT id FROM users LIMIT 1) FROM posts").unwrap();
        assert_eq!(r.origins, vec![vec![("users".to_string(), "id".to_string())]]);
    }

    #[test]
    fn writes_have_no_origins() {
        let mut d = db();
        let r = d.execute("INSERT INTO posts (id, title) VALUES (2, 'x')").unwrap();
        assert!(r.origins.is_empty());
    }
}
