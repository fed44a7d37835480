//! Property-based tests for the in-memory MySQL-subset engine.

use joza_db::{Database, DbError, Value};
use proptest::prelude::*;

fn db_with(rows: &[(i64, &str)]) -> Database {
    let mut db = Database::new();
    db.create_table("t", &["id", "name"]);
    for (id, name) in rows {
        db.insert_row("t", vec![Value::Int(*id), (*name).into()]);
    }
    db
}

proptest! {
    /// The engine is total over arbitrary SQL text: parse errors are
    /// errors, never panics.
    #[test]
    fn execute_never_panics(sql in ".{0,200}") {
        let mut db = db_with(&[(1, "a")]);
        let _ = db.execute(&sql);
    }

    /// INSERT then COUNT(*) agrees with the number of inserts.
    #[test]
    fn insert_then_count(n in 0usize..30) {
        let mut db = Database::new();
        db.create_table("t", &["id", "name"]);
        for i in 0..n {
            let sql = format!("INSERT INTO t (id, name) VALUES ({i}, 'row{i}')");
            db.execute(&sql).expect("insert");
        }
        let r = db.execute("SELECT COUNT(*) FROM t").expect("count");
        prop_assert_eq!(r.rows[0][0].clone(), Value::Int(n as i64));
    }

    /// Point lookups return exactly the matching row.
    #[test]
    fn where_equality_filters(ids in proptest::collection::btree_set(0i64..100, 1..20)) {
        let rows: Vec<(i64, String)> = ids.iter().map(|i| (*i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let target = *ids.iter().next().unwrap();
        let r = db.execute(&format!("SELECT name FROM t WHERE id = {target}")).unwrap();
        prop_assert_eq!(r.rows.len(), 1);
        prop_assert_eq!(r.rows[0][0].as_str(), format!("n{target}"));
    }

    /// A tautology returns every row — the attack effect Joza prevents.
    #[test]
    fn tautology_returns_all(n in 1usize..20) {
        let rows: Vec<(i64, String)> = (0..n as i64).map(|i| (i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let r = db.execute("SELECT name FROM t WHERE id = -1 OR 1=1").unwrap();
        prop_assert_eq!(r.rows.len(), n);
    }

    /// UNION appends rows and keeps the left arity; mismatched arity errors.
    #[test]
    fn union_semantics(n in 1usize..10) {
        let rows: Vec<(i64, String)> = (0..n as i64).map(|i| (i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let r = db.execute("SELECT name FROM t WHERE id = -1 UNION SELECT name FROM t").unwrap();
        prop_assert_eq!(r.rows.len(), n);
        let err = db.execute("SELECT name FROM t UNION SELECT id, name FROM t");
        prop_assert!(err.is_err(), "arity mismatch must error");
    }

    /// ORDER BY + LIMIT: results are sorted and capped.
    #[test]
    fn order_by_limit(mut ids in proptest::collection::vec(0i64..1000, 1..25), k in 1usize..10) {
        ids.sort_unstable();
        ids.dedup();
        let rows: Vec<(i64, String)> = ids.iter().map(|i| (*i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let r = db.execute(&format!("SELECT id FROM t ORDER BY id DESC LIMIT {k}")).unwrap();
        prop_assert!(r.rows.len() <= k);
        let got: Vec<i64> = r.rows.iter().map(|row| match &row[0] {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        }).collect();
        let mut expect = ids.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k.min(ids.len()));
        prop_assert_eq!(got, expect);
    }

    /// UPDATE changes exactly the matched rows; DELETE removes them.
    #[test]
    fn update_delete_roundtrip(n in 2usize..15) {
        let rows: Vec<(i64, String)> = (0..n as i64).map(|i| (i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        db.execute("UPDATE t SET name = 'renamed' WHERE id = 0").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t WHERE name = 'renamed'").unwrap();
        prop_assert_eq!(r.rows[0][0].clone(), Value::Int(1));
        db.execute("DELETE FROM t WHERE id = 0").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(r.rows[0][0].clone(), Value::Int(n as i64 - 1));
    }

    /// SLEEP consumes virtual time, never wall-clock time.
    #[test]
    fn sleep_is_virtual(secs in 0i64..30) {
        let mut db = db_with(&[(1, "a")]);
        let t0 = db.clock_ms();
        let wall = std::time::Instant::now();
        db.execute(&format!("SELECT * FROM t WHERE id=1 AND SLEEP({secs})")).unwrap();
        prop_assert!(db.clock_ms() - t0 >= (secs as u64) * 1000);
        prop_assert!(wall.elapsed() < std::time::Duration::from_millis(200));
    }
}

/// String comparisons follow MySQL's case-insensitive default collation
/// for WHERE but values round-trip byte-exactly.
#[test]
fn string_semantics() {
    let mut db = db_with(&[(1, "Alice")]);
    let r = db.execute("SELECT name FROM t WHERE name = 'alice'").unwrap();
    assert_eq!(r.rows.len(), 1, "MySQL default collation is case-insensitive");
    assert_eq!(r.rows[0][0].as_str(), "Alice");
}

/// LIKE with % wildcards.
#[test]
fn like_patterns() {
    let mut db = db_with(&[(1, "hello world"), (2, "goodbye")]);
    let r = db.execute("SELECT id FROM t WHERE name LIKE '%world%'").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db.execute("SELECT id FROM t WHERE name LIKE 'good%'").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db.execute("SELECT id FROM t WHERE name LIKE '%zzz%'").unwrap();
    assert!(r.rows.is_empty());
}

/// Unknown table/column are errors the application can observe (the
/// standard-blind signal).
#[test]
fn errors_are_observable() {
    let mut db = db_with(&[(1, "a")]);
    assert!(db.execute("SELECT * FROM missing").is_err());
    assert!(db.execute("SELECT nope FROM t").is_err());
    assert!(db.execute("SELECT * FROM t WHERE").is_err());
}

/// A select-list item over `t` (two rows) and `e` (no rows), both
/// `(id, name)`: wildcards, qualified wildcards, aliases and unknown names.
fn projection() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("*"),
        Just("t.*"),
        Just("e.*"),
        Just("x.*"),
        Just("id"),
        Just("name AS n"),
        Just("t.id"),
        Just("nosuch"),
        Just("1"),
    ]
}

const FROMS: [&str; 4] = ["t", "e", "t JOIN e ON t.id = e.id", "t AS x"];
const FILTERS: [&str; 4] = ["", " WHERE 1 = 0", " WHERE id > 1", " WHERE nosuch = 1"];

proptest! {
    /// Every SELECT either fails a name or width check, or returns as
    /// many columns as origins, and every row has that width — whether
    /// or not a row survives.
    #[test]
    fn output_width_is_the_column_list(
        lists in proptest::collection::vec(proptest::collection::vec(projection(), 1..4), 1..3),
        froms in proptest::collection::vec(0usize..4, 2..3),
        filters in proptest::collection::vec(0usize..4, 2..3),
    ) {
        let mut db = db_with(&[(1, "a"), (2, "b")]);
        db.create_table("e", &["id", "name"]);
        let arms: Vec<String> = lists
            .iter()
            .zip(froms.iter().zip(&filters))
            .map(|(items, (&f, &w))| format!("SELECT {} FROM {}{}", items.join(", "), FROMS[f], FILTERS[w]))
            .collect();
        let sql = arms.join(" UNION ");
        match db.execute(&sql) {
            Ok(r) => {
                prop_assert_eq!(r.columns.len(), r.origins.len(), "{}", sql);
                prop_assert!(r.rows.iter().all(|row| row.len() == r.columns.len()), "{}", sql);
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    DbError::UnknownTable(_)
                        | DbError::UnknownColumn(_)
                        | DbError::UnionColumnMismatch { .. }
                ),
                "{}: {:?}",
                sql,
                e
            ),
        }
    }
}
