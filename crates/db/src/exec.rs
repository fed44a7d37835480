//! Statement executors: SELECT pipeline plus INSERT/UPDATE/DELETE.

use crate::engine::{Database, DbError, SideEffects};
use crate::eval::{eval, Ctx, Env, AGGREGATES};
use joza_sqlparse::ast::*;
use joza_sqlparse::Value;

/// Runs a SELECT (with any UNION continuations) and returns its rows.
/// Its names were checked, and its columns listed, by
/// [`output_columns`](joza_sqlparse::cells::output_columns) before a row
/// is read.
pub(crate) fn run_select(
    db: &Database,
    sel: &SelectStatement,
    side: &mut SideEffects,
) -> Result<Vec<Vec<Value>>, DbError> {
    run_select_with_outer(db, sel, side, None)
}

pub(crate) fn run_select_with_outer(
    db: &Database,
    sel: &SelectStatement,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_>>,
) -> Result<Vec<Vec<Value>>, DbError> {
    let mut rows = run_select_body(db, sel, side, outer)?;
    for (op, arm) in &sel.set_ops {
        rows.extend(run_select_body(db, arm, side, outer)?);
        if *op == SetOp::Union {
            dedup_rows(&mut rows, Vec::as_slice);
        }
    }
    Ok(rows)
}

/// Duplicate elimination for `UNION` and `SELECT DISTINCT`: keeps the
/// first item of each distinct `{:?}` rendering of its row, in order. A
/// hash set of the renderings makes it linear in the rows.
fn dedup_rows<T>(items: &mut Vec<T>, row: impl Fn(&T) -> &[Value]) {
    let mut seen = std::collections::HashSet::with_capacity(items.len());
    items.retain(|item| seen.insert(format!("{:?}", row(item))));
}

/// The quadratic rule [`dedup_rows`] replaced, kept as its reference.
#[cfg(test)]
fn dedup_rows_reference(rows: &mut Vec<Vec<Value>>) {
    let mut seen: Vec<String> = Vec::new();
    rows.retain(|r| {
        let key = format!("{r:?}");
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
}

fn run_select_body(
    db: &Database,
    sel: &SelectStatement,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_>>,
) -> Result<Vec<Vec<Value>>, DbError> {
    // 1. FROM / JOIN: build the row environments.
    let mut envs: Vec<Env> = match &sel.from {
        None => vec![Env::default()],
        Some(table) => load_table(db, table)?,
    };
    for join in &sel.joins {
        envs = apply_join(db, envs, join, side, outer)?;
    }

    // 2. WHERE.
    if let Some(pred) = &sel.where_clause {
        let mut kept = Vec::with_capacity(envs.len());
        for env in envs {
            let ctx = Ctx { db, env: Some(&env), group: None, outer };
            if eval(ctx, side, pred)?.is_truthy() {
                kept.push(env);
            }
        }
        envs = kept;
    }

    // 3. Aggregation decision: an aggregate call outside any subquery.
    let is_aggregate =
        |e: &Expr| matches!(e, Expr::Function { name, .. } if AGGREGATES.contains(&name.as_str()));
    let aggregated = !sel.group_by.is_empty()
        || sel
            .projections
            .iter()
            .any(|p| matches!(p, Projection::Expr { expr, .. } if expr.any(&is_aggregate)))
        || sel.having.as_ref().is_some_and(|h| h.any(&is_aggregate));

    // Each produced row carries its ORDER BY keys.
    let mut produced: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();

    if aggregated {
        // Group rows by GROUP BY key.
        let mut groups: Vec<(Vec<Value>, Vec<Env>)> = Vec::new();
        for env in envs {
            let ctx = Ctx { db, env: Some(&env), group: None, outer };
            let mut key = Vec::with_capacity(sel.group_by.len());
            for g in &sel.group_by {
                key.push(eval(ctx, side, g)?);
            }
            match groups.iter_mut().find(|(k, _)| values_eq(k, &key)) {
                Some((_, members)) => members.push(env),
                None => groups.push((key, vec![env])),
            }
        }
        if groups.is_empty() && sel.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new())); // aggregate over empty set
        }
        for (_, members) in &groups {
            let ctx = Ctx { db, env: members.first(), group: Some(members), outer };
            if let Some(h) = &sel.having {
                if !eval(ctx, side, h)?.is_truthy() {
                    continue;
                }
            }
            let row = project(ctx, side, sel, members.first())?;
            produced.push((row, order_keys(ctx, side, sel)?));
        }
    } else {
        for env in &envs {
            let ctx = Ctx { db, env: Some(env), group: None, outer };
            let row = project(ctx, side, sel, Some(env))?;
            produced.push((row, order_keys(ctx, side, sel)?));
        }
    }

    // 4. DISTINCT.
    if sel.distinct {
        dedup_rows(&mut produced, |(row, _)| row);
    }

    // 5. ORDER BY.
    if !sel.order_by.is_empty() {
        let descs: Vec<bool> = sel.order_by.iter().map(|o| o.desc).collect();
        produced.sort_by(|(_, ka), (_, kb)| {
            for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                let ord = a.compare(b).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if descs.get(i).copied().unwrap_or(false) { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // 6. LIMIT / OFFSET.
    let mut rows: Vec<Vec<Value>> = produced.into_iter().map(|(r, _)| r).collect();
    if let Some(limit) = &sel.limit {
        let ctx = Ctx { db, env: None, group: None, outer };
        let count = eval(ctx, side, &limit.count)?.as_i64().max(0) as usize;
        let offset = match &limit.offset {
            Some(o) => eval(ctx, side, o)?.as_i64().max(0) as usize,
            None => 0,
        };
        rows = rows.into_iter().skip(offset).take(count).collect();
    }

    Ok(rows)
}

fn values_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.sql_eq(y).unwrap_or(x.is_null() && y.is_null()))
}

fn load_table(db: &Database, table: &TableRef) -> Result<Vec<Env>, DbError> {
    let t = db.table(&table.name).ok_or_else(|| DbError::UnknownTable(table.name.clone()))?;
    let qualifier = table.alias.as_deref().unwrap_or(&table.name);
    Ok(t.rows()
        .iter()
        .map(|row| {
            let mut env = Env::default();
            for (col, val) in t.columns().iter().zip(row) {
                env.push(Some(qualifier), col, val.clone());
            }
            env
        })
        .collect())
}

fn apply_join(
    db: &Database,
    left: Vec<Env>,
    join: &Join,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_>>,
) -> Result<Vec<Env>, DbError> {
    let right = load_table(db, &join.table)?;
    let mut out = Vec::new();
    for l in &left {
        let mut matched = false;
        for r in &right {
            let mut combined = l.clone();
            combined.entries.extend(r.entries.iter().cloned());
            let keep = match (&join.kind, &join.on) {
                (JoinKind::Cross, _) | (_, None) => true,
                (_, Some(pred)) => {
                    let ctx = Ctx { db, env: Some(&combined), group: None, outer };
                    eval(ctx, side, pred)?.is_truthy()
                }
            };
            if keep {
                matched = true;
                out.push(combined);
            }
        }
        if !matched && join.kind == JoinKind::Left {
            // Null-extend the right side.
            let mut combined = l.clone();
            if let Some(rt) = db.table(&join.table.name) {
                let q = join.table.alias.as_deref().unwrap_or(&join.table.name);
                for col in rt.columns() {
                    combined.push(Some(q), col, Value::Null);
                }
            }
            out.push(combined);
        }
    }
    Ok(out)
}

/// One row's values in the order [`output_columns`] lists them: `*` and
/// `q.*` take the row's values of the `FROM` and `JOIN` tables, in that
/// order.
///
/// [`output_columns`]: joza_sqlparse::cells::output_columns
fn project(
    ctx: Ctx<'_>,
    side: &mut SideEffects,
    sel: &SelectStatement,
    env: Option<&Env>,
) -> Result<Vec<Value>, DbError> {
    let mut row = Vec::new();
    for p in &sel.projections {
        match p {
            Projection::Wildcard => match env {
                Some(e) => row.extend(e.entries.iter().map(|(_, _, value)| value.clone())),
                None => {
                    return Err(DbError::Other("SELECT * with no FROM clause".into()));
                }
            },
            Projection::QualifiedWildcard(q) => match env {
                Some(e) => {
                    let ql = q.to_ascii_lowercase();
                    row.extend(
                        e.entries
                            .iter()
                            .filter(|(qual, _, _)| qual.as_deref() == Some(ql.as_str()))
                            .map(|(_, _, value)| value.clone()),
                    );
                }
                None => {
                    return Err(DbError::Other("qualified * with no FROM clause".into()));
                }
            },
            Projection::Expr { expr, .. } => row.push(eval(ctx, side, expr)?),
        }
    }
    Ok(row)
}

fn order_keys(
    ctx: Ctx<'_>,
    side: &mut SideEffects,
    sel: &SelectStatement,
) -> Result<Vec<Value>, DbError> {
    let mut keys = Vec::with_capacity(sel.order_by.len());
    for item in &sel.order_by {
        keys.push(eval(ctx, side, &item.expr)?);
    }
    Ok(keys)
}

pub(crate) fn run_insert(
    db: &mut Database,
    ins: &InsertStatement,
    side: &mut SideEffects,
) -> Result<usize, DbError> {
    // Evaluate all rows first (read-only borrow), then apply.
    let mut evaluated: Vec<Vec<Value>> = Vec::with_capacity(ins.rows.len());
    {
        let db_ref: &Database = db;
        let ctx = Ctx { db: db_ref, env: None, group: None, outer: None };
        for row in &ins.rows {
            let mut vals = Vec::with_capacity(row.len());
            for e in row {
                vals.push(eval(ctx, side, e)?);
            }
            evaluated.push(vals);
        }
    }
    let key = ins.table.to_ascii_lowercase();
    let table = db.tables.get_mut(&key).ok_or_else(|| DbError::UnknownTable(ins.table.clone()))?;
    let mut affected = 0;
    for vals in evaluated {
        let row = if ins.columns.is_empty() {
            vals
        } else {
            // Map named columns onto schema positions.
            let mut row = vec![Value::Null; table.columns().len()];
            for (col, val) in ins.columns.iter().zip(vals) {
                let idx =
                    table.column_index(col).ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
                row[idx] = val;
            }
            row
        };
        table.push_row(row);
        affected += 1;
    }
    Ok(affected)
}

pub(crate) fn run_update(
    db: &mut Database,
    upd: &UpdateStatement,
    side: &mut SideEffects,
) -> Result<usize, DbError> {
    let key = upd.table.to_ascii_lowercase();
    let table = db.tables.get(&key).ok_or_else(|| DbError::UnknownTable(upd.table.clone()))?;
    let columns: Vec<String> = table.columns().to_vec();
    let name = table.name().to_string();

    // Pass 1 (read-only): decide which rows match and compute new values.
    let mut updates: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
    {
        let db_ref: &Database = db;
        let table = db_ref.table(&upd.table).expect("checked above");
        for (ri, row) in table.rows().iter().enumerate() {
            let mut env = Env::default();
            for (col, val) in columns.iter().zip(row) {
                env.push(Some(&name), col, val.clone());
            }
            let ctx = Ctx { db: db_ref, env: Some(&env), group: None, outer: None };
            let hit = match &upd.where_clause {
                Some(pred) => eval(ctx, side, pred)?.is_truthy(),
                None => true,
            };
            if hit {
                let mut assignments = Vec::with_capacity(upd.assignments.len());
                for (col, e) in &upd.assignments {
                    let idx = columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(col))
                        .ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
                    assignments.push((idx, eval(ctx, side, e)?));
                }
                updates.push((ri, assignments));
            }
        }
    }
    // LIMIT applies to matched rows in order.
    if let Some(limit) = &upd.limit {
        let ctx = Ctx { db, env: None, group: None, outer: None };
        let count = eval(ctx, side, &limit.count)?.as_i64().max(0) as usize;
        updates.truncate(count);
    }
    let affected = updates.len();
    let table = db.tables.get_mut(&key).expect("checked above");
    for (ri, assignments) in updates {
        for (ci, val) in assignments {
            table.rows_mut()[ri][ci] = val;
        }
    }
    Ok(affected)
}

pub(crate) fn run_delete(
    db: &mut Database,
    del: &DeleteStatement,
    side: &mut SideEffects,
) -> Result<usize, DbError> {
    let key = del.table.to_ascii_lowercase();
    let table = db.tables.get(&key).ok_or_else(|| DbError::UnknownTable(del.table.clone()))?;
    let columns: Vec<String> = table.columns().to_vec();
    let name = table.name().to_string();

    let mut doomed: Vec<usize> = Vec::new();
    {
        let db_ref: &Database = db;
        let table = db_ref.table(&del.table).expect("checked above");
        for (ri, row) in table.rows().iter().enumerate() {
            let mut env = Env::default();
            for (col, val) in columns.iter().zip(row) {
                env.push(Some(&name), col, val.clone());
            }
            let ctx = Ctx { db: db_ref, env: Some(&env), group: None, outer: None };
            let hit = match &del.where_clause {
                Some(pred) => eval(ctx, side, pred)?.is_truthy(),
                None => true,
            };
            if hit {
                doomed.push(ri);
            }
        }
    }
    if let Some(limit) = &del.limit {
        let ctx = Ctx { db, env: None, group: None, outer: None };
        let count = eval(ctx, side, &limit.count)?.as_i64().max(0) as usize;
        doomed.truncate(count);
    }
    let affected = doomed.len();
    let table = db.tables.get_mut(&key).expect("checked above");
    for ri in doomed.into_iter().rev() {
        table.rows_mut().remove(ri);
    }
    Ok(affected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0i64..4).prop_map(Value::Int),
            prop_oneof![Just(0.0), Just(-0.0), Just(1.5), Just(f64::NAN)].prop_map(Value::Float),
            "[ab1]{0,2}".prop_map(Value::Str),
        ]
    }

    proptest! {
        /// The hashed rule keeps exactly the rows, in exactly the order,
        /// that the quadratic reference keeps.
        #[test]
        fn dedup_rows_matches_the_reference(
            rows in proptest::collection::vec(proptest::collection::vec(value(), 0..3), 0..40),
        ) {
            let (mut fast, mut reference) = (rows.clone(), rows);
            dedup_rows(&mut fast, Vec::as_slice);
            dedup_rows_reference(&mut reference);
            prop_assert_eq!(format!("{fast:?}"), format!("{reference:?}"));
        }
    }

    #[test]
    fn dedup_rows_a_20k_row_union_finishes() {
        // 10k ids in each arm, half of them shared: the quadratic rule
        // compared ~10^8 keys here.
        let mut db = Database::new();
        db.create_table("a", &["id"]);
        db.create_table("b", &["id"]);
        for i in 0..10_000 {
            db.insert_row("a", vec![Value::Int(i)]);
            db.insert_row("b", vec![Value::Int(i + 5_000)]);
        }
        let r = db.execute("SELECT id FROM a UNION SELECT id FROM b").unwrap();
        assert_eq!(r.rows.len(), 15_000);
        assert!(r.rows.iter().enumerate().all(|(i, row)| row[..] == [Value::Int(i as i64)]));
        let all = db.execute("SELECT id FROM a UNION ALL SELECT id FROM b").unwrap();
        assert_eq!(all.rows.len(), 20_000);
    }

    /// `posts` with one row and `empty2` with the same two columns and none.
    fn posts_and_empty2() -> Database {
        let mut db = Database::new();
        db.create_table("posts", &["id", "title"]);
        db.insert_row("posts", vec![Value::Int(1), "t".into()]);
        db.create_table("empty2", &["id", "title"]);
        db
    }

    #[test]
    fn union_arm_star_over_an_empty_table_has_the_tables_width() {
        let mut db = posts_and_empty2();
        let r = db.execute("SELECT id, title FROM posts UNION SELECT * FROM empty2").unwrap();
        assert_eq!(r.columns, ["id", "title"]);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn qualified_star_of_a_table_not_in_from_is_an_unknown_table() {
        let mut db = posts_and_empty2();
        db.create_table("users", &["id"]);
        for sql in ["SELECT users.* FROM posts", "SELECT nosuch.* FROM posts"] {
            assert!(matches!(db.execute(sql), Err(DbError::UnknownTable(_))), "{sql}");
        }
    }

    #[test]
    fn empty_result_names_the_expanded_columns() {
        let mut db = posts_and_empty2();
        let r = db.execute("SELECT * FROM posts WHERE id = 99").unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.columns, ["id", "title"]);
        assert_eq!(r.origins.len(), 2);
    }

    #[test]
    fn unknown_column_fails_before_any_row_is_read() {
        let mut db = posts_and_empty2();
        for sql in [
            "SELECT nosuch FROM empty2",
            "SELECT id FROM posts WHERE 1 = 0 AND nosuch = 1",
            "SELECT id FROM posts WHERE nosuch = 1 AND 1 = 0",
            "SELECT id FROM empty2 ORDER BY nosuch",
        ] {
            assert_eq!(db.execute(sql), Err(DbError::UnknownColumn("nosuch".into())), "{sql}");
        }
    }

    #[test]
    fn distinct_a_20k_row_select_finishes() {
        let mut db = Database::new();
        db.create_table("a", &["id"]);
        for i in 0..20_000 {
            db.insert_row("a", vec![Value::Int(i % 15_000)]);
        }
        let r = db.execute("SELECT DISTINCT id FROM a").unwrap();
        assert_eq!(r.rows.len(), 15_000);
        assert!(r.rows.iter().enumerate().all(|(i, row)| row[..] == [Value::Int(i as i64)]));
    }

    proptest! {
        /// `SELECT DISTINCT` keeps exactly the rows the quadratic rule
        /// keeps over the projected rows.
        #[test]
        fn distinct_matches_dedup_rows_reference(
            rows in proptest::collection::vec(proptest::collection::vec(value(), 2..3), 0..30),
        ) {
            let mut db = Database::new();
            db.create_table("t", &["a", "b"]);
            for row in rows {
                db.insert_row("t", row);
            }
            let mut reference = db.execute("SELECT a, b FROM t").unwrap().rows;
            dedup_rows_reference(&mut reference);
            let distinct = db.execute("SELECT DISTINCT a, b FROM t").unwrap().rows;
            prop_assert_eq!(format!("{distinct:?}"), format!("{reference:?}"));
        }
    }
}
