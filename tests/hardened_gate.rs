//! The hardened gate: `harden_app` rewrites sinks into prepared
//! statements, and every route it reports as rewritten goes on the static
//! fast path (the gate `paper harden` builds). So a rewritten route must
//! keep no raw sink anywhere, a sink nested in another sink's query and a
//! sink after `exit` included.

use joza::core::{Joza, JozaConfig};
use joza::db::Database;
use joza::lab::build_lab;
use joza::lab::second_order::build_second_order_lab;
use joza::phpsim::ast::{Expr, Stmt};
use joza::phpsim::parser::parse_program;
use joza::phpsim::value::PValue;
use joza::sast::{harden_app, is_sink, taint_free_routes, SkipReason};
use joza::webapp::app::{Plugin, WebApp};
use joza::webapp::request::HttpRequest;
use joza::webapp::server::Server;

/// The inner query concatenates `id` raw; only the outer one is the
/// statement's top-level sink.
const NESTED_SINK: &str = r#"
    $id = $_GET['id'];
    $r = mysql_query("SELECT id FROM stats WHERE n=" . mysql_num_rows(mysql_query("SELECT id FROM posts WHERE id=" . $id)));
    echo "ok";
"#;

/// Dead code after `exit`, but still a sink the query model counts.
const SINK_AFTER_EXIT: &str = "$q = 'SELECT 1'; exit; mysql_query($q . $_GET['x']);";

fn snippet_app() -> WebApp {
    let mut app = WebApp::new("hardened-gate");
    app.add_plugin(Plugin::new("nested-sink", "1", NESTED_SINK));
    app.add_plugin(Plugin::new("sink-after-exit", "1", SINK_AFTER_EXIT));
    app
}

#[test]
fn nested_sink_cannot_bypass_the_hardened_gate() {
    let (hardened, report) = harden_app(&snippet_app());
    let nested = report.routes.iter().find(|r| r.route == "nested-sink").expect("route");
    assert_eq!(nested.skip, Some(SkipReason::UnresolvedQueryExpr), "{nested:?}");
    let gate = Joza::installer(&hardened, JozaConfig::optimized())
        .taint_free_routes(report.rewritten_routes())
        .taint_free_routes(taint_free_routes(&hardened))
        .build();
    let mut db = Database::new();
    db.create_table("posts", &["id", "title"]);
    db.insert_row("posts", vec![1i64.into(), "hello".into()]);
    db.insert_row("posts", vec![2i64.into(), "world".into()]);
    db.create_table("stats", &["id", "n"]);
    let mut server = Server::new(hardened, db);

    let attack = HttpRequest::get("nested-sink").param("id", "1; DELETE FROM posts");
    let resp = server.handle_with(&attack, &gate);
    assert_eq!(
        server.db.table("posts").expect("posts").len(),
        2,
        "the nested raw sink deleted posts behind the hardened gate ({report:?}, {resp:?})"
    );
}

/// Every sink call in `stmts`.
fn sinks<'a>(stmts: impl IntoIterator<Item = &'a Stmt>, out: &mut Vec<&'a Expr>) {
    fn in_expr<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if matches!(e, Expr::Call { name, .. } if is_sink(name)) {
            out.push(e);
        }
        e.children().for_each(|c| in_expr(c, out));
    }
    for s in stmts {
        let (exprs, blocks) = s.children();
        exprs.for_each(|e| in_expr(e, out));
        sinks(blocks, out);
    }
}

#[test]
fn rewritten_routes_keep_no_raw_sink() {
    for app in [build_lab().server.app, build_second_order_lab().lab.server.app, snippet_app()] {
        let (hardened, report) = harden_app(&app);
        for route in report.rewritten_routes() {
            let src = &hardened.plugin(&route).expect("route").source;
            let prog = parse_program(src).expect("hardened source parses");
            let mut found = Vec::new();
            sinks(&prog, &mut found);
            for sink in found {
                let prepared = matches!(sink, Expr::Call { name, args }
                    if name == "db_query" && matches!(args.first(), Some(Expr::Lit(PValue::Str(_)))));
                assert!(prepared, "{route}: raw sink {sink:?} in rewritten source\n{src}");
            }
        }
    }
}
