//! False-positive sweeps (§V-B): realistic benign traffic — including the
//! adversarial-looking kind — must never be blocked by the full hybrid.

use joza::core::{Joza, JozaConfig};
use joza::lab::build_lab;
use joza::lab::verify::request_for;
use joza::webapp::request::HttpRequest;

#[test]
fn benign_crawl_comments_searches_never_blocked() {
    let mut lab = build_lab();
    let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
    let mut check = |req: HttpRequest| {
        let resp = lab.server.handle_with(&req, &joza);
        assert!(!resp.blocked, "false positive on {req:?}");
        assert_eq!(resp.executed, resp.queries.len(), "virtualized benign query on {req:?}");
    };

    check(HttpRequest::get("index"));
    for p in 1..=40 {
        check(HttpRequest::get("single-post").param("p", &p.to_string()));
    }
    // Searches with SQL-looking but benign content.
    for s in [
        "lorem",
        "it's",
        "O'Brien",
        "select your battles",
        "union jack",
        "1=1 in algebra",
        "drop me a line",
        "-- dashes --",
        "a AND b",
        "50% off!",
        "  padded  ",
        "comment/*inline*/style",
    ] {
        check(HttpRequest::get("search").param("s", s));
    }
    // Comments with quotes, SQL words, numbers, emoji-free punctuation.
    for (author, text) in [
        ("alice", "nice post!"),
        ("o'brien", "it's genuinely great, isn't it?"),
        ("bob", "I'd say 1+1=2 -- obviously"),
        ("carol", "SELECT your words carefully ;)"),
        ("dave", "union of opinions, or not"),
        ("eve", "WHERE do I sign up?"),
        ("frank", "my password is *not* 'hunter2'"),
        ("grace", "ORDER BY relevance please"),
    ] {
        check(
            HttpRequest::post("post-comment")
                .param("comment_post_ID", "2")
                .param("author", author)
                .param("comment", text),
        );
    }
}

#[test]
fn every_plugin_benign_value_passes() {
    let mut lab = build_lab();
    let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
    let plugins = lab.plugins.clone();
    for plugin in plugins.iter().chain(lab.cms_cases.clone().iter()) {
        let resp = lab.server.handle_with(&request_for(plugin, &plugin.benign_value), &joza);
        assert!(!resp.blocked, "{}: benign blocked", plugin.name);
        assert_eq!(resp.executed, resp.queries.len(), "{}: benign virtualized", plugin.name);
    }
}

#[test]
fn threat_model_allows_field_names_from_input() {
    // §II: programs that pass field/table names through inputs (advanced
    // search) must keep working — identifiers are not critical tokens.
    use joza::db::{Database, Value};
    use joza::webapp::app::{Plugin, WebApp};
    use joza::webapp::server::Server;

    let mut app = WebApp::new("advanced-search");
    app.add_plugin(Plugin::new(
        "sort",
        "1.0",
        r#"
        $col = $_GET['orderby'];
        $r = mysql_query("SELECT title FROM posts ORDER BY " . $col . " DESC");
        while ($row = mysql_fetch_assoc($r)) { echo $row['title'], ";"; }
        "#,
    ));
    let mut db = Database::new();
    db.create_table("posts", &["title", "views", "created"]);
    db.insert_row("posts", vec!["a".into(), Value::Int(5), Value::Int(100)]);
    db.insert_row("posts", vec!["b".into(), Value::Int(9), Value::Int(50)]);
    let mut server = Server::new(app, db);
    let joza = Joza::install(&server.app, JozaConfig::optimized());

    for col in ["views", "created", "title"] {
        let resp = server.handle_with(&HttpRequest::get("sort").param("orderby", col), &joza);
        assert!(!resp.blocked, "column {col} blocked — identifiers must not be critical");
        assert_eq!(resp.executed, 1);
    }
    // …but injecting *structure* through the same parameter is stopped.
    let resp = server.handle_with(
        &HttpRequest::get("sort").param("orderby", "(SELECT user_pass FROM users LIMIT 1)"),
        &joza,
    );
    assert!(resp.denied());
}
