//! Second-order and mixed-input-source attacks (§III-B "PTI strengths").
//!
//! NTI correlates the *current request's* inputs with the query, so a
//! payload that is stored in request 1 and only reaches a query in
//! request 2 is invisible to it. PTI is input-independent and catches it.
//! Likewise a payload assembled by concatenating several harmless-looking
//! inputs defeats NTI's no-combination rule but not PTI.

use joza::core::{Joza, JozaConfig};
use joza::db::{Database, Value};
use joza::webapp::app::{Plugin, WebApp};
use joza::webapp::request::HttpRequest;
use joza::webapp::server::Server;

fn second_order_app() -> Server {
    let mut app = WebApp::new("second-order");
    // Request 1: store a "nickname" verbatim (no quotes needed — numeric
    // cache slot), as a cache/file would in the paper's example.
    app.add_plugin(Plugin::new(
        "store",
        "1.0",
        r#"
        $nick = $_POST['nick'];
        $ok = mysql_query("INSERT INTO cache (slot, body) VALUES (1, '" . $nick . "')");
        if ($ok) { echo "stored"; } else { echo "err: ", mysql_error(); }
        "#,
    ));
    // Request 2: read it back and build a query from it — the second-order
    // sink.
    app.add_plugin(Plugin::new(
        "replay",
        "1.0",
        r#"
        $r = mysql_query("SELECT body FROM cache WHERE slot = 1");
        $row = mysql_fetch_assoc($r);
        $q = mysql_query("SELECT title FROM posts WHERE author = " . $row['body']);
        while ($p = mysql_fetch_assoc($q)) { echo $p['title'], ";"; }
        "#,
    ));
    let mut db = Database::new();
    db.create_table("cache", &["slot", "body"]);
    db.create_table("posts", &["title", "author"]);
    db.insert_row("posts", vec!["public post".into(), Value::Int(1)]);
    db.insert_row("posts", vec!["hidden post".into(), Value::Int(2)]);
    Server::new(app, db)
}

#[test]
fn second_order_attack_evades_nti_but_not_joza() {
    let mut server = second_order_app();
    let nti_only = Joza::install(&server.app, JozaConfig::nti_only());
    let hybrid = Joza::install(&server.app, JozaConfig::optimized());

    // Stage the payload. The INSERT itself carries no unescaped critical
    // structure change the storing request's NTI would reject — but even
    // gated, storing is allowed here because we attack on *replay*.
    let stage = HttpRequest::post("store").param("nick", "1 OR 1=1");
    let resp = server.handle(&stage);
    assert_eq!(resp.body, "stored");

    // Replay request carries NO attacker input at all.
    let replay = HttpRequest::get("replay");

    // Unprotected: the tautology leaks every post.
    let resp = server.handle(&replay);
    assert!(resp.body.contains("hidden post"), "second-order attack must work: {}", resp.body);

    // NTI alone: no inputs in this request → nothing to mark → miss.
    let resp = server.handle_with(&replay, &nti_only);
    assert_eq!(resp.executed, resp.queries.len(), "NTI alone must miss the stored payload");

    // Hybrid: PTI sees OR outside any fragment → stopped.
    let resp = server.handle_with(&replay, &hybrid);
    assert!(resp.denied(), "Joza must stop the second-order attack");
}

#[test]
fn payload_construction_across_inputs_evades_nti_but_not_joza() {
    // The §III-A payload-construction example: three harmless inputs
    // concatenate into `1 OR TRUE`.
    let mut app = WebApp::new("concat");
    app.add_plugin(Plugin::new(
        "multi",
        "1.0",
        r#"
        $input = $_GET['q1'] . $_GET['q2'] . $_GET['q3'];
        $r = mysql_query("SELECT * FROM data WHERE ID=" . $input);
        if ($r) { while ($row = mysql_fetch_assoc($r)) { echo $row['v'], ";"; } }
        else { echo "err"; }
        "#,
    ));
    let mut db = Database::new();
    db.create_table("data", &["ID", "v"]);
    db.insert_row("data", vec![Value::Int(1), "one".into()]);
    db.insert_row("data", vec![Value::Int(2), "two".into()]);
    let mut server = Server::new(app, db);

    let nti_only = Joza::install(&server.app, JozaConfig::nti_only());
    let hybrid = Joza::install(&server.app, JozaConfig::optimized());

    // Every critical token (`OR`, `TRUE`) is split across inputs, so no
    // single input covers a whole critical token.
    let attack = HttpRequest::get("multi").param("q1", "1 O").param("q2", "R TR").param("q3", "UE");

    // It really works unprotected.
    let resp = server.handle(&attack);
    assert!(resp.body.contains("two"), "constructed payload must leak: {}", resp.body);

    // NTI: markings from different inputs are never combined; no single
    // input matches a whole critical token span cleanly enough.
    let resp = server.handle_with(&attack, &nti_only);
    assert_eq!(
        resp.executed,
        resp.queries.len(),
        "NTI alone should miss the multi-input construction"
    );

    // The hybrid stops it (OR/TRUE are not program fragments).
    let resp = server.handle_with(&attack, &hybrid);
    assert!(resp.denied());
}

#[test]
fn single_letter_inputs_do_not_cause_false_positives() {
    // The no-combination rule exists to avoid false positives: `O` and `R`
    // as separate inputs must not taint the word OR in a benign query.
    let mut app = WebApp::new("letters");
    app.add_plugin(Plugin::new(
        "page",
        "1.0",
        r#"
        $a = $_GET['a'];
        $r = mysql_query("SELECT v FROM data WHERE ID=1 OR ID=2");
        while ($row = mysql_fetch_assoc($r)) { echo $row['v']; }
        "#,
    ));
    let mut db = Database::new();
    db.create_table("data", &["ID", "v"]);
    db.insert_row("data", vec![Value::Int(1), "x".into()]);
    let mut server = Server::new(app, db);
    // The app's own source contains the OR query → PTI covers it.
    let joza = Joza::install(&server.app, JozaConfig::optimized());
    let req = HttpRequest::get("page").param("a", "O").query_param("b", "R");
    let resp = server.handle_with(&req, &joza);
    assert!(!resp.blocked);
    assert_eq!(resp.executed, resp.queries.len(), "benign OR flagged — inputs combined?");
}
