//! Error-based injection (beyond the testbed's four classes): the
//! `EXTRACTVALUE`/`UPDATEXML` XPath-error channel leaks data through the
//! DBMS error message. The threat model's definition covers it (attacker
//! input interpreted as a built-in function), so Joza must stop it.

use joza::core::{Joza, JozaConfig};
use joza::db::{Database, Value};
use joza::webapp::app::{Plugin, WebApp};
use joza::webapp::request::HttpRequest;
use joza::webapp::server::Server;

fn app() -> Server {
    let mut app = WebApp::wordpress_style("gallery");
    app.add_plugin(Plugin::new(
        "image",
        "1.0",
        r#"
        $id = $_GET['id'];
        $r = mysql_query("SELECT file FROM images WHERE id=" . $id);
        if ($r) {
            while ($row = mysql_fetch_assoc($r)) { echo $row['file']; }
        } else {
            // Verbose error page: the exfiltration channel.
            echo "query failed: ", mysql_error();
        }
        "#,
    ));
    let mut db = Database::new();
    db.create_table("images", &["id", "file"]);
    db.insert_row("images", vec![Value::Int(1), "cat.jpg".into()]);
    db.create_table("wp_users", &["id", "user_pass"]);
    db.insert_row("wp_users", vec![Value::Int(1), "errleak-pw-7".into()]);
    Server::new(app, db)
}

#[test]
fn extractvalue_error_leaks_unprotected_and_is_blocked() {
    let mut server = app();
    let payload = "1 AND EXTRACTVALUE(1, CONCAT(0x7e, (SELECT user_pass FROM wp_users LIMIT 1)))";
    let attack = HttpRequest::get("image").param("id", payload);

    // Unprotected: the DBMS error message carries the password.
    let resp = server.handle(&attack);
    assert!(
        resp.body.contains("errleak-pw-7"),
        "error-based exfiltration must work unprotected: {}",
        resp.body
    );

    // Joza: both components flag it (EXTRACTVALUE/CONCAT are critical
    // tokens absent from fragments; the payload appears verbatim).
    let joza = Joza::install(&server.app, JozaConfig::optimized());
    let resp = server.handle_with(&attack, &joza);
    assert!(resp.denied());
    assert!(!resp.body.contains("errleak-pw-7"));

    // Benign traffic unaffected.
    let resp = server.handle_with(&HttpRequest::get("image").param("id", "1"), &joza);
    assert!(!resp.blocked);
    assert_eq!(resp.body, "cat.jpg");
}

#[test]
fn error_virtualization_hides_the_error_channel() {
    use joza::core::RecoveryPolicy;
    let mut server = app();
    let joza = Joza::install(
        &server.app,
        JozaConfig { recovery: RecoveryPolicy::ErrorVirtualization, ..JozaConfig::optimized() },
    );
    let payload = "1 AND EXTRACTVALUE(1, CONCAT(0x7e, (SELECT user_pass FROM wp_users LIMIT 1)))";
    let resp = server.handle_with(&HttpRequest::get("image").param("id", payload), &joza);
    // The app still renders its error page, but with Joza's generic error
    // instead of the DBMS's leaking one.
    assert!(!resp.blocked);
    assert!(resp.body.contains("query failed"));
    assert!(!resp.body.contains("errleak-pw-7"), "{}", resp.body);
}
