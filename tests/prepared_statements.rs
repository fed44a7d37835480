//! "Prepared statements are not a panacea" (§V-B): the Drupal
//! CVE-2014-3704 case end to end — bound values are safe, but
//! attacker-controlled placeholder *names* edit the statement text, and
//! Joza intercepts that text.

use joza::core::{Joza, JozaConfig};
use joza::lab::verify::{request_for, verify_exploit};
use joza::lab::{build_lab, wordpress};

#[test]
fn bound_values_are_inert_but_placeholder_names_are_not() {
    let mut lab = build_lab();
    let drupal = lab.cms_cases.iter().find(|c| c.name == "Drupal").unwrap().clone();

    // Benign: a real prepared statement over an expanded IN-list.
    let benign = request_for(&drupal, &drupal.benign_value);
    let resp = lab.server.handle(&benign);
    assert!(resp.sql_error.is_none(), "{:?}", resp.sql_error);
    assert!(!resp.body.contains(wordpress::SECRET_PASSWORD));

    // A hostile *value* is harmless — binding keeps it data.
    let hostile_value = lab.server.handle(
        &joza::webapp::request::HttpRequest::get(&drupal.slug)
            .param("ids[0]", "0 OR 1=1")
            .param("ids[1]", "1' UNION SELECT user_pass FROM wp_users-- -"),
    );
    assert!(
        !hostile_value.body.contains(wordpress::SECRET_PASSWORD),
        "bound values must never be interpreted as SQL: {}",
        hostile_value.body
    );

    // A hostile *key* edits the prepared text: the real CVE channel.
    assert!(verify_exploit(&mut lab.server, &drupal), "placeholder-name exploit must work");

    // Joza intercepts the expanded statement text and stops it.
    let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
    let attack = request_for(&drupal, drupal.exploit.primary_payload());
    let resp = lab.server.handle_with(&attack, &joza);
    assert!(resp.denied());
    assert!(!resp.body.contains(wordpress::SECRET_PASSWORD));

    // And the benign prepared flow still passes the gate (fragment
    // extraction splits literals at `:name` placeholders, §IV-A).
    let resp = lab.server.handle_with(&benign, &joza);
    assert!(!resp.blocked, "benign prepared statement blocked");
    assert_eq!(resp.executed, resp.queries.len());
}

#[test]
fn nti_sees_array_keys_as_inputs() {
    // The payload travels as a PHP array *key*; NTI's preprocessing must
    // capture it like any other input (§IV-B "stores a copy of all
    // inputs").
    let mut lab = build_lab();
    let drupal = lab.cms_cases.iter().find(|c| c.name == "Drupal").unwrap().clone();
    let nti_only = Joza::install(&lab.server.app, JozaConfig::nti_only());
    let attack = request_for(&drupal, drupal.exploit.primary_payload());
    let resp = lab.server.handle_with(&attack, &nti_only);
    assert!(
        resp.denied(),
        "NTI must detect the key-borne payload (Table IV row: Drupal / NTI original: Yes)"
    );
}
