//! "Prepared statements are not a panacea" (§V-B): the Drupal
//! CVE-2014-3704 case study, end to end.
//!
//! The application below binds every value through a genuine prepared
//! statement — and is still injectable, because Drupal 7's
//! `expandArguments` derives placeholder *names* from user-controlled PHP
//! array keys and splices them into the statement text. Joza intercepts
//! the expanded text before it reaches the database.
//!
//! ```text
//! cargo run --example prepared_statements
//! ```

use joza::core::{Joza, JozaConfig};
use joza::lab::verify::request_for;
use joza::lab::{build_lab, wordpress};
use joza::webapp::request::HttpRequest;

fn main() {
    let mut lab = build_lab();
    let drupal = lab.cms_cases.iter().find(|c| c.name == "Drupal").unwrap().clone();
    println!("case study: {} v{} ({})\n", drupal.name, drupal.version, drupal.cve);

    println!("== 1. the prepared statement does its job on hostile *values* ==");
    let hostile_values = HttpRequest::get(&drupal.slug)
        .param("ids[0]", "0 OR 1=1")
        .param("ids[1]", "1' UNION SELECT user_pass FROM wp_users-- -");
    let resp = lab.server.handle(&hostile_values);
    assert!(!resp.body.contains(wordpress::SECRET_PASSWORD));
    println!("bound injection payloads stay inert data; response: {:?}\n", resp.body.trim());

    println!("== 2. …but a hostile placeholder *name* edits the statement text ==");
    let payload = drupal.exploit.primary_payload();
    println!("request: ids[0]=1 & ids[{payload}]=2");
    let attack = request_for(&drupal, payload);
    let resp = lab.server.handle(&attack);
    assert!(resp.body.contains(wordpress::SECRET_PASSWORD), "{}", resp.body);
    println!("expanded statement sent to be prepared:");
    for q in &resp.queries {
        println!("  {q}");
    }
    println!("the admin password leaks: {:?}\n", resp.body.trim());

    println!("== 3. Joza intercepts the expanded text ==");
    let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
    let resp = lab.server.handle_with(&attack, &joza);
    assert!(resp.denied());
    println!(
        "attack stopped (blocked={}, executed {}/{} queries)",
        resp.blocked,
        resp.executed,
        resp.queries.len()
    );

    // Benign prepared traffic is untouched: literals are split at `:name`
    // placeholders during fragment extraction (§IV-A), so the expanded
    // benign text stays fragment-covered.
    let benign = request_for(&drupal, &drupal.benign_value);
    let resp = lab.server.handle_with(&benign, &joza);
    assert!(!resp.blocked);
    println!("benign prepared IN-list still served ({} queries executed)", resp.executed);
}
