//! Hostile nesting: a request parameter of n `(`, a number, and n `)`
//! on a numeric-context route. Parentheses are not critical tokens, so
//! the query can pass the gate and reach the database's SQL parser, which
//! recurses once per level. A stack overflow would abort the whole
//! server process; past its nesting bound the parser must instead return
//! an error, served as an SQL error (or the gate blocks the query).

use joza::core::{Joza, JozaConfig};
use joza::lab::build_lab;
use joza::lab::verify::request_for;

/// Serves the nested parameter at each depth on a thread with the
/// default spawned-thread stack (2 MiB), as a server worker has.
fn serve_nested(depths: &[usize]) {
    let depths = depths.to_vec();
    std::thread::spawn(move || {
        let mut lab = build_lab();
        let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
        let plugin = lab
            .plugins
            .iter()
            .find(|p| p.name == "Allow PHP in posts and pages")
            .expect("lab route")
            .clone();
        for n in depths {
            let value = format!("{}1{}", "(".repeat(n), ")".repeat(n));
            let resp = lab.server.handle_with(&request_for(&plugin, &value), &joza);
            assert!(
                resp.blocked || resp.had_sql_error(),
                "{n} levels: neither blocked nor an SQL error: {}",
                resp.body
            );
        }
    })
    .join()
    .expect("serving thread must not die");
}

#[test]
fn parser_depth_600_levels_are_served_as_an_error() {
    serve_nested(&[600]);
}

#[test]
fn parser_depth_50000_levels_are_served_as_an_error() {
    serve_nested(&[50_000]);
}
