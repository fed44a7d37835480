//! Exploit verification and attack harness.
//!
//! An exploit only counts if it *works*: running it against the
//! unprotected application must produce the observable effect of its
//! class (a leaked secret, a boolean differential, a timing
//! differential). The security-evaluation binaries use the same helpers
//! with a Joza gate installed to decide "detected / not detected".

use crate::corpus::{Exploit, VulnPlugin};
use joza_webapp::gate::GateFactory;
use joza_webapp::request::HttpRequest;
use joza_webapp::server::{Response, Server};

/// Builds the request delivering `value` to the plugin's vulnerable
/// parameter.
///
/// For [array-key plugins](VulnPlugin::payload_in_array_key) (the Drupal
/// expandArguments channel), `value` travels as the *key* of the second
/// array element — `ids[0]=1&ids[VALUE]=2` — matching the public
/// CVE-2014-3704 proof of concept.
pub fn request_for(plugin: &VulnPlugin, value: &str) -> HttpRequest {
    let req = if plugin.via_post {
        HttpRequest::post(&plugin.slug)
    } else {
        HttpRequest::get(&plugin.slug)
    };
    if plugin.payload_in_array_key {
        req.param(&format!("{}[0]", plugin.param), "1")
            .param(&format!("{}[{}]", plugin.param, value), "2")
    } else {
        req.param(&plugin.param, value)
    }
}

/// Runs the plugin unprotected with the given parameter value.
pub fn run_plain(server: &mut Server, plugin: &VulnPlugin, value: &str) -> Response {
    server.handle(&request_for(plugin, value))
}

/// Runs the plugin behind a protection engine: every query of the request
/// goes through a gate session opened on `factory`.
pub fn run_gated(
    server: &mut Server,
    plugin: &VulnPlugin,
    value: &str,
    factory: &dyn GateFactory,
) -> Response {
    server.handle_with(&request_for(plugin, value), factory)
}

/// Verifies that the plugin's shipped exploit works against the
/// *unprotected* application.
pub fn verify_exploit(server: &mut Server, plugin: &VulnPlugin) -> bool {
    exploit_effect_observed(server, plugin, &plugin.exploit, None)
}

/// Checks whether an exploit's observable effect occurs, optionally behind
/// a gate. With a gate installed, a return of `false` means the defense
/// *prevented* the attack.
pub fn exploit_effect_observed(
    server: &mut Server,
    plugin: &VulnPlugin,
    exploit: &Exploit,
    gate: Option<&dyn GateFactory>,
) -> bool {
    let mut run = |value: &str| -> Response {
        match gate {
            Some(f) => run_gated(server, plugin, value, f),
            None => run_plain(server, plugin, value),
        }
    };
    match exploit {
        Exploit::Leak { payload, leak_marker } => {
            let attacked = run(payload);
            attacked.body.contains(leak_marker)
        }
        Exploit::BooleanDiff { true_payload, false_payload } => {
            let t = run(true_payload);
            let f = run(false_payload);
            // Both must complete as normal pages (a blocked/blank page is
            // not a usable oracle) and differ observably.
            !t.blocked && !f.blocked && t.body != f.body
        }
        Exploit::TimingDiff { slow_payload, fast_payload, min_delay_ms } => {
            let s = run(slow_payload);
            let f = run(fast_payload);
            !s.blocked && !f.blocked && s.db_time_ms.saturating_sub(f.db_time_ms) >= *min_delay_ms
        }
    }
}

/// Sanity check: the benign request renders without SQL errors and without
/// leaking anything (used by the false-positive sweep).
pub fn benign_request_clean(server: &mut Server, plugin: &VulnPlugin) -> bool {
    let resp = run_plain(server, plugin, &plugin.benign_value);
    resp.sql_error.is_none() && !resp.body.starts_with("404")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_lab;
    use crate::corpus::AttackType;

    #[test]
    fn all_50_exploits_work_unprotected() {
        let mut lab = build_lab();
        let mut failures = Vec::new();
        for p in lab.plugins.clone() {
            if !verify_exploit(&mut lab.server, &p) {
                failures.push(p.name.clone());
            }
        }
        assert!(failures.is_empty(), "exploits failed: {failures:?}");
    }

    #[test]
    fn all_cms_exploits_work_unprotected() {
        let mut lab = build_lab();
        for p in lab.cms_cases.clone() {
            assert!(verify_exploit(&mut lab.server, &p), "{} exploit failed", p.name);
        }
    }

    #[test]
    fn all_benign_requests_clean() {
        let mut lab = build_lab();
        for p in lab.plugins.clone().iter().chain(lab.cms_cases.clone().iter()) {
            assert!(benign_request_clean(&mut lab.server, p), "{} benign broken", p.name);
        }
    }

    #[test]
    fn union_exploits_leak_the_wp_users_secret() {
        let mut lab = build_lab();
        for p in lab.plugins.clone() {
            if p.attack_type == AttackType::UnionBased {
                let resp = run_plain(&mut lab.server, &p, p.exploit.primary_payload());
                assert!(
                    resp.body.contains(crate::wordpress::SECRET_PASSWORD),
                    "{} union exploit did not leak: {}",
                    p.name,
                    resp.body
                );
            }
        }
    }

    #[test]
    fn benign_never_leaks() {
        let mut lab = build_lab();
        for p in lab.plugins.clone() {
            let resp = run_plain(&mut lab.server, &p, &p.benign_value);
            assert!(!resp.body.contains(crate::wordpress::SECRET_PASSWORD), "{}", p.name);
            assert!(!resp.body.contains(&p.hidden_marker()), "{}", p.name);
        }
    }
}

#[cfg(test)]
mod array_key_tests {
    use super::*;
    use crate::build_lab;

    #[test]
    fn array_key_plugins_build_bracket_requests() {
        let lab = build_lab();
        let drupal = lab.cms_cases.iter().find(|c| c.payload_in_array_key).unwrap();
        let req = request_for(drupal, "KEYPAYLOAD");
        let names: Vec<&str> = req.get.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"ids[0]"));
        assert!(names.contains(&"ids[KEYPAYLOAD]"));
        // The bracket key surfaces as a raw input for NTI.
        let inputs = req.all_inputs();
        assert!(
            inputs.iter().any(|(_, _, v)| v == "KEYPAYLOAD"),
            "bracket key must be captured as input: {inputs:?}"
        );
    }

    #[test]
    fn value_plugins_unaffected_by_array_channel() {
        let lab = build_lab();
        let plain = lab.plugins.iter().find(|p| !p.payload_in_array_key).unwrap();
        let req = request_for(plain, "v");
        let all = if plain.via_post { &req.post } else { &req.get };
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], (plain.param.clone(), "v".to_string()));
    }
}
