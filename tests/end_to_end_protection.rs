//! End-to-end protection across the whole WP-SQLI-LAB testbed: every
//! shipped exploit works against the unprotected application, is stopped
//! by Joza, and the corresponding benign request goes through untouched.

use joza::core::{Joza, JozaConfig};
use joza::lab::verify::{benign_request_clean, request_for, verify_exploit};
use joza::lab::{build_lab, wordpress};

#[test]
fn every_testbed_exploit_works_and_is_blocked() {
    let mut lab = build_lab();
    let joza = Joza::install(&lab.server.app, JozaConfig::optimized());

    let plugins = lab.plugins.clone();
    assert_eq!(plugins.len(), 50);
    for plugin in &plugins {
        // (a) the exploit really works unprotected — observable effect.
        assert!(
            verify_exploit(&mut lab.server, plugin),
            "{}: shipped exploit has no observable effect",
            plugin.name
        );
        // (b) the same attack request is stopped behind Joza.
        let attack = request_for(plugin, plugin.exploit.primary_payload());
        let resp = lab.server.handle_with(&attack, &joza);
        assert!(resp.denied(), "{}: exploit not stopped by Joza", plugin.name);
        assert!(
            !resp.body.contains(wordpress::SECRET_PASSWORD),
            "{}: secret leaked through Joza",
            plugin.name
        );
        // (c) the benign request is served.
        assert!(
            benign_request_clean(&mut lab.server, plugin),
            "{}: benign request broken unprotected",
            plugin.name
        );
        let resp = lab.server.handle_with(&request_for(plugin, &plugin.benign_value), &joza);
        assert!(!resp.blocked, "{}: benign request blocked (false positive)", plugin.name);
        assert_eq!(
            resp.executed,
            resp.queries.len(),
            "{}: benign query error-virtualized (false positive)",
            plugin.name
        );
    }
}

#[test]
fn cms_case_studies_are_protected() {
    let mut lab = build_lab();
    let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
    let cases = lab.cms_cases.clone();
    assert_eq!(cases.len(), 3, "Joomla, Drupal, osCommerce");
    for case in &cases {
        assert!(verify_exploit(&mut lab.server, case), "{}: exploit inert", case.name);
        let resp =
            lab.server.handle_with(&request_for(case, case.exploit.primary_payload()), &joza);
        assert!(resp.denied(), "{}: attack not stopped", case.name);
        let resp = lab.server.handle_with(&request_for(case, &case.benign_value), &joza);
        assert!(!resp.blocked, "{}: benign blocked", case.name);
    }
}

#[test]
fn hybrid_detects_attacks_either_component_misses() {
    // The testbed's base64 plugin (AdRotate) evades NTI; the hybrid must
    // still stop it via PTI.
    let mut lab = build_lab();
    let nti_only = Joza::install(&lab.server.app, JozaConfig::nti_only());
    let hybrid = Joza::install(&lab.server.app, JozaConfig::optimized());
    let adrotate = lab.plugins.iter().find(|p| p.name == "AdRotate").unwrap().clone();
    assert!(adrotate.decodes_base64());

    let attack = request_for(&adrotate, adrotate.exploit.primary_payload());
    let resp = lab.server.handle_with(&attack, &nti_only);
    assert!(!resp.denied(), "NTI alone should miss the base64-encoded exploit");

    let resp = lab.server.handle_with(&attack, &hybrid);
    assert!(resp.denied(), "hybrid must stop it");
}
