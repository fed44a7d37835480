//! The §III-A / §V-A evasion mechanics, verified end to end: each evasion
//! really defeats the targeted component *and* still works as an attack,
//! and the hybrid stops all of them.

use joza::core::{Joza, JozaConfig};
use joza::lab::nti_evasion::{mutate_for_nti, quotes_needed};
use joza::lab::taintless::evade_pti;
use joza::lab::verify::{exploit_effect_observed, request_for};
use joza::lab::{build_lab, Lab, VulnPlugin};
use joza::phpsim::fragments::FragmentSet;
use joza::pti::analyzer::{PtiAnalyzer, PtiConfig};

fn detected(lab: &mut Lab, joza: &Joza, plugin: &VulnPlugin, payload: &str) -> bool {
    let resp = lab.server.handle_with(&request_for(plugin, payload), joza);
    resp.denied()
}

#[test]
fn quote_stuffing_defeats_nti_at_any_threshold() {
    // §V-A: "Regardless of the threshold used by NTI for determining a
    // match, an attacker can evade NTI by simply adding enough quotes."
    let mut lab = build_lab();
    let plugin = lab.plugins.iter().find(|p| p.name == "A to Z Category Listing").unwrap().clone();
    for threshold in [0.10, 0.20, 0.30, 0.40] {
        let mut cfg = JozaConfig::nti_only();
        cfg.nti.threshold = threshold;
        let nti = Joza::install(&lab.server.app, cfg);
        let mutated = mutate_for_nti(&plugin, threshold);
        assert!(
            exploit_effect_observed(&mut lab.server, &plugin, &mutated, None),
            "threshold {threshold}: mutation no longer a working exploit"
        );
        assert!(
            !detected(&mut lab, &nti, &plugin, mutated.primary_payload()),
            "threshold {threshold}: quote-stuffed payload should evade NTI"
        );
    }
}

#[test]
fn quotes_needed_grows_with_threshold() {
    // The number of stuffed quotes needed is monotone in the threshold —
    // raising the threshold is not a remedy.
    let n10 = quotes_needed(20, 0.10);
    let n20 = quotes_needed(20, 0.20);
    let n40 = quotes_needed(20, 0.40);
    assert!(n10 <= n20 && n20 <= n40);
    assert!(n40 > 0);
}

#[test]
fn taintless_mutants_use_only_program_vocabulary() {
    let mut lab = build_lab();
    let mut set = FragmentSet::new();
    for src in lab.server.app.all_sources() {
        set.add_source(src);
    }
    let analyzer = PtiAnalyzer::from_fragments(set.iter(), PtiConfig::default());
    let plugins = lab.plugins.clone();
    let mut adapted = 0;
    for plugin in &plugins {
        if let Some(evasion) = evade_pti(&mut lab.server, plugin, &analyzer) {
            adapted += 1;
            // The mutant still works as an exploit…
            assert!(
                exploit_effect_observed(&mut lab.server, plugin, &evasion.mutated, None),
                "{}: Taintless mutant is not a working exploit",
                plugin.name
            );
            // …and by construction its critical tokens are fragment-covered.
            let pti_only = Joza::install(&lab.server.app, JozaConfig::pti_only());
            assert!(
                !detected(&mut lab, &pti_only, plugin, evasion.mutated.primary_payload()),
                "{}: Taintless mutant should evade PTI",
                plugin.name
            );
        }
    }
    // The paper adapts 13/50 testbed exploits (14/53 with CMS cases);
    // reproduce the same order of magnitude.
    assert!((8..=25).contains(&adapted), "Taintless adapted {adapted}/50");
}

#[test]
fn hybrid_stops_every_mutant() {
    let mut lab = build_lab();
    let hybrid = Joza::install(&lab.server.app, JozaConfig::optimized());
    let threshold = hybrid.config().nti.threshold;
    let mut set = FragmentSet::new();
    for src in lab.server.app.all_sources() {
        set.add_source(src);
    }
    let analyzer = PtiAnalyzer::from_fragments(set.iter(), PtiConfig::default());

    let plugins = lab.plugins.clone();
    for plugin in &plugins {
        let nti_mut = mutate_for_nti(plugin, threshold);
        assert!(
            detected(&mut lab, &hybrid, plugin, nti_mut.primary_payload()),
            "{}: hybrid missed the NTI-evasion mutant",
            plugin.name
        );
        if let Some(evasion) = evade_pti(&mut lab.server, plugin, &analyzer) {
            assert!(
                detected(&mut lab, &hybrid, plugin, evasion.mutated.primary_payload()),
                "{}: hybrid missed the Taintless mutant",
                plugin.name
            );
        }
    }
}

#[test]
fn combined_evasion_attempt_fails() {
    // Figure 6D: stacking the NTI evasion (quote-stuffed comment) on top
    // of a Taintless-adapted payload is self-defeating — the comment block
    // is not a program fragment, so PTI flags it.
    let mut lab = build_lab();
    let hybrid = Joza::install(&lab.server.app, JozaConfig::optimized());
    let plugin = lab.plugins.iter().find(|p| p.name == "A to Z Category Listing").unwrap().clone();
    // Taintless form of the tautology (spaced equals) + stuffed comment.
    let combined = "1/*'''''''''*/OR 1 = 1";
    assert!(
        detected(&mut lab, &hybrid, &plugin, combined),
        "hybrid must stop the combined evasion"
    );
}
