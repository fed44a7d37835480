//! The §V security evaluation.

use joza_core::{Joza, JozaConfig};
use joza_lab::corpus::{AttackType, Exploit, VulnPlugin};
use joza_lab::nti_evasion::mutate_for_nti;
use joza_lab::taintless::evade_pti;
use joza_lab::verify::{exploit_effect_observed, request_for, verify_exploit};
use joza_lab::{build_lab, Lab};
use joza_phpsim::fragments::FragmentSet;
use joza_pti::analyzer::{PtiAnalyzer, PtiConfig};
use joza_webapp::request::HttpRequest;

/// Detection grid for one plugin — a row of Table IV.
#[derive(Debug, Clone)]
pub struct PluginOutcome {
    /// The plugin under test.
    pub plugin: VulnPlugin,
    /// Whether the shipped exploit works against the unprotected app.
    pub exploit_works: bool,
    /// NTI detection of the original exploit.
    pub nti_original: bool,
    /// NTI detection of the NTI-mutated (quote-stuffed) exploit.
    pub nti_mutated: bool,
    /// PTI detection of the original exploit.
    pub pti_original: bool,
    /// PTI detection of the Taintless-mutated exploit. When Taintless
    /// fails to adapt the exploit, the original stands in (and is
    /// detected).
    pub pti_mutated: bool,
    /// Whether Taintless managed to adapt the exploit at all.
    pub taintless_adapted: bool,
    /// Joza (hybrid) detection across original and both mutated exploits.
    pub joza_all: bool,
}

/// The full §V evaluation results.
#[derive(Debug)]
pub struct SecurityEvaluation {
    /// One row per testbed plugin.
    pub plugins: Vec<PluginOutcome>,
    /// One row per CMS case study.
    pub cms: Vec<PluginOutcome>,
}

/// Did the gate stop `plugin`'s request carrying `payload`? Detection
/// means at least one query was not allowed through.
pub fn detected(lab: &mut Lab, joza: &Joza, plugin: &VulnPlugin, payload: &str) -> bool {
    lab.server.handle_with(&request_for(plugin, payload), joza).denied()
}

/// Builds the PTI analyzer over the lab's full fragment vocabulary (used
/// by Taintless to search for evading mutants).
pub fn lab_pti_analyzer(lab: &Lab) -> PtiAnalyzer {
    let set = FragmentSet::from_sources(&lab.server.app.all_sources());
    PtiAnalyzer::from_fragments(set.iter(), PtiConfig::default())
}

/// Runs the complete original/mutated × NTI/PTI/Joza grid.
pub fn evaluate() -> SecurityEvaluation {
    let mut lab = build_lab();
    let nti_only = Joza::install(&lab.server.app, JozaConfig::nti_only());
    let pti_only = Joza::install(&lab.server.app, JozaConfig::pti_only());
    let hybrid = Joza::install(&lab.server.app, JozaConfig::optimized());
    let pti_analyzer = lab_pti_analyzer(&lab);
    let threshold = hybrid.config().nti.threshold;

    let plugins = lab.plugins.clone();
    let cms = lab.cms_cases.clone();
    let mut run = |list: &[VulnPlugin]| -> Vec<PluginOutcome> {
        list.iter()
            .map(|p| {
                let exploit_works = verify_exploit(&mut lab.server, p);
                let original = p.exploit.clone();
                let nti_mut = mutate_for_nti(p, threshold);
                let taintless = evade_pti(&mut lab.server, p, &pti_analyzer);
                let taintless_adapted = taintless.is_some();
                let pti_mut = taintless.map(|e| e.mutated).unwrap_or_else(|| original.clone());

                let nti_original = detected(&mut lab, &nti_only, p, original.primary_payload());
                let nti_mutated = detected(&mut lab, &nti_only, p, nti_mut.primary_payload());
                let pti_original = detected(&mut lab, &pti_only, p, original.primary_payload());
                let pti_mutated = detected(&mut lab, &pti_only, p, pti_mut.primary_payload());
                let joza_all = detected(&mut lab, &hybrid, p, original.primary_payload())
                    && detected(&mut lab, &hybrid, p, nti_mut.primary_payload())
                    && detected(&mut lab, &hybrid, p, pti_mut.primary_payload());
                PluginOutcome {
                    plugin: p.clone(),
                    exploit_works,
                    nti_original,
                    nti_mutated,
                    pti_original,
                    pti_mutated,
                    taintless_adapted,
                    joza_all,
                }
            })
            .collect()
    };
    let plugin_rows = run(&plugins);
    let cms_rows = run(&cms);
    SecurityEvaluation { plugins: plugin_rows, cms: cms_rows }
}

/// The Table II SQLMap sweep: for one plugin per attack type, generate
/// valid payload variants and count detections.
#[derive(Debug, Clone)]
pub struct SqlmapSweep {
    /// Plugin name.
    pub plugin: String,
    /// Attack type.
    pub attack_type: AttackType,
    /// Valid payload variants generated.
    pub generated: usize,
    /// Detected by NTI.
    pub nti_detected: usize,
    /// Detected by PTI.
    pub pti_detected: usize,
}

/// Runs the SQLMap sweep of Table II (one plugin per attack type,
/// `per_plugin` valid variants each).
pub fn sqlmap_sweep(per_plugin: usize) -> Vec<SqlmapSweep> {
    let mut lab = build_lab();
    let nti_only = Joza::install(&lab.server.app, JozaConfig::nti_only());
    let pti_only = Joza::install(&lab.server.app, JozaConfig::pti_only());
    let mut out = Vec::new();
    for ty in [
        AttackType::UnionBased,
        AttackType::StandardBlind,
        AttackType::DoubleBlind,
        AttackType::Tautology,
    ] {
        let plugin = lab
            .plugins
            .iter()
            .find(|p| p.attack_type == ty)
            .expect("corpus covers all types")
            .clone();
        let variants = joza_lab::sqlmap::valid_payloads(&mut lab.server, &plugin, per_plugin);
        let mut nti_detected = 0;
        let mut pti_detected = 0;
        for v in &variants {
            if detected(&mut lab, &nti_only, &plugin, v.primary_payload()) {
                nti_detected += 1;
            }
            if detected(&mut lab, &pti_only, &plugin, v.primary_payload()) {
                pti_detected += 1;
            }
        }
        out.push(SqlmapSweep {
            plugin: plugin.name.clone(),
            attack_type: ty,
            generated: variants.len(),
            nti_detected,
            pti_detected,
        });
    }
    out
}

/// The false-positive sweep (§V-B): crawl the whole site, post random
/// comments, run random searches, exercise every plugin benignly — all
/// behind full Joza — and count blocked requests.
pub fn false_positive_sweep() -> (usize, usize) {
    let mut lab = build_lab();
    let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
    let mut total = 0usize;
    let mut blocked = 0usize;
    let mut run = |req: HttpRequest| {
        let resp = lab.server.handle_with(&req, &joza);
        total += 1;
        if resp.denied() {
            blocked += 1;
        }
    };
    run(HttpRequest::get("index"));
    for p in 1..=40 {
        run(HttpRequest::get("single-post").param("p", &p.to_string()));
    }
    for s in ["lorem", "post", "it's", "a,b,c", "50% off!", "O'Brien", "x AND y", "  padded  "] {
        run(HttpRequest::get("search").param("s", s));
    }
    for (author, text) in [
        ("alice", "nice post!"),
        ("o'brien", "it's genuinely great, isn't it?"),
        ("bob", "I'd say 1+1=2 -- obviously"),
        ("carol", "SELECT your words carefully ;)"),
        ("dave", "union of opinions, or not"),
    ] {
        run(HttpRequest::post("post-comment")
            .param("comment_post_ID", "2")
            .param("author", author)
            .param("comment", text));
    }
    let plugins = lab.plugins.clone();
    for p in &plugins {
        run(request_for(p, &p.benign_value));
    }
    (blocked, total)
}

/// Convenience: does the mutated exploit still *work* unprotected? Used by
/// the Table IV commentary to show the mutations are real attacks.
pub fn mutation_still_works(plugin: &VulnPlugin, exploit: &Exploit) -> bool {
    let mut lab = build_lab();
    exploit_effect_observed(&mut lab.server, plugin, exploit, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_positive_sweep_is_clean() {
        let (blocked, total) = false_positive_sweep();
        assert_eq!(blocked, 0, "false positives on {blocked}/{total} benign requests");
        assert!(total > 90);
    }

    #[test]
    fn nti_mutated_exploits_still_work() {
        let lab = build_lab();
        for p in lab.plugins.iter().take(6) {
            let m = mutate_for_nti(p, 0.20);
            assert!(mutation_still_works(p, &m), "{}: NTI-mutated exploit broken", p.name);
        }
    }
}
