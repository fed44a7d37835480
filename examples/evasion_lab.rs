//! The §V evasion story, replayed end to end (the paper's Figure 6).
//!
//! For one testbed plugin this example shows all four quadrants:
//!
//! 1. the original exploit — detected by both NTI and PTI;
//! 2. the quote-stuffed mutation — evades NTI (the magic-quotes edit
//!    distance blows past any threshold) but PTI catches it;
//! 3. the Taintless mutation — rebuilt from the application's own
//!    fragment vocabulary so PTI passes it, but NTI catches it;
//! 4. Joza (the hybrid) — detects every variant.
//!
//! ```text
//! cargo run --example evasion_lab
//! ```

use joza::core::{Joza, JozaConfig};
use joza::lab::corpus::Exploit;
use joza::lab::nti_evasion::mutate_for_nti;
use joza::lab::taintless::evade_pti;
use joza::lab::verify::{exploit_effect_observed, request_for};
use joza::lab::{build_lab, Lab};
use joza::phpsim::fragments::FragmentSet;
use joza::pti::analyzer::{PtiAnalyzer, PtiConfig};

fn detected(lab: &mut Lab, joza: &Joza, plugin: &joza::lab::VulnPlugin, payload: &str) -> bool {
    let resp = lab.server.handle_with(&request_for(plugin, payload), joza);
    resp.denied()
}

fn main() {
    let mut lab = build_lab();
    let nti_only = Joza::install(&lab.server.app, JozaConfig::nti_only());
    let pti_only = Joza::install(&lab.server.app, JozaConfig::pti_only());
    let hybrid = Joza::install(&lab.server.app, JozaConfig::optimized());
    let threshold = hybrid.config().nti.threshold;

    // Taintless needs the application's fragment vocabulary to search in.
    let mut set = FragmentSet::new();
    for src in lab.server.app.all_sources() {
        set.add_source(src);
    }
    let analyzer = PtiAnalyzer::from_fragments(set.iter(), PtiConfig::default());

    // A tautology plugin makes the PTI evasion visible (short payloads).
    let plugin = lab
        .plugins
        .iter()
        .find(|p| p.name == "A to Z Category Listing")
        .expect("testbed plugin")
        .clone();
    let original = plugin.exploit.primary_payload().to_string();

    println!(
        "plugin: {} v{} — vulnerable parameter {:?}",
        plugin.name, plugin.version, plugin.param
    );
    println!("original exploit payload: {original:?}\n");

    println!("== quadrant A: original exploit ==");
    println!("  NTI detects: {}", detected(&mut lab, &nti_only, &plugin, &original));
    println!("  PTI detects: {}", detected(&mut lab, &pti_only, &plugin, &original));

    println!("\n== quadrant B: Taintless mutation (PTI evasion) ==");
    match evade_pti(&mut lab.server, &plugin, &analyzer) {
        Some(evasion) => {
            let mutated = evasion.mutated.primary_payload().to_string();
            println!("  transforms applied: {:?}", evasion.transforms);
            println!("  mutated payload: {mutated:?}");
            let works = exploit_effect_observed(&mut lab.server, &plugin, &evasion.mutated, None);
            println!("  still a working exploit: {works}");
            println!(
                "  PTI detects: {} (evaded!)",
                detected(&mut lab, &pti_only, &plugin, &mutated)
            );
            println!(
                "  NTI detects: {} (the hybrid's other half)",
                detected(&mut lab, &nti_only, &plugin, &mutated)
            );
            println!("  Joza detects: {}", detected(&mut lab, &hybrid, &plugin, &mutated));
        }
        None => println!("  Taintless could not adapt this exploit (PTI holds)"),
    }

    println!("\n== quadrant C: quote-stuffed mutation (NTI evasion) ==");
    let nti_mutant = mutate_for_nti(&plugin, threshold);
    let mutated = nti_mutant.primary_payload().to_string();
    println!("  mutated payload: {mutated:?}");
    if let Exploit::Leak { .. } = nti_mutant {
        let works = exploit_effect_observed(&mut lab.server, &plugin, &nti_mutant, None);
        println!("  still a working exploit: {works}");
    }
    println!(
        "  NTI detects: {} (evaded when false)",
        detected(&mut lab, &nti_only, &plugin, &mutated)
    );
    println!(
        "  PTI detects: {} (the hybrid's other half)",
        detected(&mut lab, &pti_only, &plugin, &mutated)
    );
    println!("  Joza detects: {}", detected(&mut lab, &hybrid, &plugin, &mutated));

    println!("\nThe complementary failure modes are exactly why the hybrid exists (§III-C).");
}
