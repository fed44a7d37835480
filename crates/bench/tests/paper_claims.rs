//! The paper's deterministic claims, checked through the `paper` library:
//! every section whose claims do not rest on wall-clock time runs here,
//! and none of its gated claims may fail.

use joza_bench::paper::{Paper, SECTIONS};

#[test]
fn every_untimed_gated_claim_holds() {
    let mut paper = Paper::default();
    let mut claims = Vec::new();
    for section in SECTIONS.iter().filter(|s| !s.timed) {
        let report = paper.run(section);
        assert!(!report.text.is_empty(), "{} rendered nothing", section.name);
        claims.extend(report.claims);
    }
    let gated: Vec<_> = claims.iter().filter(|c| c.gated).collect();
    let failed: Vec<_> = gated.iter().filter(|c| !c.holds).collect();
    assert!(failed.is_empty(), "failed gated claims: {failed:#?}");
    // Tables I-IV, the threshold and policy ablations and the static
    // report gate 18 claims between them; a dropped one fails here.
    assert_eq!(gated.len(), 18, "gated claims: {gated:#?}");
}
