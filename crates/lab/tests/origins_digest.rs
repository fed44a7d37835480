//! Result-column provenance over the whole lab, pinned by digest.
//!
//! Every request of the lab's corpora — the benign corpus, each plugin's
//! exploit and benign value, and the second-order lab's benign, exploit
//! and evasive plant/trigger flows — runs on the lab server. Each query
//! the application attempted is then replayed, in order, on a second copy
//! of the seeded database, and the `origins` of every result (`None` for
//! a failed statement, empty for a write) are rendered with `Debug` and
//! hashed with 64-bit FNV-1a. The replay database sees exactly the
//! statements the server's did, so its results are the served ones; only
//! prepared statements, whose bound values the query list does not carry,
//! replay as unbound text.
//!
//! A change to how `joza_db` attributes result columns to stored cells
//! moves a digest; a change that means to do so updates the constant here
//! and says why.

use joza_db::Database;
use joza_lab::harden::benign_corpus;
use joza_lab::second_order::build_second_order_lab;
use joza_lab::verify::request_for;
use joza_lab::{build_lab, Lab};
use joza_webapp::request::HttpRequest;

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Serves `req` on `lab` and replays its attempted queries on `replay`,
/// appending one `Debug` line of origins per query to `out`. Returns how
/// many replayed results projected at least one column.
fn record(lab: &mut Lab, replay: &mut Database, req: &HttpRequest, out: &mut String) -> usize {
    let mut selects = 0;
    for sql in lab.server.handle(req).queries {
        let origins = replay.execute(&sql).ok().map(|r| r.origins);
        selects += usize::from(origins.as_ref().is_some_and(|o| !o.is_empty()));
        out.push_str(&format!("{origins:?}\n"));
    }
    selects
}

#[test]
fn lab_origins_are_unchanged() {
    let (mut lab, mut replay) = (build_lab(), build_lab());
    let mut out = String::new();
    let mut selects = 0;
    for req in benign_corpus(&lab) {
        selects += record(&mut lab, &mut replay.server.db, &req, &mut out);
    }
    let plugins: Vec<_> = lab.plugins.iter().chain(lab.cms_cases.iter()).cloned().collect();
    for p in &plugins {
        lab.reset_database();
        replay.reset_database();
        for value in [p.exploit.primary_payload(), p.benign_value.as_str()] {
            selects += record(&mut lab, &mut replay.server.db, &request_for(p, value), &mut out);
        }
    }
    assert!(selects > 100, "only {selects} results projected a column");
    assert_eq!(fnv1a(&out), 0xa242_d887_88da_ccac);
}

#[test]
fn second_order_origins_are_unchanged() {
    let (mut so, mut replay) = (build_second_order_lab(), build_second_order_lab());
    let mut out = String::new();
    let mut selects = 0;
    for case in so.cases.clone() {
        let evasive = case.evasive_variant();
        for (plant, trigger) in [
            (case.benign_plant_request(), case.trigger_request()),
            (case.exploit_plant_request(), case.trigger_request()),
            (evasive.exploit_plant_request(), evasive.trigger_request()),
        ] {
            so.reset_database();
            replay.reset_database();
            for req in [plant, trigger] {
                selects += record(&mut so.lab, &mut replay.lab.server.db, &req, &mut out);
            }
        }
    }
    assert!(selects >= so.cases.len() * 3, "only {selects} results projected a column");
    assert_eq!(fnv1a(&out), 0xda6c_44d6_64a1_2e85);
}
