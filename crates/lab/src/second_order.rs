//! The second-order (stored) SQL-injection extension of WP-SQLI-LAB.
//!
//! A second-order exploit runs in two phases: a **plant** request stores
//! the payload through a write route where it sits inertly inside a SQL
//! string literal (magic quotes escape the request, SQL literal parsing
//! unescapes on store — the database holds the raw bytes), and a later
//! **trigger** request re-reads the stored value and interpolates it into
//! a new query without escaping, where it finally executes. First-order
//! inference treats each request independently and sees nothing wrong
//! with either one; only a gate that treats values fetched from
//! attacker-reachable cells as taint sources can catch the trigger.
//!
//! Four case classes, each a plant/trigger route pair with its own
//! tables, a working two-phase exploit and a benign round trip:
//!
//! * **stored-profile echo** — a saved profile field is re-quoted into a
//!   lookup on view (quoted-context union leak);
//! * **comment-reply** — a stored author name keys the reply query
//!   (quoted-context tautology leaking a hidden row);
//! * **audit-log replay** — a logged value is replayed into a numeric
//!   context (the payload never even needs a quote, so magic quotes are
//!   a no-op at plant time);
//! * **stacked-query** — a stored preference reaches a numeric context
//!   and smuggles a second statement through the `;` splitter.
//!
//! The base [`crate::build_lab`] corpus is untouched — counts stay
//! pinned; [`build_second_order_lab`] assembles the extended testbed.

use crate::Lab;
use joza_db::{Database, Value};
use joza_webapp::app::Plugin;
use joza_webapp::gate::GateFactory;
use joza_webapp::request::HttpRequest;
use joza_webapp::server::Server;

/// The four second-order case classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecondOrderClass {
    /// Stored profile field echoed into a quoted lookup.
    StoredProfileEcho,
    /// Stored comment author keyed into the reply query.
    CommentReply,
    /// Logged value replayed into a numeric context.
    AuditLogReplay,
    /// Stored preference reaching a numeric context with a stacked
    /// (`;`-separated) payload.
    StackedQuery,
}

impl std::fmt::Display for SecondOrderClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SecondOrderClass::StoredProfileEcho => "stored-profile-echo",
            SecondOrderClass::CommentReply => "comment-reply",
            SecondOrderClass::AuditLogReplay => "audit-log-replay",
            SecondOrderClass::StackedQuery => "stacked-query",
        };
        f.write_str(s)
    }
}

/// One second-order case: a plant route, a trigger route, the two-phase
/// exploit, the benign round trip, and the ground-truth labels the
/// static pass is scored against.
#[derive(Debug, Clone)]
pub struct SecondOrderCase {
    /// Case class.
    pub class: SecondOrderClass,
    /// The write route the payload is planted through.
    pub plant_route: String,
    /// Parameters of the benign plant request.
    pub benign_plant: Vec<(String, String)>,
    /// Parameters of the exploit plant request (payload included).
    pub exploit_plant: Vec<(String, String)>,
    /// The read route that re-interpolates the stored value.
    pub trigger_route: String,
    /// Parameters of the trigger request (identical for benign and
    /// exploit runs — the attack travels through the database).
    pub trigger: Vec<(String, String)>,
    /// Text only a successful exploit can surface in the trigger
    /// response.
    pub leak_marker: String,
    /// Parameters of the PTI-evading plant variant: the payload is a
    /// tautology (or lowercase stacked select) assembled from vocabulary
    /// the application's own sources contain, so payload-oriented taint
    /// inference finds no foreign fragment in the trigger query. Found
    /// empirically — first-order Joza lets the trigger through — and
    /// frozen here; only DB-sourced input capture catches it.
    pub evasive_plant: Vec<(String, String)>,
    /// Text only the evasive variant can surface in the trigger
    /// response.
    pub evasive_marker: String,
    /// Text the benign round trip must echo back bit-identically.
    pub benign_echo: String,
    /// The ground-truth dirty cell the plant writes and the trigger
    /// reads.
    pub cell: (String, String),
}

impl SecondOrderCase {
    /// The plant request carrying `params`.
    fn request(route: &str, params: &[(String, String)], post: bool) -> HttpRequest {
        let mut req = if post { HttpRequest::post(route) } else { HttpRequest::get(route) };
        for (k, v) in params {
            req = req.param(k, v);
        }
        req
    }

    /// The benign plant request.
    pub fn benign_plant_request(&self) -> HttpRequest {
        Self::request(&self.plant_route, &self.benign_plant, true)
    }

    /// The exploit plant request.
    pub fn exploit_plant_request(&self) -> HttpRequest {
        Self::request(&self.plant_route, &self.exploit_plant, true)
    }

    /// The trigger request (same for benign and exploit runs).
    pub fn trigger_request(&self) -> HttpRequest {
        Self::request(&self.trigger_route, &self.trigger, false)
    }

    /// The case rewritten to its PTI-evading variant: the evasive plant
    /// becomes the exploit plant and the evasive marker becomes the leak
    /// marker, so [`verify_second_order_exploit`] and
    /// [`run_two_phase_gated`] exercise the evasive two-phase attack
    /// unchanged.
    pub fn evasive_variant(&self) -> SecondOrderCase {
        let mut c = self.clone();
        c.exploit_plant = self.evasive_plant.clone();
        c.leak_marker = self.evasive_marker.clone();
        c
    }
}

/// The extended testbed: the full base lab plus the second-order cases,
/// their routes and their tables.
pub struct SecondOrderLab {
    /// The lab with second-order plugins routed and tables seeded.
    pub lab: Lab,
    /// The second-order cases.
    pub cases: Vec<SecondOrderCase>,
}

impl SecondOrderLab {
    /// Restores the database to its freshly-seeded state, second-order
    /// tables included.
    pub fn reset_database(&mut self) {
        self.lab.reset_database();
        setup_tables(&mut self.lab.server.db);
    }
}

/// Builds the extended testbed: [`crate::build_lab`] plus the
/// second-order plant/trigger routes and their seeded tables.
pub fn build_second_order_lab() -> SecondOrderLab {
    let mut lab = crate::build_lab();
    for (slug, source) in route_sources() {
        lab.server.app.add_plugin(Plugin::new(slug, "1.0", source));
    }
    setup_tables(&mut lab.server.db);
    SecondOrderLab { lab, cases: second_order_cases() }
}

/// Creates and seeds the second-order tables.
pub fn setup_tables(db: &mut Database) {
    db.create_table("so_profiles", &["id", "bio"]);
    db.insert_row("so_profiles", vec![Value::Int(1), "hello".into()]);
    db.create_table("so_badges", &["id", "name", "bio_tag"]);
    db.insert_row("so_badges", vec![Value::Int(1), "badge-newbie".into(), "hello".into()]);
    db.insert_row("so_badges", vec![Value::Int(99), "HIDDEN-so-badge".into(), "zz-secret".into()]);

    db.create_table("so_comments", &["id", "author", "body"]);
    db.insert_row("so_comments", vec![Value::Int(1), "alice".into(), "first!".into()]);
    db.insert_row(
        "so_comments",
        vec![Value::Int(2), "moderator".into(), "HIDDEN-so-comment".into()],
    );

    db.create_table("so_audit", &["id", "detail"]);
    db.insert_row("so_audit", vec![Value::Int(1), "1".into()]);
    db.create_table("so_items", &["id", "name"]);
    db.insert_row("so_items", vec![Value::Int(1), "item-one".into()]);
    db.insert_row("so_items", vec![Value::Int(2), "item-two".into()]);
    db.insert_row("so_items", vec![Value::Int(99), "HIDDEN-so-item".into()]);

    db.create_table("so_prefs", &["id", "k", "val"]);
    db.insert_row("so_prefs", vec![Value::Int(1), "limit".into(), "1".into()]);
    db.create_table("so_stock", &["id", "name"]);
    db.insert_row("so_stock", vec![Value::Int(1), "stock-one".into()]);
    db.insert_row("so_stock", vec![Value::Int(99), "HIDDEN-so-stock".into()]);
}

/// The `(slug, source)` pairs of every second-order route, plants and
/// triggers, in a stable order.
pub fn route_sources() -> [(&'static str, &'static str); 8] {
    [
        (
            "so-profile-save",
            r#"
            $user = intval($_POST['user']);
            $bio = $_POST['bio'];
            $ok = mysql_query("UPDATE so_profiles SET bio='" . $bio . "' WHERE id=" . $user);
            if ($ok) { echo "profile saved"; } else { echo "save error: ", mysql_error(); }
            "#,
        ),
        (
            "so-profile-view",
            r#"
            $user = intval($_GET['user']);
            $r = mysql_query("SELECT bio FROM so_profiles WHERE id=" . $user);
            $row = mysql_fetch_row($r);
            $bio = $row[0];
            $b = mysql_query("SELECT name FROM so_badges WHERE bio_tag='" . $bio . "'");
            if ($b) {
                while ($badge = mysql_fetch_row($b)) { echo "<b>", $badge[0], "</b>"; }
            } else {
                echo "badge error: ", mysql_error();
            }
            "#,
        ),
        (
            "so-comment-post",
            r#"
            $cid = intval($_POST['cid']);
            $author = $_POST['author'];
            $reply = $_POST['reply'];
            $ok = mysql_query("INSERT INTO so_comments (id, author, body) VALUES (" . $cid . ", '" . $author . "', '" . $reply . "')");
            if ($ok) { echo "comment posted"; } else { echo "post error: ", mysql_error(); }
            "#,
        ),
        (
            "so-comment-thread",
            r#"
            $cid = intval($_GET['c']);
            $r = mysql_query("SELECT author FROM so_comments WHERE id=" . $cid);
            $row = mysql_fetch_row($r);
            $author = $row[0];
            $t = mysql_query("SELECT body FROM so_comments WHERE author='" . $author . "'");
            if ($t) {
                while ($c = mysql_fetch_row($t)) { echo "<li>", $c[0], "</li>"; }
            } else {
                echo "thread error: ", mysql_error();
            }
            "#,
        ),
        (
            "so-audit-log",
            r#"
            $target = $_POST['target'];
            $ok = mysql_query("INSERT INTO so_audit (id, detail) VALUES (99, '" . $target . "')");
            if ($ok) { echo "logged"; } else { echo "log error: ", mysql_error(); }
            "#,
        ),
        (
            "so-audit-replay",
            r#"
            $r = mysql_query("SELECT detail FROM so_audit ORDER BY id DESC LIMIT 1");
            $row = mysql_fetch_row($r);
            $detail = $row[0];
            $i = mysql_query("SELECT name FROM so_items WHERE id=" . $detail);
            if ($i) {
                while ($item = mysql_fetch_row($i)) { echo "<li>", $item[0], "</li>"; }
            } else {
                echo "replay error: ", mysql_error();
            }
            "#,
        ),
        (
            "so-pref-save",
            r#"
            $v = $_POST['value'];
            $ok = mysql_query("UPDATE so_prefs SET val='" . $v . "' WHERE k='limit'");
            if ($ok) { echo "preference saved"; } else { echo "pref error: ", mysql_error(); }
            "#,
        ),
        (
            "so-pref-apply",
            r#"
            $r = mysql_query("SELECT val FROM so_prefs WHERE k='limit'");
            $row = mysql_fetch_row($r);
            $n = $row[0];
            $s = mysql_query("SELECT name FROM so_stock WHERE id=" . $n);
            if ($s) {
                while ($item = mysql_fetch_row($s)) { echo "<li>", $item[0], "</li>"; }
            } else {
                echo "apply error: ", mysql_error();
            }
            "#,
        ),
    ]
}

/// The four labeled second-order cases with their two-phase exploits.
pub fn second_order_cases() -> Vec<SecondOrderCase> {
    let secret = crate::wordpress::SECRET_PASSWORD.to_string();
    let p = |k: &str, v: &str| (k.to_string(), v.to_string());
    vec![
        SecondOrderCase {
            class: SecondOrderClass::StoredProfileEcho,
            plant_route: "so-profile-save".into(),
            benign_plant: vec![p("user", "1"), p("bio", "hello")],
            exploit_plant: vec![
                p("user", "1"),
                p("bio", "x' UNION SELECT user_pass FROM wp_users-- -"),
            ],
            trigger_route: "so-profile-view".into(),
            trigger: vec![p("user", "1")],
            leak_marker: secret.clone(),
            evasive_plant: vec![p("user", "1"), p("bio", "x' OR 'a' = 'a")],
            evasive_marker: "HIDDEN-so-badge".into(),
            benign_echo: "badge-newbie".into(),
            cell: ("so_profiles".into(), "bio".into()),
        },
        SecondOrderCase {
            class: SecondOrderClass::CommentReply,
            plant_route: "so-comment-post".into(),
            benign_plant: vec![p("cid", "7"), p("author", "alice"), p("reply", "nice post")],
            exploit_plant: vec![
                p("cid", "7"),
                p("author", "x' OR 1=1-- -"),
                p("reply", "innocuous"),
            ],
            trigger_route: "so-comment-thread".into(),
            trigger: vec![p("c", "7")],
            leak_marker: "HIDDEN-so-comment".into(),
            evasive_plant: vec![
                p("cid", "7"),
                p("author", "x' OR 'a' = 'a"),
                p("reply", "innocuous"),
            ],
            evasive_marker: "HIDDEN-so-comment".into(),
            benign_echo: "first!".into(),
            cell: ("so_comments".into(), "author".into()),
        },
        SecondOrderCase {
            class: SecondOrderClass::AuditLogReplay,
            plant_route: "so-audit-log".into(),
            benign_plant: vec![p("target", "2")],
            exploit_plant: vec![p("target", "0 UNION SELECT user_pass FROM wp_users-- -")],
            trigger_route: "so-audit-replay".into(),
            trigger: vec![],
            leak_marker: secret.clone(),
            evasive_plant: vec![p("target", "0 OR 1 = 1")],
            evasive_marker: "HIDDEN-so-item".into(),
            benign_echo: "item-two".into(),
            cell: ("so_audit".into(), "detail".into()),
        },
        SecondOrderCase {
            class: SecondOrderClass::StackedQuery,
            plant_route: "so-pref-save".into(),
            benign_plant: vec![p("value", "1")],
            exploit_plant: vec![p("value", "0; SELECT user_pass FROM wp_users WHERE ID=1")],
            trigger_route: "so-pref-apply".into(),
            trigger: vec![],
            leak_marker: secret,
            evasive_plant: vec![p("value", "0; SELECT name FROM so_stock WHERE id=99")],
            evasive_marker: "HIDDEN-so-stock".into(),
            benign_echo: "stock-one".into(),
            cell: ("so_prefs".into(), "val".into()),
        },
    ]
}

/// Runs the two-phase exploit unprotected and reports whether the
/// trigger response leaks the case's marker — the second-order analogue
/// of [`crate::verify::verify_exploit`].
pub fn verify_second_order_exploit(server: &mut Server, case: &SecondOrderCase) -> bool {
    let plant = server.handle(&case.exploit_plant_request());
    let trigger = server.handle(&case.trigger_request());
    !plant.blocked && trigger.body.contains(&case.leak_marker)
}

/// Runs the benign round trip unprotected and reports whether the stored
/// data came back intact (the expected echo, no SQL error, no leak).
pub fn verify_benign_round_trip(server: &mut Server, case: &SecondOrderCase) -> bool {
    let plant = server.handle(&case.benign_plant_request());
    let trigger = server.handle(&case.trigger_request());
    !plant.blocked
        && plant.sql_error.is_none()
        && trigger.sql_error.is_none()
        && trigger.body.contains(&case.benign_echo)
        && !trigger.body.contains(&case.leak_marker)
}

/// The gated two-phase outcome of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoPhaseOutcome {
    /// The plant request was allowed through (every query executed).
    pub plant_allowed: bool,
    /// Some query of the trigger request was denied.
    pub trigger_denied: bool,
    /// The trigger response leaked the marker anyway.
    pub leaked: bool,
}

/// Runs the two-phase exploit behind a gate: plant, then trigger, both
/// through `factory`. A defeated exploit has `trigger_denied && !leaked`.
pub fn run_two_phase_gated(
    server: &mut Server,
    case: &SecondOrderCase,
    factory: &dyn GateFactory,
) -> TwoPhaseOutcome {
    let plant = server.handle_with(&case.exploit_plant_request(), factory);
    let trigger = server.handle_with(&case.trigger_request(), factory);
    TwoPhaseOutcome {
        plant_allowed: !plant.denied(),
        trigger_denied: trigger.denied(),
        leaked: trigger.body.contains(&case.leak_marker),
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::harden::harden_lab;
    use crate::Lab;
    use joza_core::{Joza, JozaConfig};
    use proptest::prelude::*;
    use std::sync::{Mutex, OnceLock};

    /// Shared rig (assembly is expensive; `reset_database` restores all
    /// mutable state between proptest bodies).
    struct Rig {
        so: SecondOrderLab,
        /// Fully-loaded persistence-aware gate: query models + fixpoint
        /// taint-free routes + dirty cells.
        gate: Joza,
        /// Hardened twin of the extended app, second-order tables seeded.
        hardened: Lab,
        /// Routes the hardening pass rewrote.
        rewritten: Vec<String>,
    }

    fn rig() -> &'static Mutex<Rig> {
        static RIG: OnceLock<Mutex<Rig>> = OnceLock::new();
        RIG.get_or_init(|| {
            let so = build_second_order_lab();
            let report = joza_sast::analyze_store_flow(&so.lab.server.app);
            let gate = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
                .query_models(joza_sast::app_query_models(&so.lab.server.app))
                .taint_free_routes(report.taint_free_routes())
                .dirty_cells(report.dirty_cells())
                .build();
            let (mut hardened, harden_report) = harden_lab(&so.lab);
            setup_tables(&mut hardened.server.db);
            let rewritten = harden_report.rewritten_routes();
            Mutex::new(Rig { so, gate, hardened, rewritten })
        })
    }

    /// Deterministic case/whitespace mutation: flips alphabetic case and
    /// doubles spaces per mask bit. SQL keywords are case-insensitive and
    /// whitespace-elastic, so a mutated exploit stays an exploit (or at
    /// worst degrades to foreign text) — it never becomes app vocabulary.
    fn mutate(payload: &str, mask: u8) -> String {
        let mut out = String::new();
        for (i, ch) in payload.chars().enumerate() {
            let bit = (mask >> (i % 8)) & 1 == 1;
            match ch {
                ' ' if bit => out.push_str("  "),
                c if c.is_ascii_alphabetic() && bit => out.push(c.to_ascii_uppercase()),
                c if c.is_ascii_alphabetic() => out.push(c.to_ascii_lowercase()),
                c => out.push(c),
            }
        }
        out
    }

    /// The payload-carrying parameter of a case's exploit plant: the one
    /// whose value differs from the benign plant.
    fn mutate_plant(case: &mut SecondOrderCase, mask: u8) {
        let benign = case.benign_plant.clone();
        for (k, v) in case.exploit_plant.iter_mut() {
            let unchanged = benign.iter().any(|(bk, bv)| bk == k && bv == v);
            if !unchanged {
                *v = mutate(v, mask);
            }
        }
    }

    proptest! {
        /// However the frozen two-phase payloads are re-cased or
        /// re-spaced, the fully-loaded gate never leaks, and the trigger
        /// request never rides the model fast path — the stored payload
        /// always breaks the trigger's statement skeleton.
        #[test]
        fn two_phase_exploits_never_accepted_by_model_fast_path(
            idx in 0usize..4,
            mask in 0u8..255,
            evasive in any::<bool>(),
        ) {
            let mut rig = rig().lock().unwrap();
            let rig = &mut *rig;
            let base = rig.so.cases[idx].clone();
            let mut case = if evasive { base.evasive_variant() } else { base };
            mutate_plant(&mut case, mask);

            rig.so.reset_database();
            let plant = rig.so.lab.server.handle_with(&case.exploit_plant_request(), &rig.gate);
            prop_assert!(!plant.blocked, "{} plant blocked", case.class);
            let before = rig.gate.stats();
            let trigger = rig.so.lab.server.handle_with(&case.trigger_request(), &rig.gate);
            let after = rig.gate.stats();
            prop_assert!(
                !trigger.body.contains(&case.leak_marker),
                "{} leaked through the gate (mask {mask:#x})",
                case.class
            );
            prop_assert!(
                trigger.denied(),
                "{} trigger fully accepted (mask {mask:#x})",
                case.class
            );
            // The trigger's constant load query may legitimately ride the
            // model fast path; the payload-carrying sink query never can —
            // the stored bytes break its statement skeleton.
            prop_assert!(
                after.model_fast_hits - before.model_fast_hits < trigger.queries.len() as u64,
                "{} every trigger query was model-fast-accepted (mask {:#x})",
                case.class, mask
            );
        }

        /// Benign stored data round-trips bit-identically through the
        /// hardened (prepared-statement) routes: whatever the original
        /// app handles cleanly, the rewritten app must answer with the
        /// same plant and trigger bytes.
        #[test]
        fn benign_round_trips_are_bit_identical_through_hardened_routes(
            value in "[a-zA-Z0-9 ]{0,12}",
            idx in 0usize..4,
        ) {
            let mut rig = rig().lock().unwrap();
            let rig = &mut *rig;
            let case = rig.so.cases[idx].clone();
            if !rig.rewritten.contains(&case.plant_route)
                || !rig.rewritten.contains(&case.trigger_route)
            {
                continue; // route deliberately skipped by the rewriter
            }
            let mut benign = case.clone();
            mutate_plant(&mut benign, 0);
            for (k, v) in benign.exploit_plant.iter_mut() {
                let unchanged = case.benign_plant.iter().any(|(bk, bv)| bk == k && bv == v);
                if !unchanged {
                    *v = value.clone();
                }
            }

            // Bit-identity is owed on inputs the original handles cleanly.
            rig.so.reset_database();
            let plant_a = rig.so.lab.server.handle(&benign.exploit_plant_request());
            let trigger_a = rig.so.lab.server.handle(&benign.trigger_request());
            if plant_a.sql_error.is_some() || trigger_a.sql_error.is_some() {
                continue;
            }

            rig.hardened.reset_database();
            setup_tables(&mut rig.hardened.server.db);
            let plant_b = rig.hardened.server.handle(&benign.exploit_plant_request());
            let trigger_b = rig.hardened.server.handle(&benign.trigger_request());
            prop_assert_eq!(
                &plant_a.body, &plant_b.body,
                "{} plant diverged for {:?}", case.class, value
            );
            prop_assert_eq!(
                &trigger_a.body, &trigger_b.body,
                "{} trigger diverged for {:?}", case.class, value
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_routes_are_routable_and_tables_seeded() {
        let so = build_second_order_lab();
        for case in &so.cases {
            assert!(so.lab.server.app.plugin(&case.plant_route).is_some(), "{}", case.plant_route);
            assert!(
                so.lab.server.app.plugin(&case.trigger_route).is_some(),
                "{}",
                case.trigger_route
            );
            assert!(so.lab.server.db.table(&case.cell.0).is_some(), "{}", case.cell.0);
        }
        assert_eq!(so.cases.len(), 4);
    }

    #[test]
    fn all_two_phase_exploits_work_unprotected() {
        let mut so = build_second_order_lab();
        for case in so.cases.clone() {
            so.reset_database();
            assert!(
                verify_second_order_exploit(&mut so.lab.server, &case),
                "{} exploit failed unprotected",
                case.class
            );
        }
    }

    #[test]
    fn all_benign_round_trips_are_clean() {
        let mut so = build_second_order_lab();
        for case in so.cases.clone() {
            so.reset_database();
            assert!(
                verify_benign_round_trip(&mut so.lab.server, &case),
                "{} benign round trip broken",
                case.class
            );
        }
    }

    #[test]
    fn all_evasive_variants_work_unprotected() {
        let mut so = build_second_order_lab();
        for case in so.cases.clone() {
            so.reset_database();
            assert!(
                verify_second_order_exploit(&mut so.lab.server, &case.evasive_variant()),
                "{} evasive variant failed unprotected",
                case.class
            );
        }
    }

    #[test]
    fn evasive_variants_defeat_first_order_inference_but_not_db_capture() {
        use joza_core::{Joza, JozaConfig};
        let mut so = build_second_order_lab();
        let report = joza_sast::analyze_store_flow(&so.lab.server.app);
        let first_order = Joza::installer(&so.lab.server.app, JozaConfig::optimized()).build();
        let persistence_aware = Joza::installer(&so.lab.server.app, JozaConfig::optimized())
            .taint_free_routes(report.taint_free_routes())
            .dirty_cells(report.dirty_cells())
            .build();
        for case in so.cases.clone() {
            let evasive = case.evasive_variant();
            // First-order inference sees only app-vocabulary fragments in
            // the trigger query and no matching request input: the attack
            // goes through.
            so.reset_database();
            let miss = run_two_phase_gated(&mut so.lab.server, &evasive, &first_order);
            assert!(miss.plant_allowed, "{} evasive plant blocked first-order", case.class);
            assert!(
                !miss.trigger_denied && miss.leaked,
                "{} evasive variant no longer evades first-order inference",
                case.class
            );
            // DB-sourced input capture hands the stored payload to NTI
            // verbatim: the trigger is denied and nothing leaks.
            so.reset_database();
            let hit = run_two_phase_gated(&mut so.lab.server, &evasive, &persistence_aware);
            assert!(hit.plant_allowed, "{} evasive plant blocked", case.class);
            assert!(
                hit.trigger_denied && !hit.leaked,
                "{} evasive variant not defeated by db capture",
                case.class
            );
        }
    }

    #[test]
    fn base_lab_counts_stay_pinned() {
        let so = build_second_order_lab();
        assert_eq!(so.lab.plugins.len(), 50);
        assert_eq!(so.lab.cms_cases.len(), 3);
    }
}
