#![warn(missing_docs)]
//! WP-SQLI-LAB: the Joza paper's security testbed, reproduced (§V).
//!
//! "To evaluate Joza's security, we created WP-SQLI-LAB, an open-source
//! security testbed consisting of a recent Wordpress version packaged with
//! 50 plugins publicly reported to be vulnerable to SQL injection
//! attacks."
//!
//! This crate assembles:
//!
//! * [`wordpress`] — a simulated WordPress: core PHP-subset sources (the
//!   fragment vocabulary of Table III), the standard `wp_*` schema with
//!   seed content, and the read/write/search routes used by the
//!   performance evaluation (§VI);
//! * [`corpus`] — the 50 vulnerable plugins of Table IV (names, versions,
//!   CVE/OSVDB ids, attack-type mix of Table I), each with working
//!   PHP-subset source, a working exploit, and a benign request;
//! * [`cms`] — the Joomla / Drupal / osCommerce case studies (§V-B);
//! * [`verify`] — exploit verification: runs a plugin unprotected and
//!   checks the *observable* attack effect (leaked marker, boolean
//!   differential, timing differential);
//! * [`sqlmap`] — a SQLMap-style payload-variant generator (Table II's
//!   160-exploit row);
//! * [`taintless`] — the paper's automated PTI-evasion tool (§V-A);
//! * [`nti_evasion`] — quote-stuffing / whitespace-padding NTI mutations
//!   (§V-A).
//!
//! # Examples
//!
//! ```
//! use joza_lab::{build_lab, verify::verify_exploit};
//!
//! let mut lab = build_lab();
//! let plugin = lab.plugins[0].clone();
//! // Every shipped exploit actually works against the unprotected app.
//! assert!(verify_exploit(&mut lab.server, &plugin));
//! ```

pub mod cms;
pub mod corpus;
pub mod harden;
pub mod nti_evasion;
pub mod second_order;
pub mod serve;
pub mod sqlmap;
pub mod taintless;
pub mod verify;
pub mod wordpress;

pub use corpus::{AttackType, Exploit, VulnPlugin};
pub use serve::{serve_parallel, ParallelRun};

use joza_webapp::server::Server;

/// The assembled testbed: a server (WordPress + all plugins + seeded
/// database) and the plugin corpus metadata.
pub struct Lab {
    /// Server over the full application.
    pub server: Server,
    /// The 50 vulnerable plugins.
    pub plugins: Vec<VulnPlugin>,
    /// The three CMS case studies (§V-B).
    pub cms_cases: Vec<VulnPlugin>,
}

impl std::fmt::Debug for Lab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lab").field("plugins", &self.plugins.len()).finish_non_exhaustive()
    }
}

impl Lab {
    /// Restores the database to its freshly-seeded state (schema + seed
    /// rows for WordPress and every plugin). Measurement passes call this
    /// so accumulated writes from earlier passes cannot skew later ones.
    pub fn reset_database(&mut self) {
        let mut db = wordpress::wordpress_database();
        for p in self.plugins.iter().chain(self.cms_cases.iter()) {
            p.setup_tables(&mut db);
        }
        self.server.db = db;
    }
}

/// The routable WordPress core pages, all free of SQL injection: `index`
/// takes no input, `single-post` casts its only input with `intval`, and
/// `post-comment` / `search` concatenate quoted string parameters that
/// the framework's magic-quotes pipeline escapes before plugin code runs.
pub const CLEAN_CORE_ROUTES: [&str; 4] = ["index", "single-post", "post-comment", "search"];

/// Ground-truth vulnerability labels for every routable endpoint of the
/// testbed, as `(route, vulnerable)` pairs sorted by route.
///
/// The 50 corpus plugins and the 3 CMS case studies each ship a working,
/// verified exploit — vulnerable by construction. The core routes are
/// clean ([`CLEAN_CORE_ROUTES`]): static reports are scored against these
/// labels (flagged+vulnerable = TP, flagged+clean = FP, unflagged+
/// vulnerable = FN).
pub fn ground_truth(lab: &Lab) -> Vec<(String, bool)> {
    let mut out: Vec<(String, bool)> =
        CLEAN_CORE_ROUTES.iter().map(|r| (r.to_string(), false)).collect();
    out.extend(lab.plugins.iter().chain(lab.cms_cases.iter()).map(|p| (p.slug.clone(), true)));
    out.sort();
    out
}

/// Routes whose statically inferred query models are expected to be
/// *incomplete*: `joza_sast::app_query_models` must leave at least one
/// sink unmodeled there, so the gate treats a non-matching query as
/// ordinary (model-unknown) rather than as a structural anomaly.
///
/// The only such route today is the Drupal case study: its `db_query`
/// call passes a placeholder-arguments array, and Drupal's
/// `expandArguments` splices array *keys* into the statement text
/// (CVE-2014-3704) — the rewritten text is not derivable from the call
/// site, so the model pass soundly tops out.
pub const MODEL_INCOMPLETE_ROUTES: [&str; 1] = ["drupal-core"];

/// Ground-truth query-model completeness labels for every routable
/// endpoint, as `(route, expected_complete)` pairs sorted by route.
///
/// Every endpoint in the testbed builds its queries from literals and
/// scalar request inputs through builtins the model pass understands
/// (`intval`, `trim`, `stripslashes`, `base64_decode`, fetch loops), so
/// all routes are expected complete except [`MODEL_INCOMPLETE_ROUTES`].
/// `joza_sast::app_query_models` is scored against these labels: an
/// expected-complete route that comes back incomplete forfeits the fast
/// path (a model-precision regression), while an expected-incomplete
/// route that comes back complete would raise false structural
/// anomalies (a soundness bug).
pub fn model_ground_truth(lab: &Lab) -> Vec<(String, bool)> {
    ground_truth(lab)
        .into_iter()
        .map(|(route, _)| {
            let complete = !MODEL_INCOMPLETE_ROUTES.contains(&route.as_str());
            (route, complete)
        })
        .collect()
}

/// Builds the full WP-SQLI-LAB testbed.
pub fn build_lab() -> Lab {
    let plugins = corpus::corpus();
    let cms_cases = cms::cms_cases();
    let mut app = wordpress::wordpress_app();
    for p in plugins.iter().chain(cms_cases.iter()) {
        app.add_plugin(joza_webapp::app::Plugin::new(&p.slug, &p.version, &p.source));
    }
    let mut db = wordpress::wordpress_database();
    for p in plugins.iter().chain(cms_cases.iter()) {
        p.setup_tables(&mut db);
    }
    Lab { server: Server::new(app, db), plugins, cms_cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_assembles() {
        let lab = build_lab();
        assert_eq!(lab.plugins.len(), 50);
        assert_eq!(lab.cms_cases.len(), 3);
        assert!(lab.server.app.plugin_count() >= 53);
    }

    #[test]
    fn ground_truth_covers_every_route_once() {
        let lab = build_lab();
        let gt = ground_truth(&lab);
        assert_eq!(gt.len(), 4 + 50 + 3);
        let mut routes: Vec<&str> = gt.iter().map(|(r, _)| r.as_str()).collect();
        routes.dedup();
        assert_eq!(routes.len(), gt.len(), "duplicate routes in ground truth");
        assert_eq!(gt.iter().filter(|(_, v)| !v).count(), 4);
        for (route, _) in &gt {
            assert!(lab.server.app.plugin(route).is_some(), "unroutable label {route}");
        }
    }

    #[test]
    fn model_ground_truth_covers_every_route() {
        let lab = build_lab();
        let mgt = model_ground_truth(&lab);
        assert_eq!(mgt.len(), 4 + 50 + 3);
        assert_eq!(mgt.iter().filter(|(_, c)| !c).count(), MODEL_INCOMPLETE_ROUTES.len());
        for incomplete in MODEL_INCOMPLETE_ROUTES {
            assert!(mgt.iter().any(|(r, c)| r == incomplete && !c));
        }
    }

    #[test]
    fn attack_type_distribution_matches_table1() {
        use corpus::AttackType::*;
        let lab = build_lab();
        let count =
            |t: corpus::AttackType| lab.plugins.iter().filter(|p| p.attack_type == t).count();
        assert_eq!(count(UnionBased), 15);
        assert_eq!(count(StandardBlind), 17);
        assert_eq!(count(DoubleBlind), 14);
        assert_eq!(count(Tautology), 4);
    }
}
