#![warn(missing_docs)]
//! Static taint analysis over phpsim ASTs (`joza-sast`).
//!
//! Joza's dynamic detectors (NTI + PTI) pay a per-query matching cost at
//! runtime even for endpoints whose queries can never carry user input.
//! This crate analyzes endpoint source *ahead of time*: it models the
//! request superglobals as sources, the `mysql_query`-family builtins as
//! sinks, and the escaping/casting builtins as sanitizers, then runs an
//! abstract interpretation to a fixpoint over the taint lattice
//! `Untainted < MaybeTainted < Tainted` with per-source provenance. The
//! taint pass, the query-model pass ([`querymodel`]) and the hardening
//! pass ([`harden`]) are three value domains of one walker, so they agree
//! on every call site and source, and the rewrite sees exactly the sinks
//! the model that licenses it saw.
//!
//! Outputs:
//!
//! * a [`TaintSummary`] per endpoint — `taint_free` endpoints can be
//!   allowed by the engine's static fast-path stage
//!   (`joza_core::StageId::StaticFastPath`) without running the dynamic
//!   detectors at all;
//! * deterministic [`Finding`]s (source→sink traces with AST spans) that
//!   the `paper` binary's `sast` section compares against the lab
//!   corpus's known ground truth;
//! * per-route query models ([`app_query_models`]) and hardened sources
//!   ([`harden_app`]: every sink of a completely modeled route rewritten
//!   to a prepared `db_query` call, or a [`SkipReason`]).
//!
//! The app-level passes ([`app_query_models`], [`analyze_app`],
//! [`analyze_store_flow`], [`harden_app`], [`unparameterized_sink_lint`])
//! read each route's parse from the application
//! (`joza_webapp::WebApp::parsed`), so a deployment parses every route
//! once however many passes it runs; [`infer_source`], [`analyze_source`]
//! and [`harden_source`] are the same analyses on source text. The
//! cross-route fixpoint re-runs a route's taint pass only when the dirty
//! cells it reads change.
//!
//! The fast-path contract is deliberately one-sided: `taint_free` must
//! never be true for an endpoint whose queries can carry attacker bytes
//! (soundness); false positives (a clean endpoint the analysis cannot
//! prove clean) merely forfeit the speedup.
//!
//! # Examples
//!
//! ```
//! use joza_sast::{analyze_source, AnalyzerConfig, Taint};
//!
//! let vulnerable = r#"
//!     $id = $_GET['id'];
//!     mysql_query("SELECT * FROM posts WHERE ID=$id");
//! "#;
//! let summary = analyze_source("demo", vulnerable, &AnalyzerConfig::default());
//! assert!(!summary.taint_free);
//! assert_eq!(summary.findings[0].taint, Taint::Tainted);
//! assert_eq!(summary.findings[0].sources, vec!["$_GET['id']".to_string()]);
//!
//! let clean = r#"
//!     $id = intval($_GET['id']);
//!     mysql_query("SELECT * FROM posts WHERE ID=$id");
//! "#;
//! assert!(analyze_source("demo", clean, &AnalyzerConfig::default()).taint_free);
//! ```

mod absint;
pub mod analyzer;
pub mod harden;
pub mod lattice;
pub mod querymodel;
pub mod report;
pub mod storeflow;
pub mod summaries;

pub use analyzer::{analyze_source, AnalyzerConfig, Finding, TaintSummary};
pub use harden::{
    harden_app, harden_source, unparameterized_sink_lint, HardenReport, RouteHarden, SkipReason,
    UnparameterizedSink,
};
pub use lattice::{AbstractVal, Taint};
pub use querymodel::{app_query_models, infer_source, EndpointModel, SiteModel};
pub use report::{render_finding, render_summary};
pub use storeflow::{
    analyze_store_flow, CellRemediation, ProvenanceChain, RouteClass, RouteFlow, StoreEvent,
    StoreFlowReport,
};
pub use summaries::{effect_of, is_sink, Effect};

use joza_webapp::app::WebApp;
use joza_webapp::transform::InputTransform;

/// Analyzes every routable endpoint of a web application, in slug order.
///
/// The analyzer configuration is derived from the application's
/// framework-level input pipeline: when magic quotes escape every input
/// before plugin code runs, source reads start at
/// [`Taint::MaybeTainted`].
pub fn analyze_app(app: &WebApp) -> Vec<TaintSummary> {
    let config = AnalyzerConfig {
        input_escaped: app.input_pipeline.contains(&InputTransform::MagicQuotes),
        ..AnalyzerConfig::default()
    };
    let mut plugins: Vec<_> = app.plugins().collect();
    plugins.sort_by(|a, b| a.name.cmp(&b.name));
    plugins.iter().map(|p| analyzer::analyze_plugin(app, p, &config)).collect()
}

/// Route names provably safe to skip dynamic checking for — the feed for
/// `joza_core::JozaBuilder::taint_free_routes` and, for live deploys,
/// `joza_core::ModelUpdate::taint_free_routes`.
///
/// This is the *persistence-aware* criterion: the route's sinks must
/// receive no attacker data even when every cell the cross-route
/// store/load fixpoint ([`analyze_store_flow`]) marks dirty is treated as
/// a taint source at the route's load sites. First-order taint-freedom
/// alone is not enough — a route that re-interpolates stored data is
/// second-order-reachable and must stay on the dynamic path.
pub fn taint_free_routes(app: &WebApp) -> Vec<String> {
    analyze_store_flow(app).taint_free_routes()
}
