//! The static passes read each route's parse from the application's
//! cache instead of parsing its source text themselves. Two contracts:
//!
//! * **Identity.** Query models, taint summaries and the hardening report
//!   built from the shared parses equal what the text entry points
//!   (`infer_source`, `analyze_source`, `harden_source`) give on every
//!   lab, CMS and second-order route. The store-flow fixpoint has its own
//!   reference test next to it.
//! * **One parse per route per deployment.** A deployment — query
//!   models, the store-flow fixpoint, the engine build and a bytecode
//!   chunk per route, on one application value — parses every route
//!   exactly once.

use joza_core::{Joza, JozaConfig};
use joza_lab::second_order::build_second_order_lab;
use joza_phpsim::parser::parse_count;
use joza_sast::{
    analyze_app, analyze_source, analyze_store_flow, app_query_models, harden_app, harden_source,
    infer_source, AnalyzerConfig, HardenReport,
};
use joza_sqlparse::template::QueryModelIndex;
use joza_webapp::app::{Plugin, WebApp};
use joza_webapp::transform::InputTransform;

/// The lab with its CMS case studies and the second-order routes.
fn lab_app() -> WebApp {
    build_second_order_lab().lab.server.app
}

fn sorted_plugins(app: &WebApp) -> Vec<&Plugin> {
    let mut plugins: Vec<&Plugin> = app.plugins().collect();
    plugins.sort_by(|a, b| a.name.cmp(&b.name));
    plugins
}

#[test]
fn shared_parse_query_models_equal_the_text_entry_point() {
    let app = lab_app();
    let mut reference = QueryModelIndex::new();
    for p in app.plugins() {
        reference.insert(&p.name, infer_source(&p.name, &p.source).compile());
    }
    assert_eq!(format!("{:?}", app_query_models(&app)), format!("{reference:?}"));
}

#[test]
fn shared_parse_taint_summaries_equal_the_text_entry_point() {
    let app = lab_app();
    let config = AnalyzerConfig {
        input_escaped: app.input_pipeline.contains(&InputTransform::MagicQuotes),
        ..AnalyzerConfig::default()
    };
    assert!(config.input_escaped);
    let reference: Vec<_> = sorted_plugins(&app)
        .into_iter()
        .map(|p| analyze_source(&p.name, &p.source, &config))
        .collect();
    assert_eq!(analyze_app(&app), reference);
}

#[test]
fn shared_parse_harden_report_equals_the_text_entry_point() {
    let app = lab_app();
    let mut reference = HardenReport::default();
    let mut sources = Vec::new();
    for p in sorted_plugins(&app) {
        let (route, hardened) = harden_source(&p.name, &p.source);
        reference.routes.push(route);
        sources.push(hardened.unwrap_or_else(|| p.source.clone()));
    }
    let (hardened, report) = harden_app(&app);
    assert_eq!(report, reference);
    let got: Vec<&str> = sorted_plugins(&hardened).iter().map(|p| p.source.as_str()).collect();
    assert_eq!(got, sources);
    // Rewritten routes serve their new text, not the original's parse.
    for p in sorted_plugins(&hardened) {
        let text = joza_phpsim::parser::parse_program(&p.source).expect("parses");
        assert_eq!(hardened.program(&p.name).expect("parses"), &text[..], "{}", p.name);
    }
}

#[test]
fn shared_parse_one_parse_per_route_per_deployment() {
    let base = lab_app();
    // A deployment as the benchmark times it: on a clone of an
    // application nothing has parsed yet.
    let mut app = base.clone();
    let before = parse_count();
    let models = app_query_models(&app);
    let flow = analyze_store_flow(&app);
    Joza::installer(&app, JozaConfig::optimized())
        .query_models(models)
        .taint_free_routes(flow.taint_free_routes())
        .dirty_cells(flow.dirty_cells())
        .try_build()
        .expect("engine builds");
    let routes: Vec<String> = app.plugins().map(|p| p.name.clone()).collect();
    for route in &routes {
        app.chunk(route).expect("route compiles");
    }
    assert_eq!(parse_count() - before, app.plugin_count() as u64);
    // The parses stay with that value: a fresh clone of the base parses
    // again.
    let again = base.clone();
    let before = parse_count();
    analyze_store_flow(&again);
    assert_eq!(parse_count() - before, again.plugin_count() as u64);
}
