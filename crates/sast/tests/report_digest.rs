//! Every static report, pinned by digest.
//!
//! The taint summaries (with and without framework input escaping), the
//! query models, the store-flow report and the hardening pass's report
//! and rewritten sources are rendered with `Debug` for every route of the
//! lab (its 50 plugins, the CMS case studies and the core routes) and of
//! the second-order lab, and hashed with 64-bit FNV-1a. A refactoring of
//! the static passes must leave every digest unchanged; a change that
//! means to move a verdict updates the constant here and says why.

use joza_lab::second_order::build_second_order_lab;
use joza_lab::{build_lab, cms::cms_cases};
use joza_sast::{analyze_source, analyze_store_flow, harden_app, infer_source, AnalyzerConfig};
use joza_webapp::app::{Plugin, WebApp};

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn sorted_plugins(app: &WebApp) -> Vec<&Plugin> {
    let mut plugins: Vec<&Plugin> = app.plugins().collect();
    plugins.sort_by(|a, b| a.name.cmp(&b.name));
    plugins
}

/// `(report kind, digest)` for every static report over `app`.
fn digests(app: &WebApp) -> Vec<(&'static str, u64)> {
    let plugins = sorted_plugins(app);
    let taint = |input_escaped| {
        let config = AnalyzerConfig { input_escaped, ..AnalyzerConfig::default() };
        let summaries: Vec<_> =
            plugins.iter().map(|p| analyze_source(&p.name, &p.source, &config)).collect();
        fnv1a(&format!("{summaries:?}"))
    };
    let models: Vec<_> = plugins.iter().map(|p| infer_source(&p.name, &p.source)).collect();
    let (hardened, report) = harden_app(app);
    let sources: Vec<&str> = sorted_plugins(&hardened).iter().map(|p| p.source.as_str()).collect();
    vec![
        ("taint", taint(false)),
        ("taint, input escaped", taint(true)),
        ("query models", fnv1a(&format!("{models:?}"))),
        ("store flow", fnv1a(&format!("{:?}", analyze_store_flow(app)))),
        ("harden report", fnv1a(&format!("{report:?}"))),
        ("hardened sources", fnv1a(&format!("{sources:?}"))),
    ]
}

#[test]
fn lab_static_reports_are_unchanged() {
    let app = build_lab().server.app;
    for case in cms_cases() {
        assert!(app.plugin(&case.slug).is_some(), "CMS case {} is routed", case.slug);
    }
    assert_eq!(
        digests(&app),
        vec![
            ("taint", 0xc24870aa2081082f),
            ("taint, input escaped", 0xa7e82a6e8ea95fd3),
            ("query models", 0x43b1f453ca85b252),
            ("store flow", 0x620852714dad1129),
            ("harden report", 0x476325cb95a6f0ad),
            ("hardened sources", 0x2ce04e02359e2db6),
        ]
    );
}

#[test]
fn second_order_lab_static_reports_are_unchanged() {
    let app = build_second_order_lab().lab.server.app;
    assert_eq!(
        digests(&app),
        vec![
            ("taint", 0x5ca4e93ba41c61fc),
            ("taint, input escaped", 0x2f3aa097e0a62dda),
            ("query models", 0x68207d753eca644c),
            ("store flow", 0xb0de89ba007b42f6),
            ("harden report", 0xe80ebd0416aa9938),
            ("hardened sources", 0x8dc7790e1993f37c),
        ]
    );
}
