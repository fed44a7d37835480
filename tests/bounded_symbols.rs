//! The skeleton symbol table stays bounded under an adversarial stream:
//! checks look symbols up in the deployment's snapshot and never intern,
//! so a million fresh identifiers (one sqlmap-style alias per request)
//! leave the table exactly as the deployment left it.

use joza::core::{Joza, JozaConfig, ModelUpdate};
use joza::pti::daemon::{DaemonMode, PtiComponentConfig};
use joza::sqlparse::symbol;
use joza::sqlparse::template::{QueryModelIndex, QueryTemplate, RouteModel, TemplatePart};

/// Compiles the `items` route's model: `SELECT name FROM items WHERE id=<hole>`.
fn models() -> QueryModelIndex {
    let template = QueryTemplate {
        parts: vec![
            TemplatePart::Lit("SELECT name FROM items WHERE id=".to_string()),
            TemplatePart::Hole,
        ],
    };
    let mut models = QueryModelIndex::new();
    models.insert("items", RouteModel::build(&[Some(vec![template])]));
    models
}

#[test]
fn symbol_table_stays_bounded_over_a_million_fresh_identifiers() {
    const QUERIES: u64 = 1_000_000;
    let config = JozaConfig {
        // PTI alone, in process, keeps the stream fast; the structure
        // cache makes every check fingerprint its skeleton too.
        disable_nti: true,
        pti: PtiComponentConfig {
            mode: DaemonMode::InProcess,
            structure_cache: true,
            ..PtiComponentConfig::default()
        },
        ..JozaConfig::optimized()
    };
    let joza = Joza::builder()
        .fragments(["SELECT name FROM items WHERE id=", " AS "])
        .config(config)
        .query_models(models())
        .known_routes(["items"])
        .build();

    // Every query misses the model (its alias is no template symbol) and
    // so renders a skeleton, is fingerprinted and analyzed. One in eight
    // also carries bytes the lexer cannot classify.
    let query = |i: u64| {
        let tail = if i.is_multiple_of(8) { " [\u{1}{}]" } else { "" };
        format!("SELECT name AS c{i:x} FROM items WHERE id=5{tail}")
    };
    joza.check_query_on_route("items", &[], &query(0));
    let len = symbol::len();
    for i in 1..QUERIES {
        let v = joza.check_query_on_route("items", &[], &query(i));
        assert!(v.structural_anomaly(), "{}", query(i));
        if i.is_multiple_of(100_000) {
            assert_eq!(symbol::len(), len, "after {i} queries");
        }
    }
    assert_eq!(symbol::len(), len);

    // Compiling and deploying the same models again interns nothing new.
    joza.deploy(ModelUpdate::new().query_models(models())).expect("known route");
    assert_eq!(symbol::len(), len);
    assert!(joza.check_query_on_route("items", &[], "SELECT name FROM items WHERE id=9").is_safe());
    joza.check_query_on_route("items", &[], &query(QUERIES));
    assert_eq!(symbol::len(), len);
}
