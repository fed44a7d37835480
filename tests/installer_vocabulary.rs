//! Golden vocabulary: the installer (§IV-A) over the lab application plus
//! a WordPress-scale synthetic core must extract exactly the pinned
//! fragment vocabulary, in the pinned order. Fragment indices and the MRU
//! matcher's starting order follow that order, so any change to the
//! extractor that adds, drops or reorders a fragment fails here, and so
//! does any dependence on how many threads the installer split it over.

use joza::core::{Joza, JozaConfig};
use joza::lab::{build_lab, wordpress};
use joza::phpsim::fragments::FragmentSet;
use joza::webapp::app::WebApp;

/// Synthetic WordPress core files, as in the deployment benchmark.
const SYNTHETIC_CORE_FILES: usize = 280;
/// Fragments the installer extracts from that application.
const GOLDEN_COUNT: usize = 13_593;
/// FNV-1a over every fragment in iteration order, each followed by a NUL.
const GOLDEN_DIGEST: u64 = 0x116a_d430_5488_ad3e;

fn digest<'a>(fragments: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in fragments {
        for b in f.bytes().chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The lab application plus the synthetic WordPress core.
fn application() -> WebApp {
    let mut app = build_lab().server.app;
    for src in wordpress::synthetic_core_sources(SYNTHETIC_CORE_FILES) {
        app.add_core_source(&src);
    }
    app
}

#[test]
fn installer_vocabulary_matches_golden() {
    let app = application();
    let joza = Joza::install(&app, JozaConfig::optimized());
    assert_eq!(joza.fragment_count(), GOLDEN_COUNT);

    // The installer's bulk extraction and file-by-file extraction agree.
    let sources = app.all_sources();
    let bulk = FragmentSet::from_sources(&sources);
    let mut incremental = FragmentSet::new();
    for src in &sources {
        incremental.add_source(src);
    }
    for set in [&bulk, &incremental] {
        assert_eq!(set.len(), GOLDEN_COUNT);
        assert_eq!(digest(set.iter()), GOLDEN_DIGEST, "vocabulary content or order changed");
    }
}

#[test]
fn installer_vocabulary_is_the_same_for_every_part_count() {
    let app = application();
    let sources = app.all_sources();
    for parts in [1, 3] {
        let set = FragmentSet::from_sources_in_parts(&sources, parts);
        assert_eq!(set.len(), GOLDEN_COUNT, "{parts} parts");
        assert_eq!(digest(set.iter()), GOLDEN_DIGEST, "{parts} parts changed the vocabulary");
    }
}
