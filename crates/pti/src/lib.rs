#![warn(missing_docs)]
//! Positive taint inference (PTI) — §III-B and §IV-C of the Joza paper.
//!
//! PTI inverts NTI's trust model: instead of inferring what is *untrusted*
//! from inputs, it infers what is *trusted* from the program itself. String
//! fragments are extracted from the application's source (see
//! `joza_phpsim::fragments`); an intercepted query is safe exactly when
//! every critical token is **fully contained within a single fragment
//! occurrence**. Combining fragments to assemble a critical token is
//! rejected by construction, and a comment is one critical token that must
//! come whole from one fragment.
//!
//! The architecture pieces from §IV-C are all here:
//!
//! * [`analyzer`] — the containment algorithm, generic over three matcher
//!   strategies (naive scan, the paper's MRU-reordered scan, and an
//!   Aho–Corasick automaton) so the Figure 7 ablation can compare them;
//! * [`cache`] — one bounded, secret-keyed verdict cache that serves as
//!   both the **PTI query cache** (exact query → safe) and the **query
//!   structure cache** (AST skeleton hash → safe, "without storing
//!   contents of data nodes");
//! * [`daemon`] — the PTI daemon: a separate worker speaking a
//!   length-prefixed binary protocol over channels (standing in for the
//!   paper's named/anonymous pipes), spawnable per-request or long-lived,
//!   with an in-process mode that models the paper's "PHP extension"
//!   overhead estimate.
//!
//! # Examples
//!
//! ```
//! use joza_pti::{PtiAnalyzer, PtiConfig};
//!
//! // Fragments extracted from the §III-B example program.
//! let fragments = ["id", "SELECT * FROM records WHERE ID=", " LIMIT 5"];
//! let pti = PtiAnalyzer::from_fragments(fragments, PtiConfig::default());
//!
//! assert!(!pti.analyze("SELECT * FROM records WHERE ID=42 LIMIT 5").is_attack());
//! assert!(pti
//!     .analyze("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5")
//!     .is_attack());
//! ```

pub mod analyzer;
pub mod cache;
pub mod daemon;
pub mod store;

pub use analyzer::{PtiAnalyzer, PtiConfig, PtiReport};
pub use cache::{CacheStats, VerdictCache};
pub use daemon::{DaemonMode, PreparedSql, PtiClient, PtiComponent, PtiDaemon};
pub use store::{FragmentStore, MatcherKind};
