#![warn(missing_docs)]
//! # Joza: hybrid taint inference for defeating SQL injection attacks
//!
//! This is the facade crate of a from-scratch Rust reproduction of
//! *"Joza: Hybrid Taint Inference for Defeating Web Application SQL
//! Injection Attacks"* (DSN 2015). It re-exports every subsystem:
//!
//! * [`core`] — the hybrid taint-inference engine (the paper's contribution)
//! * [`nti`] / [`pti`] — the two inference components it combines
//! * [`sqlparse`] — SQL lexer/parser/critical-token analysis
//! * [`strmatch`] — approximate & multi-pattern string matching
//! * [`phpsim`] — PHP-subset interpreter + fragment extraction
//! * [`db`] — in-memory MySQL-subset engine
//! * [`webapp`] — simulated web-application framework
//! * [`lab`] — WP-SQLI-LAB testbed, SQLMap-style generator, Taintless
//! * [`sast`] — static taint analyzer + gate fast-path route proofs
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the
//! system inventory and experiment index.
//!
//! # Quickstart
//!
//! ```
//! use joza::core::Joza;
//!
//! // Fragments would normally come from the application's source code.
//! // The default configuration is the paper's deployment: a long-lived
//! // PTI daemon with both caches (`JozaConfig::default()`).
//! let fragments = ["SELECT * FROM posts WHERE id=", " LIMIT 1", "id"];
//! let joza = Joza::builder().fragments(fragments).build();
//!
//! let mut session = joza.session();
//! session.capture_input("id", "7");
//! assert!(session.check("SELECT * FROM posts WHERE id=7 LIMIT 1").is_safe());
//!
//! session.capture_input("id", "7 UNION SELECT password FROM users");
//! assert!(!session
//!     .check("SELECT * FROM posts WHERE id=7 UNION SELECT password FROM users LIMIT 1")
//!     .is_safe());
//! ```

pub use joza_core as core;
pub use joza_db as db;
pub use joza_lab as lab;
pub use joza_nti as nti;
pub use joza_phpsim as phpsim;
pub use joza_pti as pti;
pub use joza_sast as sast;
pub use joza_sqlparse as sqlparse;
pub use joza_strmatch as strmatch;
pub use joza_webapp as webapp;
