#![warn(missing_docs)]
//! PHP-subset interpreter and string-fragment extraction for Joza.
//!
//! The Joza paper protects *PHP web applications*: WordPress plus 50
//! vulnerable plugins. Its PTI component depends on a property of the
//! subject program — the string literals extracted from the program's
//! source are exactly the trusted constituents of the queries the program
//! builds at runtime (§III-B, §IV-A). Reproducing that property faithfully
//! requires actually *executing* application source, so this crate
//! implements a small PHP interpreter:
//!
//! * [`lexer`]/[`parser`] — a PHP-subset front end (variables, arrays,
//!   superglobals, string interpolation, `if`/`while`/`foreach`, function
//!   calls);
//! * [`interp`] — a tree-walking evaluator with PHP's type juggling, wired
//!   to a [`Host`] that receives the `mysql_query` calls
//!   (the web-app framework routes those through Joza and the database);
//! * [`builtins`] — the PHP standard-library subset the testbed plugins
//!   use, including the input transformations NTI evasion exploits
//!   (`addslashes` — magic quotes, `trim`, `base64_decode`, `urldecode`,
//!   `str_replace`, `preg_replace` character classes, `sprintf`, …);
//! * [`mod@compile`]/[`vm`] — a bytecode compiler and stack VM over the same
//!   AST and [`Host`]: the serving engine. The tree-walker stays as the
//!   differential oracle (bit-identical output/queries/errors, pinned by
//!   full-corpus replay and random-program differential tests);
//! * [`fragments`] — the installer's fragment extractor: string literals
//!   are collected from source text, interpolated strings and format
//!   strings are split at placeholders, and only fragments containing at
//!   least one SQL token are retained (§IV-A).
//!
//! # Examples
//!
//! ```
//! use joza_phpsim::interp::{Interp, Host, QueryOutcome};
//! use joza_phpsim::parser::parse_program;
//! use joza_phpsim::value::PValue;
//!
//! struct Recorder(Vec<String>);
//! impl Host for Recorder {
//!     fn query(&mut self, sql: &str) -> QueryOutcome {
//!         self.0.push(sql.to_string());
//!         QueryOutcome::Rows(vec![])
//!     }
//! }
//!
//! let src = r#"
//!     $id = $_GET['id'];
//!     $q = "SELECT * FROM records WHERE ID=" . $id . " LIMIT 5";
//!     mysql_query($q);
//! "#;
//! let prog = parse_program(src)?;
//! let mut host = Recorder(Vec::new());
//! let mut interp = Interp::new(&mut host);
//! interp.set_get_param("id", "7");
//! interp.run(&prog)?;
//! assert_eq!(host.0, ["SELECT * FROM records WHERE ID=7 LIMIT 5"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod cost;
pub mod emit;
pub mod fragments;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod span;
pub mod value;
pub mod vm;

pub use compile::{compile, Chunk};
pub use emit::{emit_expr, emit_program};
pub use fragments::extract_fragments;
pub use interp::{Host, Interp, PhpError, QueryOutcome};
pub use parser::{parse_program, parse_program_spanned};
pub use span::Span;
pub use value::PValue;
pub use vm::Vm;
