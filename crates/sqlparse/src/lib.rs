#![warn(missing_docs)]
//! SQL lexing, parsing, and critical-token analysis for Joza.
//!
//! Both of Joza's inference components reason about the *tokens* of an
//! intercepted query:
//!
//! * The PTI daemon "parses intercepted queries to extract critical tokens
//!   and keywords" (§IV-C) and requires every critical token to be fully
//!   contained in a single program fragment.
//! * NTI "detects an attack only if an input matches at least one whole SQL
//!   token" and a *critical* token is negatively tainted (§III-A).
//! * The query **structure cache** stores "abstract syntax trees of parsed
//!   queries without storing contents of data nodes" (§IV-C1, §VI-A) —
//!   reproduced here as [`fingerprint`](mod@fingerprint)s.
//!
//! This crate implements a MySQL-dialect lexer that is *total* (any byte
//! string lexes to a token stream — injected queries are frequently
//! malformed), a recursive-descent parser producing a typed AST that the
//! in-memory database engine executes, a [critical-token
//! classifier](critical), and structure fingerprints.
//!
//! # Examples
//!
//! ```
//! use joza_sqlparse::lexer::lex;
//! use joza_sqlparse::critical::{critical_tokens, CriticalPolicy};
//!
//! let q = "SELECT * FROM posts WHERE id=-1 UNION SELECT username()";
//! let tokens = lex(q);
//! let crits = critical_tokens(&tokens, CriticalPolicy::default());
//! let texts: Vec<&str> = crits.iter().map(|t| t.text(q)).collect();
//! assert!(texts.contains(&"UNION"));
//! assert!(texts.contains(&"username"));
//! ```

pub mod ast;
pub mod cells;
pub mod critical;
pub mod fingerprint;
pub mod keywords;
pub mod lexer;
pub mod parser;
pub mod symbol;
pub mod template;
pub mod token;
pub mod value;

pub use ast::{Expr, SelectStatement, Statement};
pub use critical::{critical_tokens, CriticalPolicy};
pub use fingerprint::{fingerprint, raw_skeleton_tokens, skeleton, skeleton_tokens};
pub use lexer::lex;
pub use parser::{parse, ParseError};
pub use template::{
    compile_template, QueryModelIndex, QueryTemplate, RouteModel, SkeletonAutomaton, Sym,
    TemplatePart, TemplateReject,
};
pub use token::{Token, TokenKind};
pub use value::Value;
