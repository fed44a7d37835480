#![warn(missing_docs)]
//! Approximate and multi-pattern string matching substrate for Joza.
//!
//! The Joza paper (DSN 2015) relies on two string-matching workhorses:
//!
//! * **Negative taint inference (NTI)** needs *approximate substring
//!   matching*: for each application input it finds the substring of an
//!   intercepted SQL query with the smallest edit distance to the input
//!   (§III-A of the paper). This crate provides classic
//!   [Levenshtein distance](levenshtein::distance) along with
//!   [Sellers' semi-global alignment](sellers::substring_distance), a
//!   [q-gram prefilter](qgram) used to skip implausible comparisons, and a
//!   [bit-parallel Myers/Hyyrö kernel](myers) that packs 64 DP rows per
//!   machine word and carries a threshold cutoff — the production NTI hot
//!   path, bit-identical to Sellers.
//!
//! * **Positive taint inference (PTI)** needs *exact multi-pattern
//!   matching*: finding every occurrence of every program string fragment
//!   inside a query (§III-B). This crate provides a from-scratch
//!   [Aho–Corasick automaton](ahocorasick::AhoCorasick) as well as the
//!   paper's original optimization — a [naive scanner with most-recently-used
//!   fragment reordering](mru::MruScanner) — so the Figure 7 ablation can
//!   compare both. The naive and MRU scanners borrow the caller's
//!   patterns (an MRU scanner owns only its order of pattern ids) and find
//!   each pattern by jumping between positions of its first byte, eight
//!   haystack bytes per word ([`swar::find_byte`]), with one slice compare
//!   per candidate.
//!
//! All matchers operate on bytes; case folding is the caller's
//! responsibility, with helpers in [`normalize`].
//!
//! # Examples
//!
//! ```
//! use joza_strmatch::sellers::substring_distance;
//!
//! // The attack input appears verbatim inside the query: distance 0.
//! let m = substring_distance(b"-1 OR 1=1", b"SELECT * FROM t WHERE id=-1 OR 1=1");
//! assert_eq!(m.distance, 0);
//! assert_eq!(m.range(), 25..34);
//! ```

pub mod ahocorasick;
pub mod levenshtein;
pub mod mru;
pub mod myers;
pub mod normalize;
pub mod qgram;
pub mod sellers;
pub mod swar;

pub use ahocorasick::{AhoCorasick, Match};
pub use levenshtein::distance;
pub use myers::{bounded_myers_substring_distance, myers_substring_distance, MatchKernel};
pub use sellers::{substring_distance, SubstringMatch};
