#![warn(missing_docs)]
//! Experiment harness regenerating every table and figure of the Joza
//! paper's evaluation (§V, §VI).
//!
//! One binary, `paper`, renders every table, figure and ablation and
//! checks the paper's claims (`paper table4 fig7`; no section runs them
//! all). The machinery lives here:
//!
//! * [`paper`] — the sections and their [`paper::Claim`] rows, gated or
//!   informational, and the claims table;
//! * [`security`] — the §V security evaluation: NTI / PTI / Joza against
//!   original, NTI-mutated and Taintless-mutated exploits across the
//!   50-plugin corpus and the three CMS cases (Tables II & IV), the
//!   SQLMap sweep (Table II), and the false-positive crawl;
//! * [`workload`] — the §VI performance evaluation: site crawls (reads),
//!   random comments (writes) and random searches, measured plain vs.
//!   protected under each cache/deployment configuration (Table V,
//!   Table VI, Figures 7 & 8);
//! * [`wpcom`] — the Wordpress.com workload statistics of Table VII;
//! * [`report`] — plain-text table rendering and the helpers every
//!   `results/BENCH_*.json` writer shares (provenance, engine config,
//!   percentiles, JSON escaping and output).

pub mod paper;
pub mod report;
pub mod security;
pub mod workload;
pub mod wpcom;
