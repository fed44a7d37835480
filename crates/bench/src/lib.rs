#![warn(missing_docs)]
//! Experiment harness regenerating every table and figure of the Joza
//! paper's evaluation (§V, §VI).
//!
//! One binary, `paper`, renders every table, figure and ablation and
//! checks the paper's claims (`paper table4 fig7`; no section runs them
//! all). The machinery lives here:
//!
//! * [`paper`] — the sections and their [`paper::Claim`] rows, gated or
//!   informational, and the claims table; beyond the paper's tables, the
//!   `harden`, `second_order`, `pipeline` and `vm` sections cover static
//!   hardening, second-order defense, the staged pipeline's throughput and
//!   thread scaling, and the bytecode VM;
//! * [`security`] — the §V security evaluation: NTI / PTI / Joza against
//!   original, NTI-mutated and Taintless-mutated exploits across the
//!   50-plugin corpus and the three CMS cases (Tables II & IV), the
//!   SQLMap sweep (Table II), and the false-positive crawl;
//! * [`workload`] — the §VI performance evaluation: site crawls (reads),
//!   random comments (writes) and random searches, measured plain vs.
//!   protected under each cache/deployment configuration (Table V,
//!   Table VI, Figures 7 & 8);
//! * [`wpcom`] — the Wordpress.com workload statistics of Table VII;
//! * [`report`] — plain-text table rendering, the claims table's
//!   provenance line, percentiles and the per-stage breakdown.

pub mod paper;
pub mod report;
pub mod security;
pub mod workload;
pub mod wpcom;
