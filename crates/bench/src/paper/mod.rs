//! The paper's evaluation as one run: every table, figure and ablation is
//! a [`Section`] that renders its text and returns typed [`Claim`] rows,
//! each comparing one of our numbers with the paper's. A failed gated
//! claim makes the `paper` binary exit non-zero; an informational one is
//! only reported (EXPERIMENTS.md records why it is not gated). A
//! [`Paper`] run measures each (setup, workload) pair once: Table VII and
//! Figure 8 reuse Table V's rows, and Tables II and IV share one security
//! evaluation.

mod detection;
mod overhead;

use crate::report::render_table;
use crate::security::{evaluate, SecurityEvaluation};

/// Appends one line to a [`Report`]'s text, as `println!` prints it.
macro_rules! outln {
    ($report:expr) => {
        $report.text.push('\n')
    };
    ($report:expr, $($arg:tt)+) => {{
        $report.text.push_str(&format!($($arg)+));
        $report.text.push('\n');
    }};
}
use outln;

/// How a claim compares our value with the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Test {
    /// Our value reads exactly as the paper's.
    Exact,
    /// Our value is at least the floor the claim names.
    AtLeast,
    /// Our value is below the bound the claim names.
    Below,
    /// An ordering the paper reports holds between our measurements.
    Direction,
}

/// One of the paper's claims checked against this reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The section that produced the claim.
    pub section: &'static str,
    /// What is claimed.
    pub claim: String,
    /// The paper's value.
    pub paper: String,
    /// Our value.
    pub ours: String,
    /// How the two are compared.
    pub test: Test,
    /// Whether a failure fails the run (otherwise informational).
    pub gated: bool,
    /// Whether the test passed.
    pub holds: bool,
}

impl Claim {
    /// A gated claim whose test outcome the caller computed.
    pub(crate) fn new(
        claim: &str,
        paper: impl ToString,
        ours: impl ToString,
        test: Test,
        holds: bool,
    ) -> Self {
        let (claim, paper, ours) = (claim.to_string(), paper.to_string(), ours.to_string());
        Claim { section: "", claim, paper, ours, test, gated: true, holds }
    }

    /// A gated claim that our value reads exactly as the paper's.
    pub(crate) fn exact(claim: &str, paper: impl ToString, ours: impl ToString) -> Self {
        let (paper, ours) = (paper.to_string(), ours.to_string());
        let holds = paper == ours;
        Claim::new(claim, paper, ours, Test::Exact, holds)
    }

    /// The same claim, reported but not gated.
    pub(crate) fn informational(self) -> Self {
        Claim { gated: false, ..self }
    }
}

/// A section's output: its rendered text and its claims.
#[derive(Debug, Default)]
pub struct Report {
    /// The rendered tables and commentary.
    pub text: String,
    /// The claims the section checks.
    pub claims: Vec<Claim>,
}

/// One table, figure or ablation; `--out DIR` writes it to
/// `DIR/<name>.txt`.
pub struct Section {
    /// The name the `paper` binary takes on its command line.
    pub name: &'static str,
    /// Whether the section's claims rest on wall-clock measurements.
    pub timed: bool,
    render: fn(&mut Paper) -> Report,
}

/// Every section, in the order a full run renders them.
pub const SECTIONS: [Section; 14] = [
    Section { name: "table1", timed: false, render: detection::table1 },
    Section { name: "table2", timed: false, render: detection::table2 },
    Section { name: "table3", timed: false, render: detection::table3 },
    Section { name: "table4", timed: false, render: detection::table4 },
    Section { name: "table5", timed: true, render: overhead::table5 },
    Section { name: "table6", timed: true, render: overhead::table6 },
    Section { name: "table7", timed: true, render: overhead::table7 },
    Section { name: "fig7", timed: true, render: overhead::fig7 },
    Section { name: "fig8", timed: true, render: overhead::fig8 },
    Section { name: "ablation_threshold", timed: false, render: detection::ablation_threshold },
    Section { name: "ablation_policy", timed: false, render: detection::ablation_policy },
    Section { name: "ablation_matcher", timed: true, render: overhead::ablation_matcher },
    Section { name: "sast", timed: false, render: detection::sast },
    Section { name: "sast-findings", timed: false, render: detection::sast_findings },
];

/// One run of the evaluation, holding the results that several sections
/// share so each is computed once.
#[derive(Default)]
pub struct Paper {
    security: Option<SecurityEvaluation>,
    overheads: Option<overhead::Overheads>,
}

impl Paper {
    /// Renders one section and tags its claims with the section's name.
    pub fn run(&mut self, section: &Section) -> Report {
        let mut report = (section.render)(self);
        for claim in &mut report.claims {
            claim.section = section.name;
        }
        report
    }

    fn security(&mut self) -> &SecurityEvaluation {
        self.security.get_or_insert_with(evaluate)
    }
}

/// The claims table: one row per claim, then a one-line tally.
pub fn render_claims(claims: &[Claim]) -> String {
    let rows: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            let result = match (c.gated, c.holds) {
                (true, true) => "pass",
                (true, false) => "FAIL",
                (false, true) => "holds",
                (false, false) => "differs",
            };
            let kind = if c.gated { "gated" } else { "info" };
            let test = format!("{:?}", c.test);
            [c.section, &c.claim, &c.paper, &c.ours, &test, kind, result].map(String::from).to_vec()
        })
        .collect();
    let gated = claims.iter().filter(|c| c.gated).count();
    let differ = claims.iter().filter(|c| !c.gated && !c.holds).count();
    format!(
        "PAPER CLAIMS\n\n{}\n{gated} gated claims, {} failed; {} informational, {differ} differ \
         from the paper\n",
        render_table(&["Section", "Claim", "Paper", "Ours", "Test", "Kind", "Result"], &rows),
        failed_gated(claims),
        claims.len() - gated,
    )
}

/// How many gated claims failed.
fn failed_gated(claims: &[Claim]) -> usize {
    claims.iter().filter(|c| c.gated && !c.holds).count()
}

/// The run's exit status: 1 if any gated claim failed, else 0.
pub fn exit_code(claims: &[Claim]) -> u8 {
    u8::from(failed_gated(claims) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_gated_claim_sets_a_non_zero_exit_status() {
        let pass = Claim::exact("NTI detects", "49/50", "49/50");
        let fail = Claim::exact("NTI detects", "49/50", "48/50");
        assert!(pass.holds && !fail.holds);
        assert_eq!(exit_code(std::slice::from_ref(&pass)), 0);
        assert_eq!(exit_code(&[pass.clone(), fail.clone()]), 1);
        assert_eq!(exit_code(&[pass, fail.clone().informational()]), 0);
        let table = render_claims(&[fail.clone(), fail.informational()]);
        assert!(table.contains("| FAIL ") && table.contains("| differs "));
        assert!(
            table.ends_with("1 gated claims, 1 failed; 1 informational, 1 differ from the paper\n")
        );
    }
}
