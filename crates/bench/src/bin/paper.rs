//! Regenerates the paper's evaluation and checks its claims.
//!
//! `paper [SECTION ...] [--out DIR]`: no section means all of
//! `joza_bench::paper::SECTIONS`. Without `--out` every section and then
//! the claims table go to stdout; with it each section goes to
//! `DIR/<section>.txt` and the claims table to `DIR/claims.txt`. The exit
//! status is 1 if any gated claim fails.

use joza_bench::paper::{exit_code, render_claims, Paper, SECTIONS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let (mut out, mut sections) = (None, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(s) = SECTIONS.iter().find(|s| s.name == arg) {
            sections.push(s);
        } else if let Some(dir) = args.next().filter(|_| arg == "--out") {
            out = Some(dir);
        } else {
            let names: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
            eprintln!("unknown argument {arg:?}\nusage: paper [SECTION ...] [--out DIR]");
            eprintln!("sections: {}", names.join(" "));
            return ExitCode::from(2);
        }
    }
    if sections.is_empty() {
        sections = SECTIONS.iter().collect();
    }
    let emit = |name: &str, text: &str| match &out {
        Some(dir) => {
            let path = std::path::Path::new(dir).join(format!("{name}.txt"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, text))
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        }
        None => println!("{text}"),
    };

    let mut paper = Paper::default();
    let mut claims = Vec::new();
    for s in sections {
        let report = paper.run(s);
        emit(s.name, &report.text);
        claims.extend(report.claims);
    }
    let table = render_claims(&claims);
    emit("claims", &table);
    if out.is_some() {
        print!("{table}");
    }
    ExitCode::from(exit_code(&claims))
}
