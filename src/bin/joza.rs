//! `joza` — command-line front end for the hybrid taint-inference engine.
//!
//! ```text
//! joza extract <php-file-or-dir>...        # print the fragment vocabulary
//! joza check -f fragments.txt [-i VALUE]... <query>
//! joza audit -f fragments.txt              # PTI attack-surface audit
//! ```
//!
//! `extract` walks the given paths (recursing into directories), runs the
//! installer's fragment extraction over every `.php` file (any extension
//! is accepted for explicit file arguments), and prints one fragment per
//! line — the same vocabulary `Joza::install` would build.
//!
//! `check` loads a fragment file (one fragment per line, `\n`-escapes
//! honored), captures `-i` values as raw request inputs, and prints the
//! NTI/PTI/hybrid verdict for the query.
//!
//! `audit` reports which dangerous tokens the vocabulary exposes
//! (the paper's Table III) and the shortest — most combinable — fragments.

use joza::core::{Joza, JozaConfig};
use joza::phpsim::fragments::FragmentSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("extract") => cmd_extract(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("joza: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  joza extract <php-file-or-dir>...
      Extract the PTI fragment vocabulary from application sources.

  joza check -f <fragments.txt> [-i <raw-input>]... <query>
      Analyze one query. Exit code: 0 safe, 1 attack detected.

  joza audit -f <fragments.txt>
      Report the vocabulary's attack surface (paper Table III).
";

fn cmd_extract(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("extract: no paths given".into());
    }
    let mut files = Vec::new();
    for arg in args {
        collect_sources(Path::new(arg), true, &mut files)?;
    }
    if files.is_empty() {
        return Err("extract: no source files found".into());
    }
    let sources = files
        .iter()
        .map(|file| {
            std::fs::read_to_string(file).map_err(|e| format!("extract: {}: {e}", file.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let set = FragmentSet::from_sources(&sources.iter().map(String::as_str).collect::<Vec<_>>());
    eprintln!("joza: {} fragments from {} files", set.len(), files.len());
    let mut frags: Vec<&str> = set.iter().collect();
    frags.sort_unstable();
    for f in frags {
        println!("{}", escape(f));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let (fragment_file, inputs, rest) = parse_flags(args)?;
    let fragment_file = fragment_file.ok_or("check: missing -f <fragments.txt>")?;
    let query = match rest.as_slice() {
        [q] => q.clone(),
        [] => return Err("check: missing <query>".into()),
        _ => return Err("check: expected exactly one query (quote it)".into()),
    };
    let fragments = load_fragments(&fragment_file)?;
    let joza = Joza::builder().fragments(&fragments).config(JozaConfig::optimized()).build();
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let verdict = joza.check_query(&refs, &query);
    println!(
        "nti: {}",
        match verdict.nti_attack() {
            Some(true) => "ATTACK",
            Some(false) => "safe",
            None => "disabled",
        }
    );
    println!(
        "pti: {}",
        match verdict.pti_attack() {
            Some(true) => "ATTACK",
            Some(false) => "safe",
            None => "disabled",
        }
    );
    if verdict.is_safe() {
        println!("verdict: safe");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("verdict: ATTACK (detected by {:?})", verdict.detector().expect("unsafe"));
        Ok(ExitCode::from(1))
    }
}

fn cmd_audit(args: &[String]) -> Result<ExitCode, String> {
    let (fragment_file, _, rest) = parse_flags(args)?;
    if !rest.is_empty() {
        return Err(format!("audit: unexpected arguments {rest:?}"));
    }
    let fragment_file = fragment_file.ok_or("audit: missing -f <fragments.txt>")?;
    let fragments = load_fragments(&fragment_file)?;
    println!("vocabulary: {} fragments", fragments.len());
    println!("\ndangerous tokens available to an attacker:");
    for needle in [
        "UNION", "AND", "OR", "SELECT", "CHAR", "#", "\"", "'", "`", "GROUP BY", "ORDER BY",
        "CAST", "WHERE 1",
    ] {
        if fragments.iter().any(|f| f.contains(needle)) {
            println!("  {needle}");
        }
    }
    let mut shortest: Vec<&String> = fragments.iter().collect();
    shortest.sort_by_key(|f| (f.len(), f.as_str()));
    println!("\n15 shortest (most combinable) fragments:");
    for f in shortest.iter().take(15) {
        println!("  {:?}", f);
    }
    Ok(ExitCode::SUCCESS)
}

/// Collects `.php` sources under `path`; explicit file arguments are
/// accepted regardless of extension.
fn collect_sources(path: &Path, explicit: bool, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_file() {
        if explicit || path.extension().is_some_and(|e| e == "php") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", path.display()))?;
        collect_sources(&entry.path(), false, out)?;
    }
    Ok(())
}

/// Parsed common flags: fragment file, `-i` inputs, positional rest.
type ParsedFlags = (Option<PathBuf>, Vec<String>, Vec<String>);

fn parse_flags(args: &[String]) -> Result<ParsedFlags, String> {
    let mut fragment_file = None;
    let mut inputs = Vec::new();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-f" | "--fragments" => {
                let v = it.next().ok_or("missing value after -f")?;
                fragment_file = Some(PathBuf::from(v));
            }
            "-i" | "--input" => {
                let v = it.next().ok_or("missing value after -i")?;
                inputs.push(v.clone());
            }
            other => rest.push(other.to_string()),
        }
    }
    Ok((fragment_file, inputs, rest))
}

fn load_fragments(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.lines().filter(|l| !l.is_empty()).map(unescape).collect())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\t', "\\t")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}
