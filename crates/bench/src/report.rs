//! Minimal aligned-column table rendering for experiment binaries, plus
//! the provenance stamp, engine configuration and output helpers shared
//! by every `results/BENCH_*.json` writer.

use joza_core::JozaConfig;
use std::time::Duration;

/// The git revision of the working tree (`git rev-parse --short=12
/// HEAD`), or `"unknown"` when git is unavailable — e.g. running from an
/// exported source tarball.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host's available hardware parallelism (1 when undetectable).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Provenance stamp for `results/BENCH_*.json` files, as a single-line
/// JSON object: the git revision the numbers were produced from, the
/// host thread count, the default NTI matching kernel, and the phpsim
/// serving engine the web-application simulator defaults to (`vm` since
/// the bytecode compiler landed; `tree-walk` numbers are not comparable
/// with `vm` numbers on interpreter-bound workloads). Every benchmark
/// writer embeds this under a `"provenance"` key so results files stay
/// comparable across PRs.
///
/// # Examples
///
/// ```
/// let p = joza_bench::report::provenance_json();
/// assert!(p.starts_with("{\"git_rev\": "));
/// assert!(p.contains("\"nti_kernel\": \"bit-parallel\""));
/// assert!(p.contains("\"engine\": \"vm\""));
/// ```
pub fn provenance_json() -> String {
    format!(
        "{{\"git_rev\": \"{}\", \"host_threads\": {}, \"nti_kernel\": \"{}\", \"engine\": \"{}\"}}",
        git_rev(),
        host_threads(),
        joza_core::MatchKernel::default(),
        joza_webapp::Engine::default()
    )
}

/// Engine shard count of the serving benches (above the largest thread
/// count they sweep, so concurrent workers never share a PTI shard or
/// stats cell).
pub const SHARDS: usize = 16;

/// The engine configuration the serving benches (`scaling`, `pipeline`,
/// `harden`) measure: the paper's optimized deployment, [`SHARDS`]
/// shards, and a modeled 400 µs off-CPU PHP↔daemon pipe wait per PTI
/// round trip.
pub fn serving_config() -> JozaConfig {
    let mut cfg = JozaConfig::optimized();
    cfg.shards = SHARDS;
    cfg.pti.pipe_latency = Duration::from_micros(400);
    cfg
}

/// The `p`-th percentile (0.0–1.0, nearest rank) of an ascending slice;
/// zero when empty.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Escapes `\` and `"` for embedding `s` in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes a `BENCH_*.json` document to `path` (creating its directory)
/// and reports the path on stdout.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_json(path: &str, json: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Renders rows as an aligned text table with a header row and separator.
///
/// # Examples
///
/// ```
/// use joza_bench::report::render_table;
///
/// let t = render_table(
///     &["Attack Type", "NO. of Plugins"],
///     &[vec!["Union Based".into(), "15".into()]],
/// );
/// assert!(t.contains("Union Based"));
/// assert!(t.contains("| 15"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Per-stage pipeline breakdown rows for [`render_table`]: one row per
/// [`StageId`](joza_core::StageId) in execution order — runs, hits
/// (short-circuits or fires), hit rate, and total/mean latency.
pub fn stage_breakdown_rows(stats: &joza_core::JozaStats) -> Vec<Vec<String>> {
    joza_core::StageId::ALL
        .iter()
        .map(|&stage| {
            let i = stage.index();
            let (runs, hits, ns) = (stats.stage_runs[i], stats.stage_hits[i], stats.stage_ns[i]);
            vec![
                stage.name().to_string(),
                runs.to_string(),
                hits.to_string(),
                pct(hits as f64 / runs.max(1) as f64),
                format!("{:.3}ms", ns as f64 / 1e6),
                format!("{:.0}ns", ns as f64 / runs.max(1) as f64),
            ]
        })
        .collect()
}

/// The same per-stage breakdown as a JSON array (one object per stage,
/// keyed by the stage's stable snake_case name), for the
/// `results/BENCH_*.json` writers. `stage_ns` is the stage's total time
/// across all runs; `stage_hits` counts short-circuits and fires.
pub fn stage_breakdown_json(stats: &joza_core::JozaStats) -> String {
    let entries = joza_core::StageId::ALL
        .iter()
        .map(|&stage| {
            let i = stage.index();
            format!(
                "      {{\"stage\": \"{}\", \"stage_runs\": {}, \"stage_hits\": {}, \
                 \"stage_ns\": {}, \"mean_ns\": {:.0}}}",
                stage.name(),
                stats.stage_runs[i],
                stats.stage_hits[i],
                stats.stage_ns[i],
                stats.stage_ns[i] as f64 / stats.stage_runs[i].max(1) as f64
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{entries}\n    ]")
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Yes/No rendering for detection grids.
pub fn yn(detected: bool) -> String {
    if detected { "Yes" } else { "No" }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_separator() {
        let t = render_table(
            &["a", "long header"],
            &[vec!["xxxxx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[1].starts_with("|-"));
    }

    #[test]
    fn percentile_and_json_escape() {
        let sorted: Vec<Duration> = (1..=5).map(Duration::from_micros).collect();
        assert_eq!(percentile(&sorted, 0.5), Duration::from_micros(3));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_micros(5));
        assert_eq!(percentile(&[], 0.99), Duration::ZERO);
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }

    #[test]
    fn pct_and_yn() {
        assert_eq!(pct(0.0453), "4.53%");
        assert_eq!(yn(true), "Yes");
        assert_eq!(yn(false), "No");
    }
}
