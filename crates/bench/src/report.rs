//! Minimal aligned-column table rendering for the `paper` sections, plus
//! the provenance line of the claims table and the percentile and
//! per-stage breakdown helpers the serving sections share.

use std::path::Path;
use std::time::Duration;

/// The git revision of the working tree (`git rev-parse --short=12
/// HEAD`), suffixed `-dirty` when tracked files have uncommitted changes,
/// or `"unknown"` when git is unavailable — e.g. running from an exported
/// source tarball.
fn git_rev() -> String {
    git_rev_in(Path::new("."))
}

/// [`git_rev`] for the working tree that contains `dir`.
fn git_rev_in(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(dir)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short=12", "HEAD"]).filter(|s| !s.is_empty()) else {
        return "unknown".to_string();
    };
    let changes = git(&["status", "--porcelain", "--untracked-files=no"]);
    if changes.is_some_and(|c| !c.is_empty()) {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// The provenance of a run's numbers, as one line: the git revision they
/// were produced from, the host's available hardware parallelism, the
/// default NTI matching kernel, and the phpsim serving engine the
/// web-application simulator defaults to (`tree-walk` numbers are not
/// comparable with `vm` numbers on interpreter-bound workloads).
///
/// # Examples
///
/// ```
/// let p = joza_bench::report::provenance();
/// assert!(p.starts_with("git "));
/// assert!(p.ends_with("NTI kernel bit-parallel, engine vm"));
/// ```
pub fn provenance() -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "git {}, {threads} host threads, NTI kernel {}, engine {}",
        git_rev(),
        joza_core::MatchKernel::default(),
        joza_webapp::Engine::default()
    )
}

/// The `p`-th percentile (0.0–1.0, nearest rank) of an ascending slice;
/// zero when empty.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
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
    fn percentile_nearest_rank() {
        let sorted: Vec<Duration> = (1..=5).map(Duration::from_micros).collect();
        assert_eq!(percentile(&sorted, 0.5), Duration::from_micros(3));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_micros(5));
        assert_eq!(percentile(&[], 0.99), Duration::ZERO);
    }

    #[test]
    fn git_rev_marks_a_dirty_tree() {
        let dir = std::env::temp_dir().join(format!("joza-git-rev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(git_rev_in(&dir), "unknown", "not a repository");
        if std::process::Command::new("git").arg("--version").output().is_err() {
            return; // no git on this host: only the fallback is testable
        }
        let git = |args: &[&str]| {
            let ok = std::process::Command::new("git")
                .args(["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"])
                .args(args)
                .current_dir(&dir)
                .output()
                .is_ok_and(|o| o.status.success());
            assert!(ok, "git {args:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("f"), "a").unwrap();
        git(&["add", "f"]);
        git(&["commit", "-q", "-m", "c"]);
        let clean = git_rev_in(&dir);
        assert_eq!(clean.len(), 12, "{clean}");
        std::fs::write(dir.join("untracked"), "x").unwrap();
        assert_eq!(git_rev_in(&dir), clean, "untracked files leave the tree clean");
        std::fs::write(dir.join("f"), "b").unwrap();
        assert_eq!(git_rev_in(&dir), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pct_and_yn() {
        assert_eq!(pct(0.0453), "4.53%");
        assert_eq!(yn(true), "Yes");
        assert_eq!(yn(false), "No");
    }
}
