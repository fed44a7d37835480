//! One benchmark for the gated WP-SQLI-LAB web application: four
//! workloads, end-to-end metrics, and a traced per-layer split.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale X] [--record FILE]
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! With `--workload`, one workload runs and the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
//! with `--trace 1`). Without it, every workload runs in a child process
//! of its own, so that peak memory is per workload, followed by a summary
//! table. `--compare` judges two `--record` files against the bounds in
//! `BENCHMARK.json`. See `README.md` in this directory.

mod compare;
mod json;
mod measure;
mod rig;
mod trace;
mod workloads;

use json::Json;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    record: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: benchmark [--workload wp-read|wp-write|lab-under-attack|gate-dynamic] \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale X] [--record FILE]\n       \
                     benchmark --compare A.jsonl B.jsonl";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: 1.0,
        record: None,
        compare: None,
    };
    let mut it = args.into_iter().peekable();
    let positive = |flag: &str, v: String| match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("{flag} needs a positive number, got {v:?}")),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("--seed needs an integer, got {v:?}"))?;
            }
            "--seconds" => out.seconds = positive("--seconds", value()?)?,
            "--scale" => out.scale = positive("--scale", value()?)?,
            "--record" => out.record = Some(value()?),
            "--compare" => out.compare = Some((value()?, value()?)),
            "--trace" => match it.peek().map(String::as_str) {
                Some("0" | "1") => out.trace = it.next().as_deref() == Some("1"),
                _ => out.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.compare, args.workload) {
        (Some((a, b)), _) => compare::run(a, b, "BENCHMARK.json").unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            false
        }),
        (None, Some(w)) => run_one(w, &args),
        (None, None) => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload; prints its report, its metrics and the result line.
fn run_one(workload: Workload, args: &Args) -> bool {
    let spans_dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("benchmark-spans");
    let opts = rig::Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        spans_dir: Some(spans_dir),
    };
    let out = match rig::run(workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {}: aborted: {e}", workload.name());
            return false;
        }
    };
    for line in &out.report {
        println!("{line}");
    }
    for m in out.metrics.iter().chain(&out.info) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0;
    let result = result_line(correct, &out);
    let mut ok = correct;
    if let Some(path) = &args.record {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"digest\": \"{:016x}\", \"result\": \
             {result}, \"info\": {}}}\n",
            json::quote(workload.name()),
            args.seed,
            u8::from(args.trace),
            out.digest,
            metrics_object(&out.info)
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = written {
            eprintln!("benchmark: cannot append to {path}: {e}");
            ok = false;
        }
    }
    println!("{result}");
    ok
}

fn result_line(correct: bool, out: &rig::Outcome) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_object(&out.metrics)
    )
}

/// `{NAME: {"value": V, "unit": U}, …}`
fn metrics_object(metrics: &[rig::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                m.value,
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Runs every workload in a child process of its own and prints a
/// summary table of the `metric` lines they report.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut table: Vec<(String, String, Vec<Option<f64>>)> = Vec::new();
    for (col, w) in Workload::ALL.into_iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--scale", &args.scale.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(path) = &args.record {
            cmd.args(["--record", path]);
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        println!("== {} ==\n{}", w.name(), stdout.trim_end());
        ok &= output.status.success();
        let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        if last.and_then(|l| l.get("correct").cloned()) != Some(Json::Bool(true)) {
            ok = false;
        }
        for line in stdout.lines() {
            let mut f = line.split(' ');
            let (Some("metric"), Some(name), Some(value), Some(unit)) =
                (f.next(), f.next(), f.next(), f.next())
            else {
                continue;
            };
            let row = match table.iter().position(|(n, _, _)| n == name) {
                Some(i) => i,
                None => {
                    table.push((
                        name.to_string(),
                        unit.to_string(),
                        vec![None; Workload::ALL.len()],
                    ));
                    table.len() - 1
                }
            };
            table[row].2[col] = value.parse().ok();
        }
    }
    println!("\n== summary (seed {}, {} s per workload) ==", args.seed, args.seconds * args.scale);
    print!("{:<36} {:<6}", "metric", "unit");
    for w in Workload::ALL {
        print!(" {:>17}", w.name());
    }
    println!();
    for (name, unit, values) in &table {
        print!("{name:<36} {unit:<6}");
        for v in values {
            match v {
                Some(v) => print!(" {v:>17.4}"),
                None => print!(" {:>17}", "-"),
            }
        }
        println!();
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_single_workload_invocation() {
        let a =
            args(&["--workload", "gate-dynamic", "--seed", "7", "--seconds", "10", "--trace", "0"])
                .expect("parses");
        assert_eq!(a.workload, Some(Workload::GateDynamic));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(args(&["--trace", "1"]).expect("parses").trace);
        assert!(args(&["--trace", "--seed", "2"]).expect("bare flag").trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// `BENCHMARK.json` names exactly the metrics the benchmark reports.
    #[test]
    fn benchmark_json_matches_reported_metrics() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let spec = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                break std::fs::read_to_string(candidate).expect("readable BENCHMARK.json");
            }
            assert!(dir.pop(), "no BENCHMARK.json above {}", env!("CARGO_MANIFEST_DIR"));
        };
        let spec = Json::parse(&spec).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k).and_then(Json::as_str).expect("string field").to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            rig::END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            rig::per_layer_metrics().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
