//! `--compare A B`: compares two sets of recorded runs, workload by
//! workload and end-to-end metric by metric, against the bounds in
//! `BENCHMARK.json`; see [`rows`] for what else it judges.
//!
//! A side's spread is the distance between its first and third quartile
//! as a share of its median. A metric whose spread exceeds its bound on
//! either side is *unresolved* (unless every run of B beats every run of
//! A); otherwise B is *within bound* when its median is no worse than A's
//! by more than the bound, and *worse* when it is.

use crate::json::Json;
use crate::measure::quartiles;
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` entries of a parsed `BENCHMARK.json`.
pub fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let entries = spec.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Recorded metric values of untraced runs: workload → metric → values.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a record file written with `--record` (one JSON object a line).
pub fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_records(path, &text)
}

fn parse_records(path: &str, text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let record = Json::parse(line).map_err(|e| bad(&e))?;
        if record.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload =
            record.get("workload").and_then(Json::as_str).ok_or_else(|| bad("no workload"))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no result metrics"))?;
        // Older records have no `info`; it holds the metrics printed but
        // kept out of the result line.
        let info = record.get("info").and_then(Json::as_object).unwrap_or_default();
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics.iter().chain(info) {
            let value =
                m.get("value").and_then(Json::as_f64).ok_or_else(|| bad("metric without value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding {
    WithinBound,
    Better,
    Worse,
    Unresolved,
    Missing,
}

impl Finding {
    pub fn label(self) -> &'static str {
        match self {
            Finding::WithinBound => "within bound",
            Finding::Better => "better",
            Finding::Worse => "worse",
            Finding::Unresolved => "unresolved",
            Finding::Missing => "missing",
        }
    }
}

/// Judges B against A for one metric.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Finding {
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    if bound.bound == 0.0 {
        // A zero bound admits no worsening: no run of B may be worse than
        // the best run of A.
        let best = a.iter().copied().reduce(|x, y| if beats(y, x) { y } else { x });
        return match best {
            Some(_) if b.is_empty() => Finding::Missing,
            Some(best) if b.iter().any(|&x| beats(best, x)) => Finding::Worse,
            Some(_) => Finding::WithinBound,
            None => Finding::Missing,
        };
    }
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return Finding::Missing;
    };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if (a3 - a1) / am > bound.bound || (b3 - b1) / bm > bound.bound {
        return if all_better { Finding::Better } else { Finding::Unresolved };
    }
    let worsening = sign * (bm - am) / am;
    if worsening > bound.bound {
        Finding::Worse
    } else if all_better {
        Finding::Better
    } else {
        Finding::WithinBound
    }
}

/// Whether a row of the comparison must be within bound or better
/// (`Required`), only not worse (`NotWorse`), or is judged only where the
/// records hold it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    Required,
    WhereRecorded,
    NotWorse,
}

/// The rows `--compare` judges: every end-to-end metric of
/// `BENCHMARK.json` (required); the failure rate with a zero bound and the
/// attack latency with the bound of `benign_p50_us`, the latency it
/// mirrors, both printed but kept out of the result line since each is 0
/// on some workload; and every timing as measured before the host-speed
/// adjustment, with its adjusted value's bound. An unadjusted timing may
/// be unresolved, since it carries the host drift the adjustment removes,
/// but not worse.
fn rows(bounds: &[Bound]) -> Vec<(Bound, Rule)> {
    let mut rows: Vec<(Bound, Rule)> = bounds.iter().map(|b| (b.clone(), Rule::Required)).collect();
    rows.push((
        Bound { name: "fail_rate".into(), lower_is_better: true, bound: 0.0 },
        Rule::WhereRecorded,
    ));
    if let Some(p50) = bounds.iter().find(|b| b.name == "benign_p50_us") {
        rows.push((Bound { name: "attack_p50_us".into(), ..p50.clone() }, Rule::WhereRecorded));
    }
    let unadjusted: Vec<(Bound, Rule)> = rows
        .iter()
        .filter(|(b, _)| b.bound > 0.0)
        .map(|(b, _)| {
            (Bound { name: format!("{}.unadjusted", b.name), ..b.clone() }, Rule::NotWorse)
        })
        .collect();
    rows.extend(unadjusted);
    rows
}

/// Prints the comparison table; `Ok(true)` when every required pairing is
/// within bound or better and no other recorded pairing is worse.
pub fn run(a_path: &str, b_path: &str, spec_path: &str) -> Result<bool, String> {
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let bounds = bounds(&Json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .filter(|w| a.contains_key(w) || b.contains_key(w))
        .collect();
    workloads.extend(a.keys().chain(b.keys()).filter(|w| Workload::parse(w).is_none()).cloned());
    workloads.dedup();
    let side = |v: &[f64]| match quartiles(v) {
        Some((q1, m, q3)) if m != 0.0 => {
            format!("{m:.4} [{q1:.4}, {q3:.4}] n={} spread {:.2}%", v.len(), (q3 - q1) / m * 100.0)
        }
        Some((q1, m, q3)) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len()),
        None => format!("n={}", v.len()),
    };
    println!("A = {a_path}, B = {b_path}, bounds from {spec_path}");
    let mut all_ok = true;
    for w in &workloads {
        for (bound, rule) in rows(&bounds) {
            let values = |runs: &Runs| -> Vec<f64> {
                runs.get(w).and_then(|m| m.get(&bound.name)).cloned().unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            if rule != Rule::Required && va.is_empty() && vb.is_empty() {
                continue;
            }
            let finding = judge(&va, &vb, &bound);
            let change = match (quartiles(&va), quartiles(&vb)) {
                (Some((_, am, _)), Some((_, bm, _))) if am != 0.0 => {
                    format!("{:+.2}%", (bm - am) / am * 100.0)
                }
                _ => "-".to_string(),
            };
            all_ok &= match rule {
                Rule::NotWorse => !matches!(finding, Finding::Worse | Finding::Missing),
                _ => matches!(finding, Finding::WithinBound | Finding::Better),
            };
            println!(
                "{w:<17} {:<26} A {} | B {} | change {change} bound {:.0}% | {}",
                bound.name,
                side(&va),
                side(&vb),
                bound.bound * 100.0,
                finding.label()
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "latency".into(), lower_is_better: true, bound }
    }

    #[test]
    fn findings_follow_medians_spreads_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0, 104.0, 104.5], &lower(0.10)),
            Finding::WithinBound
        );
        assert_eq!(judge(&a, &[120.0, 121.0, 119.0, 120.0, 120.5], &lower(0.10)), Finding::Worse);
        assert_eq!(judge(&a, &[80.0, 81.0, 79.0, 80.0, 80.5], &lower(0.10)), Finding::Better);
        let higher = Bound { lower_is_better: false, ..lower(0.10) };
        assert_eq!(judge(&a, &[80.0, 81.0, 79.0, 80.0, 80.5], &higher), Finding::Worse);
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(judge(&a, &noisy, &lower(0.10)), Finding::Unresolved);
        assert_eq!(judge(&a, &[1.0], &lower(0.10)), Finding::Missing);
    }

    #[test]
    fn a_zero_bound_admits_no_run_worse_than_the_best() {
        let zero = lower(0.0);
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.0, 0.0], &zero), Finding::WithinBound);
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.001], &zero), Finding::Worse);
        assert_eq!(judge(&[0.0, 0.002], &[0.001], &zero), Finding::Worse);
        assert_eq!(judge(&[0.0], &[], &zero), Finding::Missing);
    }

    #[test]
    fn rows_add_printed_metrics_and_unadjusted_timings() {
        let bounds = vec![
            Bound { name: "rps".into(), lower_is_better: false, bound: 0.1 },
            Bound { name: "benign_p50_us".into(), lower_is_better: true, bound: 0.15 },
        ];
        let got: Vec<(String, f64, Rule)> =
            rows(&bounds).into_iter().map(|(b, r)| (b.name, b.bound, r)).collect();
        let want = [
            ("rps", 0.1, Rule::Required),
            ("benign_p50_us", 0.15, Rule::Required),
            ("fail_rate", 0.0, Rule::WhereRecorded),
            ("attack_p50_us", 0.15, Rule::WhereRecorded),
            ("rps.unadjusted", 0.1, Rule::NotWorse),
            ("benign_p50_us.unadjusted", 0.15, Rule::NotWorse),
            ("attack_p50_us.unadjusted", 0.15, Rule::NotWorse),
        ]
        .map(|(n, b, r)| (n.to_string(), b, r));
        assert_eq!(got, want);
    }

    #[test]
    fn reads_bounds_and_records() {
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "rps", "unit": "req/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("spec");
        assert_eq!(
            bounds(&spec),
            Ok(vec![Bound { name: "rps".into(), lower_is_better: false, bound: 0.1 }])
        );
        let record = |trace: u8, v: f64| {
            format!(
                "{{\"workload\": \"wp-read\", \"seed\": 1, \"trace\": {trace}, \"digest\": \"0\", \
                 \"result\": {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"rps\": {{\"value\": {v}, \"unit\": \"req/s\"}}}}}}}}\n"
            )
        };
        let with_info = record(0, 14.0).trim_end().strip_suffix('}').expect("object").to_string()
            + ", \"info\": {\"rps.unadjusted\": {\"value\": 7, \"unit\": \"req/s\"}}}";
        let text = record(0, 10.0) + &record(1, 99.0) + "\n" + &record(0, 12.0) + &with_info;
        let runs = parse_records("runs.jsonl", &text).expect("records parse");
        assert_eq!(runs["wp-read"]["rps"], vec![10.0, 12.0, 14.0], "traced records are skipped");
        assert_eq!(runs["wp-read"]["rps.unadjusted"], vec![7.0]);
        assert!(parse_records("bad.jsonl", "{\"trace\": 0}").is_err());
    }
}
