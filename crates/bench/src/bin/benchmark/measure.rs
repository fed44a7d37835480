//! Measurement primitives: latency percentiles, quartiles, process CPU
//! time, peak resident memory, and the host-speed reference.

use std::time::Duration;

/// A latency distribution summary in the form the benchmark reports it:
/// the median, the 99th percentile, and the sample count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// Nearest-rank percentiles over `values` (any order).
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            p50: nearest_rank(&sorted, 0.50),
            p99: nearest_rank(&sorted, 0.99),
        }
    }

    /// Whether at least ten samples lie beyond the 99th percentile, the
    /// least a tail percentile needs to mean anything.
    pub fn p99_supported(&self) -> bool {
        self.count >= 1000
    }
}

/// The nearest-rank `p`-quantile of ascending `sorted` (0 when empty).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (0 when empty), as `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    match values {
        [] => 0.0,
        [only] => *only,
        _ => quartiles(values).map_or(0.0, |q| q.1),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) and `statistics.median` do, so spreads agree with any tooling
/// built on them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    let median = if ld % 2 == 1 { d[ld / 2] } else { (d[ld / 2 - 1] + d[ld / 2]) / 2.0 };
    Some((q(1), median, q(3)))
}

/// About the time one unit of [`reference_work`] takes where the benchmark
/// times it (on both workers at once, between rounds) on the 2-vCPU x86-64
/// host the bounds were fixed on. End-to-end timings are reported as they
/// would read on a host running at that speed.
pub const REFERENCE_WORK: Duration = Duration::from_micros(800);

/// How far the workloads' timings move with the host slowdown the
/// reference measures, as the exponent `e` in `timing ∝ slowdown^e`. The
/// reference is more sensitive to the host's contention than the
/// workloads are: fitted log-log over seeded runs of every workload on the
/// 2-vCPU host the bounds were fixed on, `e` was 0.55-0.95 for throughput
/// and CPU per request, and scattered more widely around the same range
/// for the latencies, so one value serves every timing.
pub const HOST_ELASTICITY: f64 = 0.8;

/// The factor by which a host `slowdown` (the reference's time over
/// [`REFERENCE_WORK`]) stretches the workloads' timings: durations are
/// divided by it and rates multiplied, to read them at the reference speed.
pub fn host_factor(slowdown: f64) -> f64 {
    if slowdown > 0.0 {
        slowdown.powf(HOST_ELASTICITY)
    } else {
        1.0
    }
}

/// Times one unit of fixed work that depends on nothing in the
/// repository: formatting short strings, hashing them into a map, and
/// sorting, about the allocation and memory profile of serving a request.
/// Taken next to the workload, its time says how fast the host runs at
/// that moment; on a shared host that speed drifts by tens of percent
/// over seconds, and it moves every timing of the workload with it.
pub fn reference_work() -> Duration {
    let t = std::time::Instant::now();
    let mut map: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..4000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let e = map.entry(format!("k{:x}-{}", x % 1500, i % 7)).or_insert(0);
        *e = e.wrapping_add(i ^ x);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_unstable();
    std::hint::black_box(keys.len());
    t.elapsed()
}

/// User plus system CPU time consumed so far by every thread of this
/// process.
#[cfg(target_os = "linux")]
pub fn process_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` (two
    // `struct timeval`s of two longs each, then fourteen longs), `usage`
    // is a live, writable value of it for the whole call, and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into `usage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu() -> Duration {
    panic!("the benchmark reads process CPU time through Linux getrusage")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_with_counts() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert!(s.p99_supported(), "exactly ten samples lie beyond the 99th percentile");
        let small = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.count, small.p50, small.p99), (3, 2.0, 3.0));
        assert!(!small.p99_supported());
        assert_eq!(Summary::of(&[]).p99, 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), Some((1.0, 3.0, 7.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!((median(&[]), median(&[4.0]), median(&[3.0, 1.0, 2.0, 9.0])), (0.0, 4.0, 2.5));
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        while process_cpu() == before {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }

    #[test]
    fn reference_work_takes_time() {
        let fastest = (0..5).map(|_| reference_work()).min().expect("five runs");
        assert!(fastest > Duration::from_micros(50), "{fastest:?}");
    }
}
