//! Contention-free engine statistics (DESIGN.md §11).
//!
//! Every check reads its counters off its verdict's stage trace into a
//! plain, unsynchronized [`JozaStats`] delta on its own stack (a batch
//! accumulates one delta for all its checks). The delta is flushed once
//! into the calling worker's [`StatsCell`]: a cache-line-aligned block of
//! relaxed `AtomicU64`s that only threads mapped to that cell ever write.
//! [`StatsCell::snapshot`] (driven by `Joza::stats`) reads every cell on
//! the *read* side, which is where the cost belongs: stats are read a
//! handful of times per run, not once per query.
//!
//! A cell keeps each fact once: `queries`, `attacks`, the two route-miss
//! counters and the per-stage `stage_runs`, `stage_hits` and `stage_ns`.
//! The snapshot derives the rest. Detections, fast-path hits and
//! anomalies are their stage's `stage_hits` entry, `full_checks` is
//! `queries` minus the two fast-path hits, and `nti_time`/`pti_time` are
//! the NTI and PTI `stage_ns` entries. The path partition
//! (`model_fast_hits + static_hits + full_checks == queries`) therefore
//! holds in every snapshot. The counters are independent atomics, so a
//! snapshot taken *while a flush is in flight* may see part of a delta —
//! a fast-path hit before its query, say, which is why `full_checks` is a
//! saturating difference; once the writers are done (a join, a barrier,
//! the end of a batch) every snapshot is exact.
//!
//! [`JozaStats`]: crate::JozaStats

use crate::{JozaStats, StageId, STAGE_COUNT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One worker's statistics slot: the counters [`JozaStats`] derives the
/// others from, as relaxed atomics, aligned to their own cache lines so
/// neighbouring workers never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    queries: AtomicU64,
    attacks: AtomicU64,
    route_misses_unknown: AtomicU64,
    route_misses_incomplete: AtomicU64,
    stage_runs: [AtomicU64; STAGE_COUNT],
    stage_hits: [AtomicU64; STAGE_COUNT],
    stage_ns: [AtomicU64; STAGE_COUNT],
}

/// Adds `delta` into `cell`, skipping the atomic RMW entirely when the
/// delta is zero (most counters are, per check).
fn flush(cell: &AtomicU64, delta: u64) {
    if delta != 0 {
        cell.fetch_add(delta, Ordering::Relaxed);
    }
}

impl StatsCell {
    /// Folds a locally-accumulated delta into the cell. Relaxed ordering
    /// throughout: counters are monotone and independently meaningful,
    /// and exactness is only promised at quiescence (see module docs).
    /// The delta's derived counters are ignored.
    pub(crate) fn add(&self, delta: &JozaStats) {
        flush(&self.queries, delta.queries);
        flush(&self.attacks, delta.attacks);
        flush(&self.route_misses_unknown, delta.route_misses_unknown);
        flush(&self.route_misses_incomplete, delta.route_misses_incomplete);
        for i in 0..STAGE_COUNT {
            flush(&self.stage_runs[i], delta.stage_runs[i]);
            flush(&self.stage_hits[i], delta.stage_hits[i]);
            flush(&self.stage_ns[i], delta.stage_ns[i]);
        }
    }

    /// Reads the cell into a plain [`JozaStats`], deriving every counter
    /// the cell does not keep (see the module docs).
    pub(crate) fn snapshot(&self) -> JozaStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let stage_runs = self.stage_runs.each_ref().map(load);
        let stage_hits = self.stage_hits.each_ref().map(load);
        let stage_ns = self.stage_ns.each_ref().map(load);
        let hits = |id: StageId| stage_hits[id.index()];
        let queries = load(&self.queries);
        JozaStats {
            queries,
            attacks: load(&self.attacks),
            nti_detections: hits(StageId::Nti),
            pti_detections: hits(StageId::Pti),
            nti_time: Duration::from_nanos(stage_ns[StageId::Nti.index()]),
            pti_time: Duration::from_nanos(stage_ns[StageId::Pti.index()]),
            model_fast_hits: hits(StageId::ModelFastPath),
            static_hits: hits(StageId::StaticFastPath),
            full_checks: queries
                .saturating_sub(hits(StageId::ModelFastPath) + hits(StageId::StaticFastPath)),
            model_anomalies: hits(StageId::Structural),
            route_misses_unknown: load(&self.route_misses_unknown),
            route_misses_incomplete: load(&self.route_misses_incomplete),
            stage_runs,
            stage_hits,
            stage_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_then_snapshot_round_trips() {
        let cell = StatsCell::default();
        let mut delta = JozaStats { queries: 3, attacks: 1, ..JozaStats::default() };
        delta.stage_hits[StageId::ModelFastPath.index()] = 1;
        delta.stage_hits[StageId::Nti.index()] = 1;
        delta.stage_ns[StageId::Nti.index()] = 250;
        delta.stage_runs[StageId::Nti.index()] = 2;
        delta.stage_ns[StageId::Pti.index()] = 99;
        // Derived counters in a delta are not flushed.
        delta.full_checks = 100;
        cell.add(&delta);
        cell.add(&delta);
        let snap = cell.snapshot();
        assert_eq!(snap.queries, 6);
        assert_eq!(snap.attacks, 2);
        assert_eq!((snap.model_fast_hits, snap.static_hits, snap.full_checks), (2, 0, 4));
        assert_eq!(snap.nti_detections, 2);
        assert_eq!(snap.nti_time, Duration::from_nanos(500));
        assert_eq!(snap.stage_runs[StageId::Nti.index()], 4);
        assert_eq!(snap.stage_ns[StageId::Pti.index()], 198);
    }

    #[test]
    fn a_hit_seen_before_its_query_saturates_full_checks() {
        let cell = StatsCell::default();
        let mut hit = JozaStats::default();
        hit.stage_hits[StageId::StaticFastPath.index()] = 1;
        cell.add(&hit);
        assert_eq!(cell.snapshot().full_checks, 0);
    }

    #[test]
    fn since_subtracts_every_field() {
        // Every field distinct and nonzero, listed without `..default()`
        // so a new counter must be added here too. `full_checks` is
        // `queries` minus the two fast-path hits, as in a snapshot.
        let counters = |k: u64| JozaStats {
            queries: 100 * k,
            attacks: 2 * k,
            nti_detections: 3 * k,
            pti_detections: 4 * k,
            nti_time: Duration::from_nanos(5 * k),
            pti_time: Duration::from_nanos(6 * k),
            model_fast_hits: 7 * k,
            static_hits: 8 * k,
            full_checks: 85 * k,
            model_anomalies: 10 * k,
            route_misses_unknown: 11 * k,
            route_misses_incomplete: 12 * k,
            stage_runs: std::array::from_fn(|i| (13 + i as u64) * k),
            stage_hits: std::array::from_fn(|i| (23 + i as u64) * k),
            stage_ns: std::array::from_fn(|i| (33 + i as u64) * k),
        };
        let (before, delta) = (counters(1), counters(2));
        let mut after = before;
        after.merge(&delta);
        assert_eq!(after.since(&before), delta);
        assert_eq!(after.since(&after), JozaStats::default());
    }

    #[test]
    fn since_survives_a_snapshot_that_raced_a_flush() {
        // The later snapshot saw a static hit before its query: it reads
        // `full_checks` one lower than the earlier, quiescent one.
        let before =
            JozaStats { queries: 10, static_hits: 4, full_checks: 6, ..JozaStats::default() };
        let after =
            JozaStats { queries: 12, static_hits: 7, full_checks: 5, ..JozaStats::default() };
        let d = after.since(&before);
        assert_eq!((d.queries, d.static_hits, d.full_checks), (2, 3, 0));
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let cell = StatsCell::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        let delta = JozaStats { queries: 1, ..JozaStats::default() };
                        cell.add(&delta);
                    }
                });
            }
        });
        let snap = cell.snapshot();
        assert_eq!(snap.queries, 4000);
        assert_eq!(snap.full_checks, 4000);
    }
}
