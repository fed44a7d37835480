//! The check stages (DESIGN.md §9).
//!
//! Every query checked by the engine runs through the five [`StageId`]s,
//! in order:
//!
//! 1. **Static fast path** — the route was proven taint-free by the static
//!    analyzer: allow without further work.
//! 2. **Model fast path** — the route's static query model accepts the
//!    query skeleton: allow without running the dynamic detectors.
//! 3. **NTI** — negative taint inference over the captured raw inputs
//!    (pure over shared state; runs outside any lock).
//! 4. **PTI** — positive taint inference on the calling worker's shard.
//! 5. **Structural** — record the structural-anomaly signal when a
//!    *complete* model rejected the skeleton.
//!
//! `Joza::check_in` calls them as plain code. A stage runs only when it
//! applies: the static fast path when the deployment has a taint-free
//! set, the model fast path when the route has a model, NTI and PTI
//! unless the configuration disables them, and the structural stage when
//! the route's model is complete. A stage that does not apply stays
//! [`StageStatus::Skipped`] and costs nothing, not even a clock read.
//! Only the two fast paths **short-circuit safe**; the dynamic detectors
//! never short-circuit each other (both verdicts are needed for
//! [`Detector::Both`] fusion). A stage's status goes into the verdict's
//! [`StageTrace`], the one record of the check's outcome: the verdict's
//! answers and every statistics counter are read from it. A stage that
//! ran also adds its wall-clock time to the per-stage `stage_ns`
//! breakdown, so `stage_ns / stage_runs` is a cost per run.
//!
//! [`Detector::Both`]: crate::Detector::Both

use crate::artifacts::QueryArtifacts;
use crate::{Joza, RouteModel};
use joza_pti::daemon::{DaemonMode, PreparedSql};
use std::time::Instant;

/// Number of pipeline stages (the length of every per-stage array).
pub const STAGE_COUNT: usize = 5;

/// Identity of one pipeline stage, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Route proven taint-free by static analysis.
    StaticFastPath = 0,
    /// Static query model accepted the skeleton.
    ModelFastPath = 1,
    /// Negative taint inference.
    Nti = 2,
    /// Positive taint inference.
    Pti = 3,
    /// Structural-anomaly signal from a complete model.
    Structural = 4,
}

impl StageId {
    /// All stages, in execution order.
    pub const ALL: [StageId; STAGE_COUNT] = [
        StageId::StaticFastPath,
        StageId::ModelFastPath,
        StageId::Nti,
        StageId::Pti,
        StageId::Structural,
    ];

    /// The stage's index into per-stage arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A stable snake_case name (used as the bench-report key).
    pub fn name(self) -> &'static str {
        match self {
            StageId::StaticFastPath => "static_fast_path",
            StageId::ModelFastPath => "model_fast_path",
            StageId::Nti => "nti",
            StageId::Pti => "pti",
            StageId::Structural => "structural",
        }
    }
}

/// What one stage did for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StageStatus {
    /// The stage did not run: the configuration disables it, its
    /// subsystem is absent (no model for the route), or an earlier stage
    /// short-circuited the check.
    #[default]
    Skipped,
    /// The stage ran and passed the query onward.
    Passed,
    /// The stage ran and answered *safe* for the whole check; later
    /// stages were skipped.
    ShortCircuited,
    /// The stage ran and raised its signal (a detector flagged an attack,
    /// or the structural stage flagged an anomaly).
    Fired,
}

/// Per-stage provenance of one verdict: the status of every pipeline
/// stage for the checked query, plus the generation of the deployment
/// (model index + taint-free whitelist release) that served it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTrace {
    stages: [StageStatus; STAGE_COUNT],
    generation: u64,
}

impl StageTrace {
    /// The recorded status of `stage`.
    pub fn status(&self, stage: StageId) -> StageStatus {
        self.stages[stage.index()]
    }

    /// Whether `stage` ran at all for this query.
    pub fn ran(&self, stage: StageId) -> bool {
        self.status(stage) != StageStatus::Skipped
    }

    /// The deployment generation this query was checked under: `0` for
    /// the engine as built, incremented by every successful
    /// `Joza::deploy`. Part of the verdict's provenance — it answers
    /// "*which* model release produced this verdict" under live
    /// hot-swapping.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn for_generation(generation: u64) -> StageTrace {
        StageTrace { generation, ..StageTrace::default() }
    }

    pub(crate) fn set(&mut self, stage: StageId, status: StageStatus) {
        self.stages[stage.index()] = status;
    }

    /// Whether `stage` fired, or `None` when it did not run.
    pub(crate) fn fired(&self, stage: StageId) -> Option<bool> {
        self.ran(stage).then(|| self.status(stage) == StageStatus::Fired)
    }
}

/// The context one check hands its stages.
pub(crate) struct CheckCx<'a, 'q> {
    pub route: Option<&'a str>,
    pub model: Option<&'a RouteModel>,
    /// The taint-free whitelist of the deployment serving this check
    /// (stages must not read it off the engine: the engine's current
    /// deployment may already be newer than the session's pinned one).
    pub taint_free: Option<&'a std::collections::BTreeSet<String>>,
    /// The captured inputs NTI compares with the query.
    pub inputs: joza_nti::Inputs<'a>,
    pub artifacts: &'a QueryArtifacts<'q>,
    /// The calling thread's check arena; stages lease scratch buffers
    /// (e.g. NTI's per-input fold buffer) from it.
    pub arena: &'a crate::arena::CheckArena,
    pub trace: StageTrace,
    pub stage_ns: [u64; STAGE_COUNT],
}

impl CheckCx<'_, '_> {
    /// Runs stage `id` when it `applies`: records the status it returns
    /// in the trace and its wall-clock time in `stage_ns`. A stage that
    /// does not apply is neither run nor timed, and its slot stays
    /// [`StageStatus::Skipped`]. Returns whether the stage
    /// short-circuited the check.
    pub(crate) fn run(
        &mut self,
        id: StageId,
        applies: bool,
        stage: impl FnOnce(&Self) -> StageStatus,
    ) -> bool {
        if !applies {
            return false;
        }
        let t0 = Instant::now();
        let status = stage(self);
        self.stage_ns[id.index()] += t0.elapsed().as_nanos() as u64;
        self.trace.set(id, status);
        status == StageStatus::ShortCircuited
    }
}

/// Stage 1: allow routes the static taint analyzer proved taint-free.
/// Applies when the deployment has a taint-free set.
pub(crate) fn static_fast_path(cx: &CheckCx<'_, '_>) -> StageStatus {
    short_circuit_if(cx.route.zip(cx.taint_free).is_some_and(|(r, set)| set.contains(r)))
}

/// Stage 2: allow skeletons the route's static query model accepts.
/// Applies when the route has a model.
///
/// A skeleton the automaton accepts confines every dynamic value to a
/// single data literal, so no token-level injection can be present — the
/// dynamic detectors are skipped entirely (see DESIGN.md §8 for the
/// soundness argument).
pub(crate) fn model_fast_path(cx: &CheckCx<'_, '_>) -> StageStatus {
    short_circuit_if(cx.model.is_some_and(|m| m.accepts_syms(cx.artifacts.skeleton())))
}

/// Stage 3: negative taint inference. Pure over shared engine state — no
/// lock is taken, so N workers run their edit-distance passes in parallel.
pub(crate) fn nti(joza: &Joza, cx: &CheckCx<'_, '_>) -> StageStatus {
    let artifacts = cx.artifacts;
    let view = joza_nti::QueryView {
        query: artifacts.query(),
        criticals: artifacts.criticals(joza.config.nti.critical),
        normalized: artifacts.normalized(),
    };
    let mut fold = cx.arena.input_fold.lease();
    let mut grams = cx.arena.query_grams.lease();
    let (report, _work) = joza.nti.analyze_view_with(cx.inputs, view, &mut fold, &mut grams);
    fired_if(report.is_attack())
}

/// Stage 4: positive taint inference on the calling worker's shard. The
/// shard lock is held only for the PTI call itself.
pub(crate) fn pti(joza: &Joza, cx: &CheckCx<'_, '_>) -> StageStatus {
    let artifacts = cx.artifacts;
    // Only the in-process deployment can reuse the artifacts: the
    // daemon modes ship the raw query over the pipe protocol and
    // re-lex daemon-side, exactly like the paper's deployment. The
    // fingerprint is only derived when the structure cache will
    // consult it.
    let prep = (joza.config.pti.mode == DaemonMode::InProcess).then(|| PreparedSql {
        tokens: artifacts.tokens(),
        fingerprint: joza.config.pti.structure_cache.then(|| artifacts.fingerprint()),
    });
    let decision = joza.shard().lock().check_prepared(artifacts.query(), prep);
    fired_if(!decision.safe)
}

fn short_circuit_if(safe: bool) -> StageStatus {
    if safe {
        StageStatus::ShortCircuited
    } else {
        StageStatus::Passed
    }
}

fn fired_if(attack: bool) -> StageStatus {
    if attack {
        StageStatus::Fired
    } else {
        StageStatus::Passed
    }
}
