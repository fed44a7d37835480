//! Multi-worker request serving over the testbed, and a gate-direct
//! replay of the SQL it issues.
//!
//! The paper's deployment interposes Joza on a production web server,
//! where many PHP workers serve requests concurrently against **one**
//! shared protection engine. This module reproduces that regime two ways,
//! both over a pool of worker threads taking interleaved requests:
//!
//! * [`serve_parallel`] — each worker owns its own application instance
//!   (PHP workers share no interpreter state) and serves full HTTP
//!   requests, all funnelling queries through a single shared
//!   [`GateFactory`]. Workers get *independent* database instances, so
//!   the workload must tolerate per-worker write isolation.
//! * [`capture`] + [`replay`] — serve the traffic once, unprotected, and
//!   keep each request's route, raw inputs and SQL batch; then push the
//!   batches straight into [`JozaSession::check_batch`], one session per
//!   request. The interpreter is out of the measured region, so the
//!   replay times the gate itself on the traffic the application really
//!   emits.
//!
//! What is genuinely shared — and genuinely contended — is the gate:
//! fragment store, automaton, query cache, and the per-worker PTI shards
//! behind it.
//!
//! [`JozaSession::check_batch`]: joza_core::JozaSession::check_batch

use crate::Lab;
use joza_core::{Joza, QueryCheck, Verdict};
use joza_webapp::gate::GateFactory;
use joza_webapp::request::HttpRequest;
use joza_webapp::server::Response;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Runs `work(state, i)` for every `i < n` from `threads` workers. Worker
/// `w` builds its state with `setup` (untimed), waits at a barrier with
/// the others, then takes indices `w, w + threads, …`. Returns the
/// results in index order and the wall-clock time from the first
/// worker's start to the last worker's finish. The workers read the
/// clock themselves: a coordinating thread that reads it after the
/// barrier may not be scheduled until the workers are done.
fn fan_out<S, T, B, W>(threads: usize, n: usize, setup: B, work: W) -> (Vec<T>, Duration)
where
    T: Send,
    B: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    assert!(threads > 0, "serving needs at least one worker");
    let barrier = Barrier::new(threads);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut span: Option<(Instant, Instant)> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (barrier, setup, work) = (&barrier, &setup, &work);
                s.spawn(move || {
                    let mut state = setup();
                    barrier.wait();
                    let started = Instant::now();
                    let out: Vec<_> =
                        (w..n).step_by(threads).map(|i| (i, work(&mut state, i))).collect();
                    (started, out, Instant::now())
                })
            })
            .collect();
        for h in handles {
            let (started, out, finished) = h.join().expect("serving worker panicked");
            indexed.extend(out);
            span =
                Some(span.map_or((started, finished), |(a, b)| (a.min(started), b.max(finished))));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    let wall = span.map_or(Duration::ZERO, |(started, finished)| finished - started);
    (indexed.into_iter().map(|(_, t)| t).collect(), wall)
}

/// Outcome of one parallel serving run.
#[derive(Debug)]
pub struct ParallelRun {
    /// Responses in the same order as the input request list.
    pub responses: Vec<Response>,
    /// Wall-clock time from the moment every worker was ready (labs
    /// built, caches whatever the factory left them) until the last
    /// worker finished its partition. Lab construction is excluded.
    pub wall: Duration,
}

/// Serves `requests` from `threads` worker threads against one shared
/// gate factory.
///
/// Each worker builds its own lab with `build` (untimed), takes the
/// requests at indices `w, w + threads, w + 2·threads, …`, and serves
/// them through `factory`. All workers start together behind a barrier;
/// the returned [`ParallelRun::wall`] covers only the serving phase.
/// Responses come back in input order regardless of which worker served
/// them.
///
/// With `threads == 1` this is equivalent to a plain sequential loop over
/// `Server::handle_with`, which is what makes single-threaded and
/// multi-threaded verdicts directly comparable.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics.
pub fn serve_parallel<F>(
    build: F,
    factory: &dyn GateFactory,
    threads: usize,
    requests: &[HttpRequest],
) -> ParallelRun
where
    F: Fn() -> Lab + Sync,
{
    let (responses, wall) = fan_out(threads, requests.len(), build, |lab: &mut Lab, i| {
        lab.server.handle_with(&requests[i], factory)
    });
    ParallelRun { responses, wall }
}

/// One request of a captured SQL stream: the route it hit, the raw
/// inputs it carried, and every query the unprotected application issued
/// while serving it — all the gate sees of a request.
#[derive(Debug, Clone)]
pub struct CapturedRequest {
    /// The route (plugin slug) the request addressed.
    pub route: String,
    /// The request's raw `(name, value)` inputs, for NTI.
    pub inputs: Vec<(String, String)>,
    /// The request's queries, in issue order: one `check_batch` call.
    pub checks: Vec<QueryCheck>,
}

/// Serves `requests` once through `lab`, unprotected, and captures each
/// request's SQL batch — the corpus [`replay`] checks.
///
/// # Panics
///
/// Panics if a request issues no SQL.
pub fn capture(lab: &mut Lab, requests: &[HttpRequest]) -> Vec<CapturedRequest> {
    requests
        .iter()
        .map(|req| {
            let resp = lab.server.handle(req);
            assert!(!resp.queries.is_empty(), "captured request issued no SQL: {}", req.path);
            CapturedRequest {
                route: req.path.clone(),
                inputs: req.all_inputs().into_iter().map(|(_, n, v)| (n, v)).collect(),
                checks: resp.queries.iter().map(QueryCheck::new).collect(),
            }
        })
        .collect()
}

/// Outcome of one [`replay`].
#[derive(Debug)]
pub struct ReplayRun {
    /// Per-request verdict batches, in corpus order.
    pub verdicts: Vec<Vec<Verdict>>,
    /// Per-request latency (session open, input capture, batch check),
    /// in corpus order.
    pub latencies: Vec<Duration>,
    /// Wall-clock time from the first worker's start to the last
    /// worker's finish.
    pub wall: Duration,
}

impl ReplayRun {
    /// Total queries checked.
    pub fn queries(&self) -> usize {
        self.verdicts.iter().map(Vec::len).sum()
    }
}

/// Replays a captured corpus into `joza` from `threads` workers, with
/// the same interleaving as [`serve_parallel`]: each request opens a
/// session on its route, captures its inputs, and checks its whole batch
/// with one [`JozaSession::check_batch`] call. With `threads == 1` the
/// replay is a plain sequential loop, which is what makes single- and
/// multi-threaded verdicts directly comparable.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics.
///
/// [`JozaSession::check_batch`]: joza_core::JozaSession::check_batch
pub fn replay(joza: &Joza, corpus: &[CapturedRequest], threads: usize) -> ReplayRun {
    let (timed, wall) = fan_out(
        threads,
        corpus.len(),
        || (),
        |_, i| {
            let r = &corpus[i];
            let started = Instant::now();
            let mut session = joza.session_for(&r.route);
            for (name, value) in &r.inputs {
                session.capture_input(name, value);
            }
            let verdicts = session.check_batch(&r.checks);
            (verdicts, started.elapsed())
        },
    );
    let (verdicts, latencies) = timed.into_iter().unzip();
    ReplayRun { verdicts, latencies, wall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_lab;
    use crate::verify::request_for;
    use joza_core::JozaConfig;
    use joza_webapp::gate::AllowAll;

    fn crawl(n: usize) -> Vec<HttpRequest> {
        (0..n)
            .map(|i| HttpRequest::get("single-post").param("p", &(1 + i % 5).to_string()))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_order_and_bodies() {
        let requests = crawl(12);
        let mut reference = build_lab();
        let expected: Vec<String> =
            requests.iter().map(|r| reference.server.handle(r).body.clone()).collect();
        let run = serve_parallel(build_lab, &AllowAll, 3, &requests);
        assert_eq!(run.responses.len(), 12);
        let got: Vec<String> = run.responses.iter().map(|r| r.body.clone()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_verdicts_match_single_threaded_gate() {
        let lab = build_lab();
        let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
        let requests = crawl(10);
        let single = serve_parallel(build_lab, &joza, 1, &requests);
        let joza2 = Joza::install(&lab.server.app, JozaConfig::optimized());
        let multi = serve_parallel(build_lab, &joza2, 4, &requests);
        let flags = |run: &ParallelRun| run.responses.iter().map(|r| r.blocked).collect::<Vec<_>>();
        assert_eq!(flags(&single), flags(&multi));
        assert!(flags(&single).iter().all(|b| !b), "benign crawl must not be blocked");
    }

    /// Captured lab traffic with ground truth: comment posts (the
    /// multi-query batches) and every plugin's and CMS case's benign
    /// request, then every exploit. Returns the corpus and how many of
    /// its leading requests are benign.
    fn lab_traffic(lab: &mut Lab) -> (Vec<CapturedRequest>, usize) {
        let targets: Vec<_> = lab.plugins.iter().chain(&lab.cms_cases).cloned().collect();
        let mut requests: Vec<HttpRequest> = (0..8)
            .map(|i| {
                HttpRequest::post("post-comment")
                    .param("comment_post_ID", &(1 + i % 5).to_string())
                    .param("author", &format!("visitor{i}"))
                    .param("comment", &format!("comment #{i}: thanks for the post"))
            })
            .collect();
        requests.extend(targets.iter().map(|p| request_for(p, &p.benign_value)));
        let benign = requests.len();
        requests.extend(targets.iter().map(|p| request_for(p, p.exploit.primary_payload())));
        (capture(lab, &requests), benign)
    }

    /// Asserts the ground truth: no benign request has a flagged query
    /// and every exploit request has at least one.
    fn assert_ground_truth(run: &ReplayRun, benign: usize) {
        for (i, batch) in run.verdicts.iter().enumerate() {
            let flagged = batch.iter().any(|v| !v.is_safe());
            assert_eq!(flagged, i >= benign, "request {i}: flagged = {flagged}");
        }
    }

    #[test]
    fn soak_passes_keep_the_verdict_split_and_count_every_query() {
        // Repeated passes over one corpus warm every cache (the PTI query
        // cache answers every benign query after the first pass); neither
        // the verdicts nor the counters may drift under that load.
        let mut lab = build_lab();
        let (corpus, benign) = lab_traffic(&mut lab);
        let corpus_queries: usize = corpus.iter().map(|r| r.checks.len()).sum();
        assert!(
            corpus.iter().any(|r| r.checks.len() > 3),
            "the corpus must carry batches longer than three queries"
        );
        let joza = Joza::install(&lab.server.app, JozaConfig::optimized());
        let mut first_split = None;
        for pass in 0..6 {
            let before = joza.stats();
            let run = replay(&joza, &corpus, 3);
            let d = joza.stats().since(&before);
            assert_eq!(d.queries as usize, corpus_queries, "pass {pass}: query counter drifted");
            assert_eq!(run.queries(), corpus_queries, "pass {pass}: replay dropped queries");
            assert_eq!(
                d.model_fast_hits + d.static_hits + d.full_checks,
                d.queries,
                "pass {pass}: path partition broken"
            );
            assert_ground_truth(&run, benign);
            let flagged = run.verdicts.iter().flatten().filter(|v| !v.is_safe()).count();
            assert_eq!(d.attacks as usize, flagged, "pass {pass}: attack counter drifted");
            let split = (run.queries() - flagged, flagged);
            assert_eq!(
                *first_split.get_or_insert(split),
                split,
                "pass {pass}: verdict split drifted"
            );
        }
    }

    #[test]
    fn replay_verdicts_bit_identical_across_thread_counts() {
        let mut lab = build_lab();
        let (corpus, benign) = lab_traffic(&mut lab);
        let engine = || Joza::install(&lab.server.app, JozaConfig::optimized());
        let single = replay(&engine(), &corpus, 1);
        let multi = replay(&engine(), &corpus, 4);
        assert_ground_truth(&single, benign);
        assert_eq!(single.verdicts, multi.verdicts);
        assert_eq!(single.latencies.len(), corpus.len());
    }
}
