//! Live-traffic serving over the batch-first gate API.
//!
//! [`serve_parallel`](crate::serve::serve_parallel) measures the engine
//! *through* the simulated PHP application — realistic, but the
//! interpreter dominates the profile, so it cannot isolate the serving
//! seam the API redesign targets. This module drives the gate directly
//! the way a production reverse-proxy tier would: worker threads open a
//! [`JozaSession`] per request and push the request's whole query batch
//! through [`JozaSession::check_batch`], against a synthetic route
//! population with
//!
//! * **Zipf-distributed route popularity** — a few hot endpoints, a long
//!   cold tail, like real web traffic;
//! * **cache-hostile query text** — every check carries a globally unique
//!   literal, so no PTI query-cache hit ever masks a round trip;
//! * **attack bursts** — short runs of exploit requests (UNION-based,
//!   SQLMap-style) interleaved with the benign baseline;
//! * **mid-run deploys** — [`serve_live_deploying`] swaps model releases
//!   via [`Joza::deploy`] while workers are serving, which is exactly the
//!   hot-swap path [`JozaSession`]'s pinned deployment exists for.
//!
//! [`JozaSession`]: joza_core::JozaSession
//! [`JozaSession::check_batch`]: joza_core::JozaSession::check_batch

use joza_core::{Joza, JozaConfig, QueryCheck, QueryModelIndex, RouteModel, Verdict};
use joza_sqlparse::template::{QueryTemplate, TemplatePart};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One synthetic endpoint of the live testbed: a route slug plus the
/// query shape its (imagined) handler emits around one request value.
#[derive(Debug, Clone)]
pub struct LiveRoute {
    /// Route slug, e.g. `live-07`.
    pub slug: String,
    /// Query text before the request-derived value.
    pub prefix: String,
    /// Query text after the request-derived value.
    pub suffix: String,
}

/// The synthetic route population: routes, the PTI fragment vocabulary
/// their handlers would contribute, and the complete static query model
/// for every route (for deploy scenarios; engines may start without it).
#[derive(Debug, Clone)]
pub struct LiveTestbed {
    /// The routes, index-addressed by [`LiveRequest::route`].
    pub routes: Vec<LiveRoute>,
    /// Fragment vocabulary covering every route's literals.
    pub fragments: Vec<String>,
    /// A complete [`RouteModel`] per route (`prefix ⟨hole⟩ suffix`).
    pub models: QueryModelIndex,
}

/// Builds a testbed of `n` routes. Each route queries its own table, so
/// route identity is visible in the query text, and each has a complete
/// one-hole query model.
pub fn live_testbed(n: usize) -> LiveTestbed {
    assert!(n > 0, "live_testbed needs at least one route");
    let mut routes = Vec::with_capacity(n);
    let mut fragments = vec!["k".to_string(), "v".to_string()];
    let mut models = QueryModelIndex::new();
    for i in 0..n {
        let slug = format!("live-{i:02}");
        let prefix = format!("SELECT v FROM live_tab_{i} WHERE k=");
        let suffix = " LIMIT 10".to_string();
        fragments.push(prefix.clone());
        fragments.push(suffix.clone());
        let template = QueryTemplate {
            parts: vec![
                TemplatePart::Lit(prefix.clone()),
                TemplatePart::Hole,
                TemplatePart::Lit(suffix.clone()),
            ],
        };
        models.insert(&slug, RouteModel::build(&[Some(vec![template])]));
        routes.push(LiveRoute { slug, prefix, suffix });
    }
    LiveTestbed { routes, fragments, models }
}

/// Builds the engine for a testbed: fragment vocabulary, the testbed's
/// route universe as `known_routes` (so deploys are validated), and —
/// when `with_models` — the static query models pre-installed.
pub fn live_engine(testbed: &LiveTestbed, config: JozaConfig, with_models: bool) -> Joza {
    let mut b = Joza::builder()
        .fragments(testbed.fragments.iter())
        .config(config)
        .known_routes(testbed.routes.iter().map(|r| r.slug.as_str()));
    if with_models {
        b = b.query_models(testbed.models.clone());
    }
    b.build()
}

/// A Zipf(s) sampler over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Precomputes the distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u = rng.next_u64() as f64 / u64::MAX as f64;
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// Workload shape for [`live_corpus`].
#[derive(Debug, Clone)]
pub struct LiveWorkload {
    /// Number of requests.
    pub requests: usize,
    /// Queries per request (the `check_batch` size).
    pub batch: usize,
    /// Zipf exponent for route popularity (higher = more skew).
    pub zipf_exponent: f64,
    /// Every `burst_period` requests end in an attack burst (`0` disables
    /// attacks entirely).
    pub burst_period: usize,
    /// Length of each attack burst, in consecutive requests.
    pub burst_len: usize,
    /// RNG seed for route sampling.
    pub seed: u64,
    /// First unique literal id. Give each pass a disjoint id range and no
    /// query text ever repeats — the PTI query cache never hits.
    pub id_base: u64,
}

impl Default for LiveWorkload {
    fn default() -> LiveWorkload {
        LiveWorkload {
            requests: 64,
            batch: 4,
            zipf_exponent: 1.1,
            burst_period: 16,
            burst_len: 3,
            seed: 0x4a5a,
            id_base: 0,
        }
    }
}

/// One live request: a route, an attack flag, and the query batch its
/// handler emits. Each query carries its own raw input (the value the
/// "request" supplied for it) via [`QueryCheck::with_input`].
#[derive(Debug, Clone)]
pub struct LiveRequest {
    /// Index into [`LiveTestbed::routes`].
    pub route: usize,
    /// Whether every query in the batch is an exploit (ground truth).
    pub attack: bool,
    /// The batch passed to [`joza_core::JozaSession::check_batch`].
    pub checks: Vec<QueryCheck>,
}

/// Generates a deterministic request corpus: Zipf-sampled routes, benign
/// baseline traffic with unique per-query literals, and attack bursts in
/// the last [`LiveWorkload::burst_len`] requests of every
/// [`LiveWorkload::burst_period`]-sized window.
pub fn live_corpus(testbed: &LiveTestbed, w: &LiveWorkload) -> Vec<LiveRequest> {
    assert!(w.batch > 0, "live_corpus needs at least one query per request");
    let zipf = ZipfSampler::new(testbed.routes.len(), w.zipf_exponent);
    let mut rng = StdRng::seed_from_u64(w.seed);
    let mut next_id = w.id_base;
    (0..w.requests)
        .map(|i| {
            let attack = w.burst_period > 0
                && i % w.burst_period >= w.burst_period.saturating_sub(w.burst_len);
            let route = zipf.sample(&mut rng);
            let r = &testbed.routes[route];
            let checks = (0..w.batch)
                .map(|_| {
                    let id = next_id;
                    next_id += 1;
                    let value =
                        if attack { format!("-1 UNION SELECT {id}") } else { format!("{id}") };
                    QueryCheck::new(format!("{}{value}{}", r.prefix, r.suffix)).with_input(value)
                })
                .collect();
            LiveRequest { route, attack, checks }
        })
        .collect()
}

/// Outcome of one live serving run.
#[derive(Debug)]
pub struct LiveReport {
    /// Per-request verdict batches, in corpus order.
    pub verdicts: Vec<Vec<Verdict>>,
    /// Wall-clock of the serving phase (barrier release to last join).
    pub wall: Duration,
    /// Per-request serving latency (session open + batch check), in
    /// corpus order.
    pub request_latencies: Vec<Duration>,
    /// Highest deployment generation each worker observed on its
    /// sessions.
    pub worker_generations: Vec<u64>,
    /// Wall-clock of the mid-run deploy action, when one was scheduled.
    pub deploy_wall: Option<Duration>,
}

impl LiveReport {
    /// Total queries checked.
    pub fn queries(&self) -> usize {
        self.verdicts.iter().map(Vec::len).sum()
    }

    /// Requests served per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.verdicts.len() as f64 / self.wall.as_secs_f64()
    }

    /// Queries checked per wall-clock second.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.queries() as f64 / self.wall.as_secs_f64()
    }

    /// The `p`-th percentile (0.0–1.0) of per-request latency.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.request_latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.request_latencies.clone();
        sorted.sort();
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }
}

/// Serves `corpus` through `joza` from `threads` workers (no mid-run
/// deploy). See [`serve_live_deploying`].
pub fn serve_live(
    joza: &Joza,
    testbed: &LiveTestbed,
    corpus: &[LiveRequest],
    threads: usize,
) -> LiveReport {
    serve_live_deploying(joza, testbed, corpus, threads, corpus.len() + 1, |_| {})
}

/// Serves `corpus` through `joza` from `threads` worker threads, firing
/// `deploy` from a dedicated deployer thread once `deploy_after` requests
/// have been served (skipped entirely when `deploy_after > corpus.len()`).
///
/// Workers take the requests at indices `w, w + threads, …`; each request
/// opens a session on its route ([`Joza::session_for`] — pinning whatever
/// deployment is live at that instant) and checks its whole batch with
/// one [`joza_core::JozaSession::check_batch`] call. Verdicts and
/// latencies come back in corpus order regardless of which worker served
/// them; with `threads == 1` the run is a plain sequential loop, which is
/// what makes single- and multi-threaded verdicts directly comparable.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics.
pub fn serve_live_deploying<F>(
    joza: &Joza,
    testbed: &LiveTestbed,
    corpus: &[LiveRequest],
    threads: usize,
    deploy_after: usize,
    deploy: F,
) -> LiveReport
where
    F: FnOnce(&Joza) + Send,
{
    assert!(threads > 0, "serve_live needs at least one worker");
    let barrier = Barrier::new(threads + 1);
    let served = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut indexed: Vec<(usize, Vec<Verdict>, Duration)> = Vec::with_capacity(corpus.len());
    let mut worker_generations = Vec::with_capacity(threads);
    let mut wall = Duration::ZERO;
    let mut deploy_wall = None;
    std::thread::scope(|s| {
        let deployer = (deploy_after <= corpus.len()).then(|| {
            let served = &served;
            let done = &done;
            s.spawn(move || {
                while served.load(Ordering::Relaxed) < deploy_after && !done.load(Ordering::Relaxed)
                {
                    std::thread::sleep(Duration::from_micros(100));
                }
                let started = Instant::now();
                deploy(joza);
                started.elapsed()
            })
        });
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let barrier = &barrier;
                let served = &served;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(corpus.len() / threads + 1);
                    let mut max_generation = 0u64;
                    barrier.wait();
                    for (i, req) in corpus.iter().enumerate().skip(w).step_by(threads) {
                        let started = Instant::now();
                        let session = joza.session_for(&testbed.routes[req.route].slug);
                        let verdicts = session.check_batch(&req.checks);
                        let latency = started.elapsed();
                        max_generation = max_generation.max(session.generation());
                        served.fetch_add(1, Ordering::Relaxed);
                        out.push((i, verdicts, latency));
                    }
                    (out, max_generation)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        wall = started.elapsed();
        // Release the deployer before unwrapping worker results, so a
        // worker panic cannot leave it spinning under thread::scope's
        // implicit join.
        done.store(true, Ordering::Relaxed);
        deploy_wall = deployer.map(|h| h.join().expect("serve_live deployer panicked"));
        for j in joined {
            let (out, generation) = j.expect("serve_live worker panicked");
            indexed.extend(out);
            worker_generations.push(generation);
        }
    });
    indexed.sort_by_key(|(i, _, _)| *i);
    let mut verdicts = Vec::with_capacity(indexed.len());
    let mut request_latencies = Vec::with_capacity(indexed.len());
    for (_, v, l) in indexed {
        verdicts.push(v);
        request_latencies.push(l);
    }
    LiveReport { verdicts, wall, request_latencies, worker_generations, deploy_wall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_core::{CheckPath, ModelUpdate};

    fn engine(testbed: &LiveTestbed, with_models: bool) -> Joza {
        live_engine(testbed, JozaConfig::optimized(), with_models)
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let zipf = ZipfSampler::new(8, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 8];
        for _ in 0..2000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[7] * 2, "rank 0 must dominate the tail: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "every rank should appear: {counts:?}");
    }

    #[test]
    fn corpus_is_deterministic_bursty_and_cache_hostile() {
        let testbed = live_testbed(6);
        let w = LiveWorkload { requests: 48, ..LiveWorkload::default() };
        let a = live_corpus(&testbed, &w);
        let b = live_corpus(&testbed, &w);
        assert_eq!(a.len(), 48);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.route, y.route);
            assert_eq!(x.attack, y.attack);
            assert_eq!(x.checks, y.checks);
        }
        // Attack bursts: the last `burst_len` requests of each window.
        for (i, req) in a.iter().enumerate() {
            assert_eq!(req.attack, i % 16 >= 13, "burst placement at request {i}");
        }
        // Cache hostility: no query text ever repeats, within or across
        // id ranges.
        let shifted = live_corpus(&testbed, &LiveWorkload { id_base: 10_000, ..w });
        let mut texts: Vec<&str> = a
            .iter()
            .chain(&shifted)
            .flat_map(|r| r.checks.iter().map(|c| c.query.as_str()))
            .collect();
        let total = texts.len();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), total, "duplicate query text would warm the PTI cache");
    }

    #[test]
    fn live_verdicts_match_ground_truth_and_counters_balance() {
        let testbed = live_testbed(4);
        let joza = engine(&testbed, false);
        let corpus =
            live_corpus(&testbed, &LiveWorkload { requests: 32, batch: 3, ..Default::default() });
        let report = serve_live(&joza, &testbed, &corpus, 3);
        assert_eq!(report.verdicts.len(), corpus.len());
        for (req, batch) in corpus.iter().zip(&report.verdicts) {
            assert_eq!(batch.len(), req.checks.len());
            for v in batch {
                assert_eq!(v.is_safe(), !req.attack, "verdict vs ground truth");
                assert_eq!(v.trace().generation(), 0);
            }
        }
        let stats = joza.stats();
        assert_eq!(stats.queries as usize, report.queries());
        assert_eq!(stats.model_fast_hits + stats.static_hits + stats.full_checks, stats.queries);
    }

    #[test]
    fn parallel_verdicts_bit_identical_to_single_thread() {
        let testbed = live_testbed(5);
        let corpus = live_corpus(&testbed, &LiveWorkload::default());
        let single = serve_live(&engine(&testbed, false), &testbed, &corpus, 1);
        let multi = serve_live(&engine(&testbed, false), &testbed, &corpus, 4);
        assert_eq!(single.verdicts, multi.verdicts);
        assert_eq!(single.queries(), multi.queries());
    }

    #[test]
    fn soak_passes_keep_the_verdict_split_and_count_every_query() {
        // Repeated passes over one corpus warm every cache; neither the
        // verdicts nor the query counter may drift under that load.
        let testbed = live_testbed(4);
        let joza = engine(&testbed, false);
        let corpus = live_corpus(&testbed, &LiveWorkload { requests: 32, ..Default::default() });
        let corpus_queries: usize = corpus.iter().map(|r| r.checks.len()).sum();
        let mut first_split = None;
        for pass in 0..6 {
            let before = joza.stats().queries;
            let report = serve_live(&joza, &testbed, &corpus, 3);
            let advanced = (joza.stats().queries - before) as usize;
            assert_eq!(advanced, corpus_queries, "pass {pass}: query counter drifted");
            let flagged = report.verdicts.iter().flatten().filter(|v| !v.is_safe()).count();
            let split = (report.queries() - flagged, flagged);
            assert_eq!(
                *first_split.get_or_insert(split),
                split,
                "pass {pass}: verdict split drifted"
            );
        }
        assert!(first_split.is_some_and(|(_, flagged)| flagged > 0), "corpus carries attacks");
    }

    #[test]
    fn mid_run_deploy_lands_and_new_sessions_ride_the_model_fast_path() {
        let testbed = live_testbed(3);
        let joza = engine(&testbed, false);
        let corpus = live_corpus(
            &testbed,
            &LiveWorkload { requests: 24, burst_period: 0, ..Default::default() },
        );
        let report = serve_live_deploying(&joza, &testbed, &corpus, 2, corpus.len() / 2, |j| {
            j.deploy(ModelUpdate::new().query_models(testbed.models.clone()))
                .expect("mid-run deploy");
        });
        assert!(report.deploy_wall.is_some());
        assert_eq!(joza.generation(), 1);
        // Every check of the run stayed internally consistent (benign
        // traffic, whatever generation served it)...
        for batch in &report.verdicts {
            for v in batch {
                assert!(v.is_safe());
            }
        }
        assert!(report.worker_generations.iter().all(|&g| g <= 1));
        // ...no query was dropped or double-counted across the swap...
        assert_eq!(joza.stats().queries as usize, report.queries());
        // ...and sessions opened after the run see the new release.
        let v = joza
            .session_for(&testbed.routes[0].slug)
            .check(&format!("{}1{}", testbed.routes[0].prefix, testbed.routes[0].suffix));
        assert_eq!(v.path(), CheckPath::ModelFastPath);
        assert_eq!(v.trace().generation(), 1);
    }
}
