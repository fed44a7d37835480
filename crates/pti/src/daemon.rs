//! The PTI daemon and the application-side PTI component (§IV-C).
//!
//! The paper's daemon is "a native binary application that loads the PTI
//! dynamic library as well as the string fragments into memory, connects to
//! the web application and waits for incoming queries", communicating over
//! named or anonymous pipes. This reproduction runs the daemon as a
//! dedicated worker thread speaking a **length-prefixed binary protocol**
//! over crossbeam channels: requests and responses are serialized to byte
//! frames, so the marshalling cost the paper measures (daemon vs.
//! PHP-extension deployment, §VI-C) is actually paid here too.
//!
//! Three deployment modes mirror the three the paper measures:
//!
//! * [`DaemonMode::PerQuery`] — a fresh daemon for every query, the
//!   paper's initial prototype (§VI-A) and the unoptimized baseline of
//!   Fig. 7;
//! * [`DaemonMode::LongLived`] — a daemon reused across requests (named
//!   pipes, `nohup`), the default;
//! * [`DaemonMode::InProcess`] — no daemon at all: direct calls, modelling
//!   the "PTI as PHP extension" overhead estimate (Table V).

use crate::analyzer::{PtiAnalyzer, PtiConfig, PtiReport};
use crate::cache::{CacheStats, VerdictCache};
use crate::store::FragmentStore;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};
use joza_phpsim::cost::simulate;
use joza_sqlparse::fingerprint::fingerprint;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const TAG_CHECK: u8 = 1;
const TAG_SHUTDOWN: u8 = 2;
const TAG_VERDICT: u8 = 3;

/// How the PTI analysis is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DaemonMode {
    /// Spawn a fresh process for every query — the paper's *initial*
    /// implementation ("initiated a new process to detect SQL
    /// injections", §VI-A), the unoptimized baseline of Fig. 7.
    PerQuery,
    /// One daemon for the component's lifetime.
    #[default]
    LongLived,
    /// No daemon: analyze in-process (the PHP-extension estimate).
    InProcess,
}

/// A daemon-side verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonVerdict {
    /// Whether the query is safe.
    pub safe: bool,
    /// Whether the verdict came from the daemon's structure cache.
    pub structure_cache_hit: bool,
    /// Number of uncovered critical tokens (0 when safe).
    pub uncovered: u32,
    /// Whether the daemon was unreachable or answered garbage. The verdict
    /// is then unsafe: a dead daemon fails closed.
    pub daemon_down: bool,
}

impl DaemonVerdict {
    const DOWN: DaemonVerdict =
        DaemonVerdict { safe: false, structure_cache_hit: false, uncovered: 0, daemon_down: true };

    fn answer(safe: bool, structure_cache_hit: bool, uncovered: u32) -> Self {
        DaemonVerdict { safe, structure_cache_hit, uncovered, daemon_down: false }
    }
}

/// PTI behind the structure cache, keyed by the query's fingerprint: what
/// the daemon runs per query, and what [`DaemonMode::InProcess`] runs in
/// place of a daemon.
fn analyze_behind(
    cache: Option<&VerdictCache>,
    fingerprint: impl FnOnce() -> u64,
    analyze: impl FnOnce() -> PtiReport,
) -> DaemonVerdict {
    let shape = cache.map(|c| (c, fingerprint()));
    if shape.is_some_and(|(c, fp)| c.lookup(&fp)) {
        return DaemonVerdict::answer(true, true, 0);
    }
    let report = analyze();
    let safe = !report.is_attack();
    if let Some((c, fp)) = shape.filter(|_| safe) {
        c.insert_safe(&fp);
    }
    DaemonVerdict::answer(safe, false, report.uncovered_critical.len() as u32)
}

/// Handle to a running PTI daemon.
#[derive(Debug)]
pub struct PtiClient {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    handle: Option<JoinHandle<()>>,
}

impl PtiClient {
    /// Sends one query for analysis and waits for the verdict. If the
    /// daemon thread has died, the verdict is [`DaemonVerdict::daemon_down`]
    /// and unsafe.
    pub fn check(&self, query: &str) -> DaemonVerdict {
        let mut frame = BytesMut::with_capacity(5 + query.len());
        frame.put_u8(TAG_CHECK);
        frame.put_u32(query.len() as u32);
        frame.put_slice(query.as_bytes());
        if self.tx.send(frame.freeze()).is_err() {
            return DaemonVerdict::DOWN;
        }
        self.rx.recv().map_or(DaemonVerdict::DOWN, decode_verdict)
    }

    /// Shuts the daemon down and joins its thread (what dropping the
    /// client does).
    pub fn shutdown(self) {
        drop(self);
    }

    /// Asks the daemon thread to exit without joining it.
    fn stop(&self) {
        let mut frame = BytesMut::with_capacity(1);
        frame.put_u8(TAG_SHUTDOWN);
        let _ = self.tx.send(frame.freeze());
    }
}

impl Drop for PtiClient {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn decode_verdict(mut frame: Bytes) -> DaemonVerdict {
    if frame.len() < 6 || frame.get_u8() != TAG_VERDICT {
        return DaemonVerdict::DOWN;
    }
    let flags = frame.get_u8();
    DaemonVerdict::answer(flags & 1 != 0, flags & 2 != 0, frame.get_u32())
}

/// The daemon factory.
#[derive(Debug)]
pub struct PtiDaemon;

impl PtiDaemon {
    /// Spawns a daemon thread over the given fragment store.
    ///
    /// `structure_cache` enables the daemon-side query structure cache
    /// (§IV-C1). Multiple daemons can coexist (the paper runs several).
    pub fn spawn(store: Arc<FragmentStore>, config: PtiConfig, structure_cache: bool) -> PtiClient {
        let (tx_req, rx_req) = bounded::<Bytes>(64);
        let (tx_resp, rx_resp) = bounded::<Bytes>(64);
        let handle = std::thread::Builder::new()
            .name("joza-pti-daemon".to_string())
            .spawn(move || {
                let analyzer = PtiAnalyzer::new(store, config);
                let cache = structure_cache.then(VerdictCache::new);
                while let Ok(mut frame) = rx_req.recv() {
                    if frame.is_empty() {
                        continue;
                    }
                    let tag = frame.get_u8();
                    if tag == TAG_SHUTDOWN {
                        break;
                    }
                    let len = frame.get_u32() as usize;
                    let query =
                        String::from_utf8_lossy(&frame[..len.min(frame.len())]).into_owned();

                    let v = analyze_behind(
                        cache.as_ref(),
                        || fingerprint(&query),
                        || analyzer.analyze(&query),
                    );

                    let mut resp = BytesMut::with_capacity(7);
                    resp.put_u8(TAG_VERDICT);
                    resp.put_u8(u8::from(v.safe) | (u8::from(v.structure_cache_hit) << 1));
                    resp.put_u32(v.uncovered);
                    if tx_resp.send(resp.freeze()).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn PTI daemon thread");
        PtiClient { tx: tx_req, rx: rx_resp, handle: Some(handle) }
    }
}

/// Configuration for the application-side [`PtiComponent`]. The default
/// is the paper's fully optimized deployment: long-lived daemon, both
/// caches, the default (optimized) analyzer, and no modeled cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtiComponentConfig {
    /// Deployment mode.
    pub mode: DaemonMode,
    /// Enable the application-side query cache (§IV-C2).
    pub query_cache: bool,
    /// Enable the daemon-side structure cache (§IV-C1).
    pub structure_cache: bool,
    /// Analyzer configuration.
    pub pti: PtiConfig,
    /// Modeled PHP-side cost of one daemon round trip (pipe `fwrite` +
    /// `fread` + request serialization). Paid per daemon check; not paid
    /// in [`DaemonMode::InProcess`] — that difference *is* the paper's
    /// "PHP extension estimate" (§VI-C). Zero by default.
    pub pipe_cost: Duration,
    /// Modeled PHP-side cost of deserializing a *full-analysis* response
    /// — "its structure and the result of its taint analysis is
    /// communicated back to the web application" (§IV-C1). Skipped on
    /// structure-cache hits (compact verdict only) and in
    /// [`DaemonMode::InProcess`]. Zero by default.
    pub response_parse_cost: Duration,
    /// Modeled cost of launching a daemon process and loading the fragment
    /// database into it (§IV-C1). Paid per spawn: once per component in
    /// [`DaemonMode::LongLived`], once per query in
    /// [`DaemonMode::PerQuery`]. Zero by default.
    pub spawn_cost: Duration,
    /// Modeled *off-CPU* wait for one daemon round trip: in the paper's
    /// deployment the PHP worker **blocks** on the named pipe while the
    /// daemon computes, burning no CPU. Unlike [`pipe_cost`] (a spinning,
    /// CPU-bound marshalling model) this is a real `thread::sleep`, so
    /// independent workers can overlap their waits — exactly the win a
    /// sharded engine buys over one that holds a global lock across the
    /// round trip. Not paid in [`DaemonMode::InProcess`]. Zero by default.
    ///
    /// [`pipe_cost`]: PtiComponentConfig::pipe_cost
    pub pipe_latency: Duration,
}

impl Default for PtiComponentConfig {
    fn default() -> Self {
        PtiComponentConfig {
            mode: DaemonMode::LongLived,
            query_cache: true,
            structure_cache: true,
            pti: PtiConfig::default(),
            pipe_cost: Duration::ZERO,
            response_parse_cost: Duration::ZERO,
            spawn_cost: Duration::ZERO,
            pipe_latency: Duration::ZERO,
        }
    }
}

impl PtiComponentConfig {
    /// The paper's initial prototype (§VI-A): a daemon per query, no
    /// caches, the naive matcher without parse-first. All modeled costs
    /// are zero.
    pub fn unoptimized() -> Self {
        PtiComponentConfig {
            mode: DaemonMode::PerQuery,
            query_cache: false,
            structure_cache: false,
            pti: PtiConfig::unoptimized(),
            ..Default::default()
        }
    }
}

/// Parse-once artifacts for one query, computed upstream by the engine's
/// check pipeline and handed to [`PtiComponent::check_prepared`].
///
/// Contract: `tokens` must be `lex(query)` for the exact query string
/// passed alongside, and `fingerprint`, when `Some`, must equal
/// `joza_sqlparse::fingerprint::fingerprint(query)`.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSql<'q> {
    /// The query's lexed token stream.
    pub tokens: &'q [joza_sqlparse::token::Token],
    /// The query's structural fingerprint, if the caller already computed
    /// it (only consulted when the structure cache is enabled).
    pub fingerprint: Option<u64>,
}

/// The verdict the component reports upward to Joza.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtiDecision {
    /// Whether the query is safe.
    pub safe: bool,
    /// Where the verdict came from.
    pub via: PtiVia,
}

/// Provenance of a PTI verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtiVia {
    /// Application-side query cache hit.
    QueryCache,
    /// Daemon-side structure cache hit.
    StructureCache,
    /// Full fragment analysis.
    Analysis,
    /// The daemon was down, so the query is blocked unanalyzed.
    DaemonDown,
}

/// The application-side PTI analysis component: consults the query cache
/// and talks to (or embeds) the daemon.
#[derive(Debug)]
pub struct PtiComponent {
    config: PtiComponentConfig,
    store: Arc<FragmentStore>,
    analyzer: PtiAnalyzer,
    /// The long-lived daemon, when one is running.
    daemon: Option<PtiClient>,
    query_cache: Option<Arc<VerdictCache>>,
    /// The structure cache of [`DaemonMode::InProcess`]; the daemon modes
    /// keep theirs daemon-side.
    structure_cache: Option<VerdictCache>,
    daemon_spawns: u64,
    daemon_failures: u64,
}

impl PtiComponent {
    /// Builds the component over a fragment vocabulary, with a query
    /// cache of its own when `config.query_cache` is set.
    pub fn new<I, S>(fragments: I, config: PtiComponentConfig) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let store = Arc::new(FragmentStore::new(fragments, config.pti.matcher));
        let query_cache = config.query_cache.then(|| Arc::new(VerdictCache::new()));
        Self::with_store(store, config, query_cache)
    }

    /// Builds the component over an already-compiled (shared) fragment
    /// store, consulting `query_cache` when it is `Some`.
    ///
    /// This is the constructor a lock-sharded engine uses: N per-worker
    /// components share one `Arc<FragmentStore>` (the read-mostly side) and
    /// one query cache, so a safe query analyzed by one worker is a cache
    /// hit for every other.
    pub fn with_store(
        store: Arc<FragmentStore>,
        config: PtiComponentConfig,
        query_cache: Option<Arc<VerdictCache>>,
    ) -> Self {
        let analyzer = PtiAnalyzer::new(Arc::clone(&store), config.pti.clone());
        let structure_cache = (config.structure_cache && config.mode == DaemonMode::InProcess)
            .then(VerdictCache::new);
        let mut component = PtiComponent {
            config,
            store,
            analyzer,
            daemon: None,
            query_cache,
            structure_cache,
            daemon_spawns: 0,
            daemon_failures: 0,
        };
        if component.config.mode == DaemonMode::LongLived {
            component.daemon = Some(component.spawn_daemon());
        }
        component
    }

    fn spawn_daemon(&mut self) -> PtiClient {
        self.daemon_spawns += 1;
        simulate(self.config.spawn_cost);
        PtiDaemon::spawn(
            Arc::clone(&self.store),
            self.config.pti.clone(),
            self.config.structure_cache,
        )
    }

    /// The fragment store.
    pub fn store(&self) -> &FragmentStore {
        &self.store
    }

    /// Query-cache statistics (all zero when the cache is off).
    pub fn query_cache_stats(&self) -> CacheStats {
        self.query_cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Number of daemon processes spawned so far.
    pub fn daemon_spawns(&self) -> u64 {
        self.daemon_spawns
    }

    /// Number of daemon checks that found the daemon dead. Each blocked
    /// its query, and the daemon was respawned for the next check.
    pub fn daemon_failures(&self) -> u64 {
        self.daemon_failures
    }

    /// Stops the running daemon's thread behind the component's back, as a
    /// crash or an external kill would. For fault-injection tests: the next
    /// daemon check fails closed and respawns the daemon.
    pub fn kill_daemon(&self) {
        if let Some(client) = &self.daemon {
            client.stop();
        }
    }

    /// Checks one query.
    pub fn check(&mut self, query: &str) -> PtiDecision {
        self.check_prepared(query, None)
    }

    /// One daemon round trip with its modeled PHP-side costs.
    fn ask(&self, client: &PtiClient, query: &str) -> DaemonVerdict {
        simulate(self.config.pipe_cost);
        if !self.config.pipe_latency.is_zero() {
            std::thread::sleep(self.config.pipe_latency);
        }
        let v = client.check(query);
        if !v.structure_cache_hit && !v.daemon_down {
            simulate(self.config.response_parse_cost);
        }
        v
    }

    /// [`PtiComponent::check`] with optional parse-once artifacts.
    ///
    /// `prep` carries the query's token stream (and, when already known,
    /// its structural fingerprint) computed upstream by the engine's
    /// pipeline. Only [`DaemonMode::InProcess`] can exploit it — the daemon
    /// modes serialize the raw query over the pipe protocol and re-lex on
    /// the daemon side, exactly as the paper's deployment does. Verdicts
    /// and cache behavior are bit-identical to [`PtiComponent::check`]
    /// under the [`PreparedSql`] contract.
    ///
    /// A daemon found dead yields an unsafe verdict ([`PtiVia::DaemonDown`])
    /// and is respawned on the next check: PTI fails closed.
    pub fn check_prepared(&mut self, query: &str, prep: Option<PreparedSql<'_>>) -> PtiDecision {
        if self.query_cache.as_ref().is_some_and(|c| c.lookup(query)) {
            return PtiDecision { safe: true, via: PtiVia::QueryCache };
        }
        let verdict = match self.config.mode {
            DaemonMode::PerQuery => {
                let client = self.spawn_daemon();
                let v = self.ask(&client, query);
                client.shutdown();
                v
            }
            DaemonMode::InProcess => analyze_behind(
                self.structure_cache.as_ref(),
                || prep.and_then(|p| p.fingerprint).unwrap_or_else(|| fingerprint(query)),
                || match prep {
                    Some(p) => self.analyzer.analyze_tokens(query, p.tokens),
                    None => self.analyzer.analyze(query),
                },
            ),
            DaemonMode::LongLived => {
                let client = self.daemon.take().unwrap_or_else(|| self.spawn_daemon());
                let v = self.ask(&client, query);
                if !v.daemon_down {
                    self.daemon = Some(client);
                }
                v
            }
        };
        if verdict.daemon_down {
            self.daemon_failures += 1;
            return PtiDecision { safe: false, via: PtiVia::DaemonDown };
        }
        if verdict.safe {
            if let Some(c) = &self.query_cache {
                c.insert_safe(query);
            }
        }
        PtiDecision {
            safe: verdict.safe,
            via: if verdict.structure_cache_hit {
                PtiVia::StructureCache
            } else {
                PtiVia::Analysis
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MatcherKind;

    const FRAGS: &[&str] = &["id", "SELECT * FROM records WHERE ID=", " LIMIT 5"];
    const SAFE_Q: &str = "SELECT * FROM records WHERE ID=42 LIMIT 5";
    const ATTACK_Q: &str = "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5";

    #[test]
    fn daemon_roundtrip() {
        let store = Arc::new(FragmentStore::new(FRAGS, Default::default()));
        let client = PtiDaemon::spawn(store, PtiConfig::default(), false);
        let v = client.check(SAFE_Q);
        assert!(v.safe);
        let v = client.check(ATTACK_Q);
        assert!(!v.safe);
        assert!(v.uncovered >= 3);
        client.shutdown();
    }

    #[test]
    fn daemon_structure_cache_hits_on_same_shape() {
        let store = Arc::new(FragmentStore::new(FRAGS, Default::default()));
        let client = PtiDaemon::spawn(store, PtiConfig::default(), true);
        let v1 = client.check(SAFE_Q);
        assert!(v1.safe && !v1.structure_cache_hit);
        let v2 = client.check("SELECT * FROM records WHERE ID=777 LIMIT 5");
        assert!(v2.safe && v2.structure_cache_hit);
        // Injected shape misses the cache and is analyzed (and flagged).
        let v3 = client.check(ATTACK_Q);
        assert!(!v3.safe && !v3.structure_cache_hit);
        client.shutdown();
    }

    #[test]
    fn multiple_daemons_coexist() {
        let store = Arc::new(FragmentStore::new(FRAGS, Default::default()));
        let a = PtiDaemon::spawn(Arc::clone(&store), PtiConfig::default(), false);
        let b = PtiDaemon::spawn(store, PtiConfig::default(), false);
        assert!(a.check(SAFE_Q).safe);
        assert!(!b.check(ATTACK_Q).safe);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn component_query_cache_path() {
        let mut c = PtiComponent::new(FRAGS, PtiComponentConfig::default());
        let d1 = c.check(SAFE_Q);
        assert!(d1.safe);
        assert_eq!(d1.via, PtiVia::Analysis);
        let d2 = c.check(SAFE_Q);
        assert_eq!(d2.via, PtiVia::QueryCache);
        assert_eq!(c.query_cache_stats().hits, 1);
    }

    #[test]
    fn component_never_caches_attacks() {
        let mut c = PtiComponent::new(FRAGS, PtiComponentConfig::default());
        assert!(!c.check(ATTACK_Q).safe);
        assert!(!c.check(ATTACK_Q).safe);
        assert_eq!(c.query_cache_stats().hits, 0);
    }

    #[test]
    fn in_process_mode_matches_daemon_verdicts() {
        let mut daemon = PtiComponent::new(FRAGS, PtiComponentConfig::default());
        let mut inproc = PtiComponent::new(
            FRAGS,
            PtiComponentConfig { mode: DaemonMode::InProcess, ..PtiComponentConfig::default() },
        );
        for q in [SAFE_Q, ATTACK_Q, "SELECT * FROM records WHERE ID=9 LIMIT 5"] {
            assert_eq!(daemon.check(q).safe, inproc.check(q).safe, "{q}");
        }
    }

    #[test]
    fn shared_query_cache_spans_components() {
        let store = Arc::new(FragmentStore::new(FRAGS, PtiConfig::default().matcher));
        let shared = Arc::new(VerdictCache::new());
        let mut a = PtiComponent::with_store(
            Arc::clone(&store),
            PtiComponentConfig::default(),
            Some(Arc::clone(&shared)),
        );
        let mut b = PtiComponent::with_store(
            store,
            PtiComponentConfig::default(),
            Some(Arc::clone(&shared)),
        );
        assert_eq!(a.check(SAFE_Q).via, PtiVia::Analysis);
        // Component B never saw the query, yet hits the shared layer.
        assert_eq!(b.check(SAFE_Q).via, PtiVia::QueryCache);
        // Attacks are never cached, in either component.
        assert!(!a.check(ATTACK_Q).safe);
        assert!(!b.check(ATTACK_Q).safe);
        assert_eq!(shared.stats().inserts, 1);
    }

    #[test]
    fn check_prepared_matches_check() {
        let make = || {
            PtiComponent::new(
                FRAGS,
                PtiComponentConfig { mode: DaemonMode::InProcess, ..PtiComponentConfig::default() },
            )
        };
        let mut plain = make();
        let mut prepped = make();
        for q in [SAFE_Q, ATTACK_Q, "SELECT * FROM records WHERE ID=7 LIMIT 5", SAFE_Q] {
            let tokens = joza_sqlparse::lexer::lex(q);
            let fp = joza_sqlparse::fingerprint::fingerprint(q);
            let prep = PreparedSql { tokens: &tokens, fingerprint: Some(fp) };
            assert_eq!(plain.check(q), prepped.check_prepared(q, Some(prep)), "{q}");
        }
        assert_eq!(plain.query_cache_stats(), prepped.query_cache_stats());
    }

    #[test]
    fn dead_daemon_fails_closed_then_respawns() {
        // No caches, so every check of the same query reaches the daemon.
        let mut c = PtiComponent::new(
            FRAGS,
            PtiComponentConfig {
                query_cache: false,
                structure_cache: false,
                pti: PtiConfig {
                    matcher: MatcherKind::AhoCorasick,
                    parse_first: false,
                    ..PtiConfig::default()
                },
                ..Default::default()
            },
        );
        assert!(c.check(SAFE_Q).safe);
        c.kill_daemon();
        let blocked = c.check(SAFE_Q);
        assert_eq!(blocked, PtiDecision { safe: false, via: PtiVia::DaemonDown });
        assert_eq!((c.daemon_failures(), c.daemon_spawns()), (1, 1));
        assert_eq!(c.check(SAFE_Q), PtiDecision { safe: true, via: PtiVia::Analysis });
        assert_eq!(c.daemon_spawns(), 2, "respawned");
    }

    #[test]
    fn dead_or_garbled_daemon_verdicts_are_unsafe() {
        let store = Arc::new(FragmentStore::new(FRAGS, Default::default()));
        let client = PtiDaemon::spawn(store, PtiConfig::default(), false);
        client.stop();
        let mut short = BytesMut::new();
        short.put_u8(TAG_VERDICT);
        let mut wrong_tag = BytesMut::new();
        wrong_tag.put_u8(TAG_CHECK);
        wrong_tag.put_u8(1);
        wrong_tag.put_u32(0);
        for v in [
            client.check(SAFE_Q),
            decode_verdict(short.freeze()),
            decode_verdict(wrong_tag.freeze()),
        ] {
            assert!(!v.safe && v.daemon_down, "{v:?}");
        }
    }

    #[test]
    fn in_process_structure_cache_works() {
        let mut c = PtiComponent::new(
            FRAGS,
            PtiComponentConfig {
                mode: DaemonMode::InProcess,
                query_cache: false,
                structure_cache: true,
                pti: PtiConfig::default(),
                ..Default::default()
            },
        );
        assert_eq!(c.check(SAFE_Q).via, PtiVia::Analysis);
        assert_eq!(c.check("SELECT * FROM records WHERE ID=1 LIMIT 5").via, PtiVia::StructureCache);
    }
}
