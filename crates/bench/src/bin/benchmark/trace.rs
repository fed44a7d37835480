//! Spans around the calls the benchmark makes into each layer, and the
//! traced request paths that make those calls.
//!
//! `webapp::server::Server::run_session` is private, so the traced app
//! path re-drives the public pieces itself: `WebApp::chunk`, the
//! `TransformPipeline`s, the superglobal setters and `Vm::run`, with a
//! host that mirrors `GatedHost`. The fidelity guard in `rig` checks that
//! it serves byte-identical responses to `Server::handle_with`.

use joza_core::{Joza, QueryCheck, Verdict};
use joza_db::{Database, DbError, QueryResult};
use joza_phpsim::interp::{Host, PhpError, QueryOutcome};
use joza_phpsim::vm::Vm;
use joza_webapp::gate::{GateDecision, GateFactory, GateSession, RawInput};
use joza_webapp::request::HttpRequest;
use joza_webapp::server::{Response, Server};
use joza_webapp::transform::TransformPipeline;
use std::time::{Duration, Instant};

/// The layer a span times. Names are the crates the calls go into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole request; the root of its span tree.
    Request,
    /// Opening the gate session (route pin, raw-input capture).
    Session,
    /// The framework and plugin input transforms.
    Transform,
    /// The phpsim VM: superglobal set-up, `Vm::run` and output copy.
    Vm,
    /// One host callback from the VM (bookkeeping and result conversion).
    Host,
    /// Gate checks (one query, or a whole batch on the gate-direct path).
    Check,
    /// One statement executed by the database engine.
    DbExec,
    /// Capturing values fetched from dirty cells back into the session.
    CaptureDb,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Request,
        Layer::Session,
        Layer::Transform,
        Layer::Vm,
        Layer::Host,
        Layer::Check,
        Layer::DbExec,
        Layer::CaptureDb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Session => "core.session",
            Layer::Transform => "webapp.transform",
            Layer::Vm => "phpsim.vm",
            Layer::Host => "webapp.host",
            Layer::Check => "core.check",
            Layer::DbExec => "db.exec",
            Layer::CaptureDb => "core.capture_db",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Which request (per worker, in serving order) the span belongs to.
    pub request: u32,
    pub layer: Layer,
    /// Queries the span covers (gate checks), else 1.
    pub n: u32,
}

/// A preallocated span buffer with an open-span stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: Layer) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { start, end: start, parent, request: self.request, layer, n: 1 });
    }

    pub fn end(&mut self, n: u32) {
        let end = self.now();
        let i = self.open.pop().expect("span end without a matching begin") as usize;
        self.spans[i].end = end;
        self.spans[i].n = n;
    }

    /// Closes the current request's root span and moves to the next id.
    pub fn end_request(&mut self) {
        self.end(1);
        debug_assert!(self.open.is_empty(), "request ended with open spans");
        self.request += 1;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that child spans cover (overlapping children are counted once, and
/// children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end.saturating_sub(s.start)).collect();
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start, s.end))
        .collect();
    kids.sort_unstable();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let (lo, hi) = (spans[parent as usize].start, spans[parent as usize].end);
        let mut covered = 0;
        let mut run: Option<(u64, u64)> = None;
        while i < kids.len() && kids[i].0 == parent {
            let (s, e) = (kids[i].1.max(lo), kids[i].2.min(hi));
            i += 1;
            if s >= e {
                continue;
            }
            run = match run {
                Some((rs, re)) if s <= re => Some((rs, re.max(e))),
                Some((rs, re)) => {
                    covered += re - rs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((rs, re)) = run {
            covered += re - rs;
        }
        out[parent as usize] = out[parent as usize].saturating_sub(covered);
    }
    out
}

/// One gate check replayed in isolation afterwards through the NTI, PTI
/// and sqlparse entry points: the inputs the session held and the query.
#[derive(Debug, Clone)]
pub struct CheckedQuery {
    pub inputs: Vec<String>,
    pub query: String,
}

/// Per-request counts the traced app host keeps alongside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostCounts {
    pub executed: u64,
    pub writes: u64,
    pub db_errors: u64,
}

/// Collects up to `cap` checked queries.
#[derive(Debug)]
pub struct ReplayLog {
    pub cap: usize,
    pub checks: Vec<CheckedQuery>,
}

impl ReplayLog {
    pub fn new(cap: usize) -> ReplayLog {
        ReplayLog { cap, checks: Vec::new() }
    }

    fn wants_more(&self) -> bool {
        self.checks.len() < self.cap
    }
}

/// Serves one request through the re-driven pipeline, timing each layer.
/// Response fields match `Server::handle_with` byte for byte, except the
/// wall-clock `gate_time` and `total_time`.
pub fn serve_app(
    server: &mut Server,
    request: &HttpRequest,
    factory: &dyn GateFactory,
    tracer: &mut Tracer,
    replay: &mut ReplayLog,
    counts: &mut HostCounts,
) -> Response {
    let started = Instant::now();
    tracer.begin(Layer::Request);
    let raw: Vec<RawInput> = request
        .all_inputs()
        .into_iter()
        .map(|(source, name, value)| RawInput { source, name, value })
        .collect();
    tracer.begin(Layer::Session);
    let mut session = factory.session(&request.path, &raw);
    tracer.end(1);

    let Server { app, db, .. } = server;
    let chunk = match app.chunk(&request.path) {
        Ok(chunk) => chunk,
        Err(e) => {
            tracer.end_request();
            return Response {
                body: format!("404 {e}"),
                blocked: false,
                queries: Vec::new(),
                executed: 0,
                db_time_ms: 0,
                gate_time: Duration::ZERO,
                total_time: started.elapsed(),
                sql_error: None,
            };
        }
    };

    tracer.begin(Layer::Transform);
    let pipeline = &app.input_pipeline;
    let extra = app.plugin(&request.path).map(|p| &p.extra_transforms);
    let transform = |pairs: &[(String, String)]| -> Vec<(String, String)> {
        pairs.iter().map(|(k, v)| (k.clone(), apply_all(pipeline, extra, v))).collect()
    };
    let get = transform(&request.get);
    let post = transform(&request.post);
    let cookies = transform(&request.cookies);
    tracer.end((get.len() + post.len() + cookies.len()) as u32);

    let db_t0 = db.clock_ms();
    let mut host = TracedHost {
        db,
        gate: session.as_mut(),
        tracer,
        replay,
        counts,
        inputs: raw.into_iter().map(|r| r.value).collect(),
        queries: Vec::new(),
        executed: 0,
        last_error: None,
    };
    host.tracer.begin(Layer::Vm);
    let (run, body) = {
        let mut vm = Vm::new(&mut host);
        for (k, v) in &get {
            vm.set_get_param(k, v);
        }
        for (k, v) in &post {
            vm.set_post_param(k, v);
        }
        for (k, v) in &cookies {
            vm.set_cookie(k, v);
        }
        for (k, v) in &request.headers {
            let key = format!("HTTP_{}", k.to_ascii_uppercase().replace('-', "_"));
            vm.set_server_var(&key, v);
        }
        let run = vm.run(&chunk);
        (run, vm.output().to_string())
    };
    host.tracer.end(1);
    let queries = std::mem::take(&mut host.queries);
    let executed = host.executed;
    let sql_error = host.last_error.take();
    host.tracer.end_request();
    let db_time_ms = host.db.clock_ms() - db_t0;
    let (body, blocked) = match run {
        Ok(()) => (body, false),
        Err(PhpError::Terminated) => (String::new(), true),
        Err(PhpError::Runtime(msg)) => (format!("{body}\nPHP Fatal error: {msg}"), false),
    };
    Response {
        body,
        blocked,
        queries,
        executed,
        db_time_ms,
        gate_time: Duration::ZERO,
        total_time: started.elapsed(),
        sql_error,
    }
}

fn apply_all(
    pipeline: &TransformPipeline,
    extra: Option<&TransformPipeline>,
    value: &str,
) -> String {
    let v = pipeline.apply(value);
    match extra {
        Some(e) => e.apply(&v),
        None => v,
    }
}

/// The gate-direct path: one session per request, one batch check.
pub fn replay_batch(
    joza: &Joza,
    route: &str,
    inputs: &[(String, String)],
    checks: &[QueryCheck],
) -> Vec<Verdict> {
    let mut session = joza.session_for(route);
    for (name, value) in inputs {
        session.capture_input(name, value);
    }
    session.check_batch(checks)
}

/// [`replay_batch`] with spans around the session and the batch check.
pub fn replay_batch_traced(
    joza: &Joza,
    route: &str,
    inputs: &[(String, String)],
    checks: &[QueryCheck],
    tracer: &mut Tracer,
    replay: &mut ReplayLog,
) -> Vec<Verdict> {
    tracer.begin(Layer::Request);
    tracer.begin(Layer::Session);
    let mut session = joza.session_for(route);
    for (name, value) in inputs {
        session.capture_input(name, value);
    }
    tracer.end(1);
    tracer.begin(Layer::Check);
    let verdicts = session.check_batch(checks);
    tracer.end(checks.len() as u32);
    tracer.end_request();
    for c in checks {
        if !replay.wants_more() {
            break;
        }
        let inputs = inputs.iter().map(|(_, v)| v.clone()).collect();
        replay.checks.push(CheckedQuery { inputs, query: c.query.clone() });
    }
    verdicts
}

/// The interpreter host of the traced path: `GatedHost`'s logic with a
/// span around each call into the gate and the database.
struct TracedHost<'a, 'g> {
    db: &'a mut Database,
    gate: &'a mut (dyn GateSession + 'g),
    tracer: &'a mut Tracer,
    replay: &'a mut ReplayLog,
    counts: &'a mut HostCounts,
    /// The values the session checks against: raw inputs, then captured
    /// dirty-cell values, in capture order.
    inputs: Vec<String>,
    queries: Vec<String>,
    executed: usize,
    last_error: Option<String>,
}

impl TracedHost<'_, '_> {
    fn gate_decision(&mut self, sql: &str) -> Option<QueryOutcome> {
        self.queries.push(sql.to_string());
        self.tracer.begin(Layer::Check);
        let decision = self.gate.check(sql);
        self.tracer.end(1);
        if self.replay.wants_more() {
            self.replay
                .checks
                .push(CheckedQuery { inputs: self.inputs.clone(), query: sql.to_string() });
        }
        match decision {
            GateDecision::Allow => None,
            GateDecision::ErrorVirtualize => {
                let msg = "query blocked".to_string();
                self.last_error = Some(msg.clone());
                Some(QueryOutcome::Error(msg))
            }
            GateDecision::Terminate => Some(QueryOutcome::Terminated),
        }
    }

    fn count_execution(&mut self, sql: &str) {
        self.executed += 1;
        self.counts.executed += 1;
        let head = sql.trim_start();
        let verb = head.get(..6).unwrap_or(head);
        if ["INSERT", "UPDATE", "DELETE", "REPLAC"].iter().any(|w| verb.eq_ignore_ascii_case(w)) {
            self.counts.writes += 1;
        }
    }

    fn outcome(&mut self, result: Result<QueryResult, DbError>, sql: &str) -> QueryOutcome {
        match result {
            Ok(result) => {
                if !result.rows.is_empty() && !result.origins.is_empty() {
                    self.tracer.begin(Layer::CaptureDb);
                    let mut captured = 0;
                    for (i, origins) in result.origins.iter().enumerate() {
                        let dirty = origins.iter().find(|(t, c)| self.gate.dirty_cell(t, c));
                        if let Some((table, column)) = dirty {
                            for row in &result.rows {
                                match row.get(i) {
                                    Some(v) if !v.is_null() => {
                                        let value = v.as_str();
                                        self.gate.capture_db_input(table, column, &value);
                                        self.inputs.push(value);
                                        captured += 1;
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    self.tracer.end(captured);
                }
                let rows = result
                    .rows
                    .iter()
                    .map(|row| {
                        result
                            .columns
                            .iter()
                            .zip(row)
                            .map(|(c, v)| {
                                (c.clone(), if v.is_null() { String::new() } else { v.as_str() })
                            })
                            .collect()
                    })
                    .collect();
                QueryOutcome::Rows(rows)
            }
            Err(e) => {
                self.counts.db_errors += 1;
                let msg = match &e {
                    DbError::Parse(_) => format!(
                        "You have an error in your SQL syntax; check the manual near '{}'",
                        sql.chars()
                            .rev()
                            .take(20)
                            .collect::<String>()
                            .chars()
                            .rev()
                            .collect::<String>()
                    ),
                    other => other.to_string(),
                };
                self.last_error = Some(msg.clone());
                QueryOutcome::Error(msg)
            }
        }
    }
}

impl Host for TracedHost<'_, '_> {
    fn query(&mut self, sql: &str) -> QueryOutcome {
        self.tracer.begin(Layer::Host);
        let out = match self.gate_decision(sql) {
            Some(blocked) => blocked,
            None => {
                self.count_execution(sql);
                self.tracer.begin(Layer::DbExec);
                let result = self.db.execute(sql);
                self.tracer.end(1);
                self.outcome(result, sql)
            }
        };
        self.tracer.end(1);
        out
    }

    fn query_prepared(&mut self, sql: &str, params: &[(String, String)]) -> QueryOutcome {
        self.tracer.begin(Layer::Host);
        let out = match self.gate_decision(sql) {
            Some(blocked) => blocked,
            None => {
                self.count_execution(sql);
                let values: Vec<(String, joza_db::Value)> = params
                    .iter()
                    .map(|(k, v)| (k.clone(), joza_db::Value::from(v.as_str())))
                    .collect();
                self.tracer.begin(Layer::DbExec);
                let result = self.db.execute_prepared(sql, &values);
                self.tracer.end(1);
                self.outcome(result, sql)
            }
        };
        self.tracer.end(1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32, layer: Layer) -> Span {
        Span { start, end, parent, request: 0, layer, n: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, NO_PARENT, Layer::Request),
            // Overlapping children [10, 40) and [30, 50) cover 40, not 50.
            span(10, 40, 0, Layer::Vm),
            span(30, 50, 0, Layer::Check),
            // A disjoint child and one reaching past the parent's end.
            span(60, 70, 0, Layer::DbExec),
            span(90, 120, 0, Layer::Host),
            // A grandchild only reduces its own parent.
            span(15, 25, 1, Layer::Host),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 10 - 10);
        assert_eq!(st[1], 30 - 10);
        assert_eq!(st[2], 20);
        assert_eq!(st[4], 30, "a child's own self time is not clipped by its parent");
        assert_eq!(st[5], 10);
    }

    #[test]
    fn self_time_of_nested_identical_intervals_is_zero() {
        let spans = [span(5, 9, NO_PARENT, Layer::Request), span(5, 9, 0, Layer::Check)];
        assert_eq!(self_times(&spans), vec![0, 4]);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut t = Tracer::new(Instant::now(), 8);
        t.begin(Layer::Request);
        t.begin(Layer::Check);
        t.end(3);
        t.end_request();
        t.begin(Layer::Request);
        t.end_request();
        let s = t.into_spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, NO_PARENT));
        assert_eq!((s[1].n, s[1].request, s[2].request), (3, 0, 1));
        assert!(s.iter().all(|s| s.end >= s.start));
    }
}
