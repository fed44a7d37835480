//! The query-interception seam.
//!
//! Joza installs itself by wrapping "all standard PHP functions and classes
//! that interact with backend databases" (§IV-A). In this framework the
//! wrapping is structural: every `mysql_query` the interpreter executes is
//! routed through the server's gate before it may reach the database. The
//! gate also receives a copy of the raw request inputs at request start —
//! the paper's preprocessing step, which "stores a copy of all inputs to
//! the web application to preserve them for NTI analysis" (§IV-B), i.e.
//! *before* magic quotes or other transformations run.
//!
//! The seam is two traits: one shared, immutable [`GateFactory`] (`&self`,
//! [`Sync`]) hands out an independent [`GateSession`] per request with the
//! route and raw inputs already bound. All per-request mutability lives in
//! the session, so N server threads can drive one engine concurrently.

use crate::request::InputSource;

/// A raw (pre-transformation) request input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawInput {
    /// Where the value arrived from.
    pub source: InputSource,
    /// Parameter name.
    pub name: String,
    /// Untransformed value.
    pub value: String,
}

/// The gate's verdict for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// Query is safe: forward to the DBMS.
    Allow,
    /// Attack detected; apply *error virtualization*: fail the query as if
    /// the DBMS had rejected it and let application logic handle the error
    /// (§IV-E).
    ErrorVirtualize,
    /// Attack detected; apply *termination*: kill the request (the Joza
    /// default, §IV-E).
    Terminate,
}

/// The per-request side of the gate: checks the queries of exactly one
/// request.
///
/// A session is created by [`GateFactory::session`] with the request's
/// route and raw inputs already bound, so `check` is the only operation
/// left. Sessions are single-threaded values (one per worker); all
/// cross-request state lives behind the factory.
pub trait GateSession {
    /// Called for every intercepted query of this request. The returned
    /// decision is enforced by the server.
    fn check(&mut self, sql: &str) -> GateDecision;

    /// Whether the stored cell `(table, column)` is *dirty* — reachable
    /// by attacker-controlled writes according to the static store/load
    /// pass — so values fetched from it must be treated as taint
    /// sources. The server consults this before offering fetched values
    /// via [`GateSession::capture_db_input`]. Default: `false` (gates
    /// without second-order awareness capture nothing).
    fn dirty_cell(&self, _table: &str, _column: &str) -> bool {
        false
    }

    /// Feeds one value fetched from a dirty cell back into the session
    /// as a DB-sourced input for the remainder of this request — the
    /// second-order analogue of the raw request inputs NTI/PTI match
    /// against. Default: ignored.
    fn capture_db_input(&mut self, _table: &str, _column: &str, _value: &str) {}
}

/// The shared side of the gate: a thread-safe protection engine that hands
/// out one [`GateSession`] per request.
///
/// The factory is consulted through `&self` and must be [`Sync`]: one
/// instance serves every server worker. Per-request state (the input
/// snapshot NTI analyzes, a fast-path route decision, …) is captured at
/// session creation.
pub trait GateFactory: Sync {
    /// Opens a session for one request targeting `route` with the given
    /// raw (pre-transformation) inputs.
    fn session<'a>(&'a self, route: &str, inputs: &[RawInput]) -> Box<dyn GateSession + 'a>;
}

/// A gate that allows everything (the unprotected baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl GateSession for AllowAll {
    fn check(&mut self, _sql: &str) -> GateDecision {
        GateDecision::Allow
    }
}

impl GateFactory for AllowAll {
    fn session<'a>(&'a self, _route: &str, _inputs: &[RawInput]) -> Box<dyn GateSession + 'a> {
        Box::new(AllowAll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_all_is_transparent() {
        let mut s = AllowAll.session("any", &[]);
        assert_eq!(s.check("SELECT 1"), GateDecision::Allow);
        assert_eq!(s.check("SELECT * FROM users WHERE 1=1 OR 1=1"), GateDecision::Allow);
        assert!(!s.dirty_cell("users", "user_pass"));
    }
}
