//! The per-check arena: one [`BufSlot`] per hot-path intermediate.
//!
//! [`CheckArena`] names every recyclable buffer a single query check can
//! need — token stream, symbol skeleton, collapse scratch, folded bytes,
//! critical-token lists, NTI input-folding and q-gram scratch. The engine
//! keeps one arena per OS worker thread ([`with_arena`]): checks on a
//! thread are strictly sequential (the slots are `!Sync` by construction),
//! so each check sees the previous check's capacity and, at steady state,
//! the model fast path performs **zero** heap allocations — asserted by
//! the `alloc_free` integration test with a counting allocator.
//!
//! Ownership is per-thread rather than per-session deliberately: every
//! entry point (sessions, direct `check_query*` calls, batches) funnels
//! through `Joza::check_in` on some thread, so a thread-local covers all
//! of them, and a `GateSession` is itself single-threaded (`!Sync`), so
//! per-session buffers would recycle no better — they would only
//! multiply the retained capacity by the number of live sessions.

use joza_arena::BufSlot;
use joza_sqlparse::symbol::SymId;
use joza_sqlparse::token::Token;

/// Named buffer slots for one worker thread's checks.
#[derive(Debug, Default)]
pub struct CheckArena {
    /// Lexed token stream of the checked query.
    pub tokens: BufSlot<Token>,
    /// Raw symbol skeleton rendered from the token stream.
    pub skeleton: BufSlot<SymId>,
    /// Collapse scratch for fingerprinting (held only inside the
    /// fingerprint computation, never across stages).
    pub collapse: BufSlot<SymId>,
    /// Case-folded query bytes for NTI matching.
    pub folded: BufSlot<u8>,
    /// Critical tokens of the checked query.
    pub criticals: BufSlot<Token>,
    /// NTI per-input case-folding scratch.
    pub input_fold: BufSlot<u8>,
    /// NTI's packed q-gram profile of the query (built only when some
    /// input reaches the q-gram prefilter) and the current input's grams.
    pub query_grams: BufSlot<u64>,
}

impl CheckArena {
    /// An arena with all slots empty (each warms up on first use).
    pub const fn new() -> Self {
        CheckArena {
            tokens: BufSlot::new(),
            skeleton: BufSlot::new(),
            collapse: BufSlot::new(),
            folded: BufSlot::new(),
            criticals: BufSlot::new(),
            input_fold: BufSlot::new(),
            query_grams: BufSlot::new(),
        }
    }
}

thread_local! {
    static ARENA: CheckArena = const { CheckArena::new() };
}

/// Runs `f` with the calling thread's check arena.
///
/// The borrow is scoped to the closure, which is exactly a check's
/// lifetime — `Joza::check_in` wraps its body in this.
pub fn with_arena<R>(f: impl FnOnce(&CheckArena) -> R) -> R {
    ARENA.with(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_arena_recycles_across_calls() {
        let cap = with_arena(|a| {
            let mut t = a.tokens.lease();
            t.reserve(128);
            t.capacity()
        });
        let cap2 = with_arena(|a| a.tokens.lease().capacity());
        assert!(cap2 >= cap.min(128));
    }
}
