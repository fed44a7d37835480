//! The allocation-free hot path, asserted with a counting allocator:
//! once the per-thread check arena and the symbol table are warm, a
//! model-fast-path check performs **zero** heap allocations, and a
//! dynamic-path check allocates no more for a thousand captured inputs
//! than for one.
//!
//! The counter is thread-local, so parallel tests in this binary cannot
//! pollute each other's deltas, and the global allocator hook stays
//! reentrancy-safe (a `const`-initialized `Cell` needs no lazy
//! allocation of its own).

use joza::core::{CheckPath, Joza, JozaConfig, JozaSession};
use joza::sqlparse::template::{QueryModelIndex, QueryTemplate, RouteModel, TemplatePart};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bump() {
    // `try_with` so allocations during TLS teardown are simply not
    // counted instead of aborting the process.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the bookkeeping around it
// touches only a const-initialized thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// An engine whose `items` route carries a complete query model for
/// `SELECT * FROM items WHERE id=<hole>`, so matching queries resolve on
/// the model fast path.
fn model_engine() -> Joza {
    model_engine_with(JozaConfig::optimized())
}

fn model_engine_with(config: JozaConfig) -> Joza {
    let template = QueryTemplate {
        parts: vec![
            TemplatePart::Lit("SELECT * FROM items WHERE id=".to_string()),
            TemplatePart::Hole,
        ],
    };
    let mut models = QueryModelIndex::new();
    models.insert("items", RouteModel::build(&[Some(vec![template])]));
    Joza::builder()
        .fragments(["SELECT * FROM items WHERE id="])
        .config(config)
        .query_models(models)
        .known_routes(["items"])
        .build()
}

#[test]
fn model_fast_path_is_allocation_free_when_warm() {
    let joza = model_engine();
    let queries = [
        "SELECT * FROM items WHERE id=42",
        "SELECT * FROM items WHERE id=7",
        "SELECT * FROM items WHERE id=123456",
    ];

    // Warmup: grows the thread's arena buffers to the working-set
    // high-water mark, interns the queries' skeleton vocabulary, and
    // faults in every lazy static on the path (stats cells, keyword
    // tables). Two rounds so buffer capacities stop moving.
    for _ in 0..2 {
        for q in queries {
            let v = joza.check_query_on_route("items", &["42"], q);
            assert!(v.is_safe(), "warmup query must pass the model: {q}");
            assert_eq!(v.path(), CheckPath::ModelFastPath, "{q}");
        }
    }

    let before = allocs_on_this_thread();
    for _ in 0..32 {
        for q in queries {
            let v = joza.check_query_on_route("items", &["42"], q);
            assert!(v.is_safe());
            assert_eq!(v.path(), CheckPath::ModelFastPath);
        }
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(delta, 0, "warm model-fast-path checks must not allocate ({delta} allocations)");
}

#[test]
fn identifiers_never_seen_at_deployment_render_without_allocating() {
    // NTI alone behind the model: the model stage renders the skeleton,
    // the fresh identifier takes a check-local id (so the automaton
    // rejects it and NTI runs), and neither step may allocate once the
    // arena is warm. PTI's daemon frames would allocate, so it is off.
    let joza = model_engine_with(JozaConfig { disable_pti: true, ..JozaConfig::optimized() });
    let queries: Vec<String> = (0..64)
        .map(|i| format!("SELECT * FROM items WHERE id=42 AND fresh_alias_{i:03}=1"))
        .collect();
    let check = |q: &str| {
        let v = joza.check_query_on_route("items", &["42"], q);
        assert!(v.is_safe(), "{q}");
        assert_eq!(v.path(), CheckPath::Dynamic, "an unknown identifier misses the model: {q}");
        assert!(v.structural_anomaly(), "{q}");
    };
    for q in &queries[..2] {
        check(q);
    }

    let before = allocs_on_this_thread();
    for q in &queries[2..] {
        check(q);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(delta, 0, "warm checks with fresh identifiers must not allocate ({delta})");
}

#[test]
fn warm_batch_amortizes_to_constant_allocations() {
    use joza::core::QueryCheck;

    let joza = model_engine();
    let checks: Vec<QueryCheck> =
        (0..64).map(|i| QueryCheck::new(format!("SELECT * FROM items WHERE id={i}"))).collect();

    let mut session = joza.session_for("items");
    session.capture_input("id", "42");
    let warm = session.check_batch(&checks);
    assert!(warm.iter().all(|v| v.is_safe() && v.path() == CheckPath::ModelFastPath));

    let before = allocs_on_this_thread();
    let verdicts = session.check_batch(&checks);
    let delta = allocs_on_this_thread() - before;
    assert!(verdicts.iter().all(|v| v.is_safe()));

    // The whole 64-query batch is allowed its fixed serving-side
    // allocations (the verdict vector) but nothing per query: well under
    // one allocation per check.
    assert!(delta < 8, "64-query warm batch allocated {delta} times");
}

#[test]
fn dirty_cell_lookups_are_allocation_free() {
    // Second-order capture asks once per origin of every fetched result
    // column; with every wildcard form deployed, no lookup allocates.
    let j = Joza::builder()
        .fragments(["SELECT 1"])
        .dirty_cells([("wp_comments", "comment_content"), ("wp_users", "*"), ("*", "meta_value")])
        .build();
    let session = j.session_for("items");
    let before = allocs_on_this_thread();
    let hits = [
        ("wp_comments", "comment_content"),
        ("WP_Comments", "Comment_Content"),
        ("wp_users", "user_login"),
        ("wp_postmeta", "meta_value"),
        ("wp_posts", "post_title"),
    ]
    .into_iter()
    .filter(|(t, c)| session.is_dirty_cell(t, c))
    .count();
    assert_eq!(allocs_on_this_thread() - before, 0, "a dirty-cell lookup allocated");
    assert_eq!(hits, 4);
}

#[test]
fn warm_dynamic_check_allocates_as_often_with_1000_inputs_as_with_1() {
    // No route model, so every check runs NTI over the session's input
    // set and PTI, which the query cache answers once warm. The inputs'
    // gram keys are built by the warm-up checks.
    // (The alignment kernel allocates per comparison it runs, so both
    // sessions run the same one.)
    let joza = Joza::builder().fragments(["SELECT * FROM items WHERE name='", "'"]).build();
    let query = "SELECT * FROM items WHERE name='Widget-0042'";
    let warm_allocs = |session: &JozaSession<'_>| {
        for _ in 0..2 {
            let v = session.check(query);
            assert!(v.is_safe(), "{query}");
            assert_eq!(v.path(), CheckPath::Dynamic);
        }
        let before = allocs_on_this_thread();
        for _ in 0..16 {
            assert!(session.check(query).is_safe());
        }
        allocs_on_this_thread() - before
    };
    let mut one = joza.session();
    one.capture_input("name", "Widget-0042");
    // The same input plus 999 the filters skip: mixed-case short values
    // (the piece filter) and every tenth a 43-byte one (the q-gram count).
    // Only the compared input reaches the alignment kernel, in both
    // sessions.
    let mut many = joza.session();
    many.capture_input("name", "Widget-0042");
    for i in 1..1000 {
        let value = match i % 10 {
            0 => format!("a longer captured value number {i:04} ....."),
            _ => format!("Zq{i:04}xY"),
        };
        many.capture_input(&format!("p{i}"), &value);
    }
    assert_eq!(many.inputs().len(), 1000);
    let (one, many) = (warm_allocs(&one), warm_allocs(&many));
    assert_eq!(one, many, "1 input: {one} allocations, 1,000 inputs: {many}");
}
