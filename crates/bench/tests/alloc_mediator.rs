//! Allocation-budget test for the lazy mediator path.
//!
//! The scan workload's `cheap_homes` view — getDescendants over the rows,
//! getDescendants into each row's price, a select on it, a groupBy and a
//! createElement — walked through `Engine` over a batched buffer. Each
//! navigation step of the lazy operators used to allocate: the
//! getDescendants cursor cloned its whole frame stack, stepped NFA state
//! sets and cloned variable names, and every select candidate built a
//! `HashMap` of predicate values. This pins the allocation-lean path: the
//! walk allocates O(rows), under a per-row budget.

use mix_algebra::translate;
use mix_buffer::{BufferNavigator, MetricsRegistry, TraceSink};
use mix_core::{Engine, SourceRegistry};
use mix_nav::explore::materialize;
use mix_wrappers::{gen, RelationalWrapper};

#[global_allocator]
static ALLOC: countalloc::CountingAlloc = countalloc::CountingAlloc::new();

/// The counters are process-global, and the default test runner is
/// multi-threaded: serialize measured regions so one test's allocations
/// never land in another's delta.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

const QUERY: &str = "CONSTRUCT <cheap_homes> $R {$R} </cheap_homes> {} \
     WHERE realestate realestate.homes.row $R AND $R price._ $P AND $P < 650000";

/// Walk the view over a `rows`-row table; returns (allocations, answer
/// rows). The flight recorder and live metrics stay off even when the
/// environment forces them on: recorded events allocate by design, and
/// this pins the navigation path itself.
fn walk_view(rows: usize) -> (u64, usize) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let plan = translate(&mix_xmas::parse_query(QUERY).unwrap()).unwrap();
    let db = gen::homes_database(1, rows, 100);
    let w = RelationalWrapper::new(db, 10).with_batch_budget(16);
    let mut reg = SourceRegistry::new();
    let buffer = BufferNavigator::new(w, "realestate").batched(16).with_trace(TraceSink::off());
    reg.add_navigator("realestate", buffer);
    let mut engine = Engine::new(plan, &reg).unwrap();
    engine.set_trace_sink(TraceSink::off());
    engine.set_metrics(MetricsRegistry::off());
    let (tree, counts) = countalloc::count_allocations(|| materialize(&mut engine));
    (counts.allocations, tree.children().len())
}

#[test]
fn mediator_walk_allocates_under_a_per_row_budget() {
    let rows = 10_000;
    let (allocations, answers) = walk_view(rows);
    assert!(answers > 0 && answers < rows, "the select keeps some rows, not all");
    // Measured 47.8 allocations per row: wrapper fills and buffer splices
    // (~18/row on their own), the mediator's cursor frames, value handles
    // and binding handles, and the materialized answer. The budget is 1.5x
    // that. The path with Vec-cloning cursors, NFA state sets and
    // per-candidate predicate maps allocated 103.3 per row.
    let per_row = allocations as f64 / rows as f64;
    assert!(
        per_row < 72.0,
        "the mediator walk allocated {allocations} times for {rows} rows ({per_row:.1}/row)"
    );
}

#[test]
fn mediator_allocations_scale_linearly_in_rows() {
    // 5x the rows must cost about 5x the allocations.
    let (small, _) = walk_view(2_000);
    let (large, _) = walk_view(10_000);
    let ratio = large as f64 / small as f64;
    assert!(
        (4.0..6.0).contains(&ratio),
        "10k/2k allocation ratio {ratio:.2}x; expected ~5x (linear in rows)"
    );
}
