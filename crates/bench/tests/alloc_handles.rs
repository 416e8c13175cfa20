//! Zero-allocation pins for source node-ids.
//!
//! A source node-id is the source's own index for the node (§4), so an
//! erased source hands out tagged `u32` words and the engine holds them
//! inline in its `VNode`s. Navigating a source node through either layer
//! allocates nothing, and neither does copying the handle.

use mix_algebra::translate;
use mix_buffer::{MetricsRegistry, TraceSink};
use mix_core::{Engine, SourceRegistry, VNode};
use mix_nav::{erase, DocNavigator, LabelPred, Navigator};
use std::hint::black_box;

#[global_allocator]
static ALLOC: countalloc::CountingAlloc = countalloc::CountingAlloc::new();

/// The counters are process-global, and the default test runner is
/// multi-threaded: serialize measured regions so one test's allocations
/// never land in another's delta.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocations in the least of three runs of `f`. A harness thread that
/// starts while `f` runs can land a stray allocation in one run; an
/// allocation `f` makes itself shows in all three.
fn allocations_of(mut f: impl FnMut()) -> u64 {
    (0..3).map(|_| countalloc::count_allocations(&mut f).1.allocations).min().unwrap()
}

const CALLS: usize = 1_000;

#[test]
fn erased_doc_navigation_allocates_nothing_per_call() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut n = erase(DocNavigator::from_term("r[a[x],b,c[y],d]"));
    let root = n.root();
    let a = n.down(&root).unwrap();
    let pred = LabelPred::equals("c");
    let down = allocations_of(|| {
        for _ in 0..CALLS {
            black_box(n.down(black_box(&a)));
        }
    });
    let right = allocations_of(|| {
        for _ in 0..CALLS {
            black_box(n.right(black_box(&a)));
        }
    });
    let select = allocations_of(|| {
        for _ in 0..CALLS {
            black_box(n.select(black_box(&a), &pred));
        }
    });
    assert_eq!((down, right, select), (0, 0, 0), "{CALLS} calls each of d, r, select");
}

/// An engine over an in-memory source, walked to a node inside it: the
/// answer root's first child is a group member, whose children are the
/// source's own nodes. The recorder and live metrics stay off even when
/// the environment forces them on, as recorded events allocate by design.
fn engine_at_a_source_node() -> (Engine, VNode) {
    let mut reg = SourceRegistry::new();
    reg.add_term("homesSrc", "homes[home[zip[z1],price[p1]],home[zip[z2],price[p2]]]");
    let q = "CONSTRUCT <all> $H {$H} </all> {} WHERE homesSrc homes.home $H";
    let plan = translate(&mix_xmas::parse_query(q).unwrap()).unwrap();
    let mut engine = Engine::new(plan, &reg).unwrap();
    engine.set_trace_sink(TraceSink::off());
    engine.set_metrics(MetricsRegistry::off());
    let root = engine.root();
    let member = engine.down(&root).unwrap();
    let zip = engine.down(&member).unwrap();
    assert!(format!("{zip:?}").starts_with("Src "), "a source node-id: {zip:?}");
    (engine, zip)
}

#[test]
fn source_vnodes_clone_and_navigate_without_allocating() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let (mut engine, zip) = engine_at_a_source_node();
    let clones = allocations_of(|| {
        for _ in 0..CALLS {
            black_box(black_box(&zip).clone());
        }
    });
    assert_eq!(clones, 0, "{CALLS} clones of a source VNode");
    let pred = LabelPred::equals("price");
    let navigation = allocations_of(|| {
        for _ in 0..CALLS {
            black_box(engine.down(black_box(&zip)));
            black_box(engine.right(black_box(&zip)));
            black_box(engine.select(black_box(&zip), &pred));
        }
    });
    assert_eq!(navigation, 0, "{CALLS} calls each of d, r, select on a source node");
}
