//! The traced run's span recorder and per-layer ledger.
//!
//! Every probe at a layer boundary wraps its call in [`span`]. While
//! tracing is off that is one relaxed atomic load and a branch; while it
//! is on, the span is timed, its allocations are counted, and on exit its
//! *self* time and allocations (its own minus those of its child spans)
//! are added to its layer's totals. Spans are also kept in memory, up to
//! a cap fixed when tracing starts, and written out at the end of the run.
//!
//! The recorder's own work for a span (reading the allocation count,
//! pushing and popping it, keeping it) lies outside the span's clock, and
//! the parent subtracts it with the child's time. No layer is charged
//! with it: it is what the ledger leaves unattributed.
//!
//! Ledgers are per thread: a served run has one on the client thread and
//! one on the server thread, merged by the caller.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// The layers a navigation crosses, named after the crate that owns them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's client: the session walk (`mix-nav`).
    Client,
    /// `Tree::to_string` (`mix-xml`).
    Serialize,
    /// Navigation calls into the lazy mediator (`mix-core`).
    Core,
    /// `Engine::with_config`, semantic rewrite included (`mix-core`).
    CoreOpen,
    /// `BufferNavigator` calls (`mix-buffer`).
    Buffer,
    /// `LxpWrapper` exchanges (`mix-wrappers`, or `TreeWrapper`).
    Wrapper,
    /// In-memory source navigators (`DocNavigator`).
    Source,
    /// `parse_query` (`mix-xmas`).
    Parse,
    /// `translate` (`mix-algebra`).
    Translate,
    /// `VxdClient` verbs, request to reply (`mix-serve`): open, a
    /// navigation (d/r/f), close.
    ServeOpen,
    ServeNav,
    ServeClose,
    /// The benchmark's own oracle comparisons.
    Check,
}

pub const LAYERS: usize = 13;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Client,
        Layer::Serialize,
        Layer::Core,
        Layer::CoreOpen,
        Layer::Buffer,
        Layer::Wrapper,
        Layer::Source,
        Layer::Parse,
        Layer::Translate,
        Layer::ServeOpen,
        Layer::ServeNav,
        Layer::ServeClose,
        Layer::Check,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "nav.client",
            Layer::Serialize => "xml.serialize",
            Layer::Core => "core",
            Layer::CoreOpen => "core.open",
            Layer::Buffer => "buffer",
            Layer::Wrapper => "wrappers",
            Layer::Source => "source",
            Layer::Parse => "xmas.parse",
            Layer::Translate => "algebra.translate",
            Layer::ServeOpen => "serve.open",
            Layer::ServeNav => "serve.nav",
            Layer::ServeClose => "serve.close",
            Layer::Check => "harness.check",
        }
    }
}

/// One recorded span. `id`s are assigned in order of entry, per thread;
/// `parent` is 0 for a root span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub session: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals of one thread's traced phase.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub self_ns: [u64; LAYERS],
    pub self_allocs: [u64; LAYERS],
    pub spans: [u64; LAYERS],
    /// Span durations by layer, for layers whose percentiles are reported
    /// (opens, parses, translates, served verbs).
    pub durations: [Durations; LAYERS],
    pub recorded: Vec<Span>,
    pub dropped: u64,
}

/// An evenly spaced sample of one layer's span durations over the whole
/// phase: every `2^stride_log`-th span, the stride doubling each time the
/// buffer fills (see [`push_bounded`]). Never allocates.
#[derive(Clone, Debug, Default)]
pub struct Durations {
    pub kept: Vec<u64>,
    pub seen: u64,
    stride_log: u32,
}

impl Durations {
    fn with_capacity(n: usize) -> Self {
        Durations {
            kept: Vec::with_capacity(n),
            ..Durations::default()
        }
    }

    fn record(&mut self, ns: u64) {
        if self.seen & ((1 << self.stride_log) - 1) == 0 && push_bounded(&mut self.kept, ns) {
            self.stride_log += 1;
        }
        self.seen += 1;
    }
}

impl Totals {
    pub fn self_ns(&self, l: Layer) -> u64 {
        self.self_ns[l as usize]
    }

    pub fn self_allocs(&self, l: Layer) -> u64 {
        self.self_allocs[l as usize]
    }

    pub fn durations(&self, l: Layer) -> &[u64] {
        &self.durations[l as usize].kept
    }

    /// Add another thread's totals to these. Span ids are per thread, so
    /// they may repeat among the recorded spans afterwards; durations
    /// are the measuring thread's only and are not added.
    pub fn absorb(mut self, other: Totals) -> Totals {
        for i in 0..LAYERS {
            self.self_ns[i] += other.self_ns[i];
            self.self_allocs[i] += other.self_allocs[i];
            self.spans[i] += other.spans[i];
        }
        self.recorded.extend(other.recorded);
        self.dropped += other.dropped;
        self
    }

    /// Sum of every layer's self time: the time covered by spans.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

struct Open {
    layer: Layer,
    id: u32,
    /// When [`enter`] was called: the span's clock plus the recorder's
    /// work for it runs from here to the end of [`exit`].
    entered: Instant,
    start: Instant,
    allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

struct Ledger {
    session: u32,
    next_id: u32,
    stack: Vec<Open>,
    totals: Totals,
    cap: usize,
}

/// Span durations kept per layer for percentiles.
const DURATION_SAMPLES: usize = 1 << 14;

/// Layers whose individual span durations are kept for percentiles.
fn keeps_durations(l: Layer) -> bool {
    matches!(
        l,
        Layer::CoreOpen
            | Layer::Parse
            | Layer::Translate
            | Layer::ServeOpen
            | Layer::ServeNav
            | Layer::ServeClose
    )
}

static ON: AtomicBool = AtomicBool::new(false);
static CAP: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

thread_local! {
    static LEDGER: RefCell<Option<Ledger>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn allocations() -> u64 {
    countalloc::CountingAlloc::snapshot().allocations
}

/// Is tracing on?
#[inline]
pub fn on() -> bool {
    ON.load(Relaxed)
}

/// Turn tracing on for every thread, keeping at most `cap` spans per
/// thread in memory. Call [`take`] on each thread afterwards. The calling
/// thread's buffers are reserved here, so they are not counted among the
/// allocations of the phase that follows.
pub fn start(cap: usize) {
    epoch();
    CAP.store(cap, Relaxed);
    ON.store(true, Relaxed);
    with(|_| ());
}

/// Turn tracing off for every thread.
pub fn stop() {
    ON.store(false, Relaxed);
}

/// Tag this thread's following spans with a session number.
pub fn set_session(session: u32) {
    if on() {
        with(|l| l.session = session);
    }
}

/// Hand over and reset this thread's totals.
pub fn take() -> Totals {
    LEDGER.with(|cell| {
        cell.borrow_mut()
            .take()
            .map(|l| l.totals)
            .unwrap_or_default()
    })
}

fn with<T>(f: impl FnOnce(&mut Ledger) -> T) -> T {
    LEDGER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ledger = slot.get_or_insert_with(|| {
            let cap = CAP.load(Relaxed);
            // Reserved up front, so recording never allocates inside a
            // span and per-layer allocation counts stay exact.
            Ledger {
                session: 0,
                next_id: 0,
                stack: Vec::with_capacity(64),
                totals: Totals {
                    durations: Layer::ALL.map(|l| {
                        Durations::with_capacity(if keeps_durations(l) {
                            DURATION_SAMPLES
                        } else {
                            0
                        })
                    }),
                    recorded: Vec::with_capacity(cap),
                    ..Totals::default()
                },
                cap,
            }
        });
        f(ledger)
    })
}

/// Run `f` as a span of `layer` when tracing is on.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    enter(layer);
    let out = f();
    exit();
    out
}

fn enter(layer: Layer) {
    let entered = Instant::now();
    with(|l| {
        l.next_id += 1;
        let id = l.next_id;
        let allocs = allocations();
        l.stack.push(Open {
            layer,
            id,
            entered,
            start: Instant::now(),
            allocs,
            child_ns: 0,
            child_allocs: 0,
        });
    });
}

fn exit() {
    let end = Instant::now();
    let allocs = allocations();
    with(|l| {
        let open = l.stack.pop().expect("span exit matches an enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let total_allocs = allocs - open.allocs;
        let i = open.layer as usize;
        l.totals.self_ns[i] += dur.saturating_sub(open.child_ns);
        l.totals.self_allocs[i] += total_allocs.saturating_sub(open.child_allocs);
        l.totals.spans[i] += 1;
        if keeps_durations(open.layer) {
            l.totals.durations[i].record(dur);
        }
        let parent = l.stack.last().map_or(0, |p| p.id);
        if l.totals.recorded.len() < l.cap {
            let base = epoch();
            l.totals.recorded.push(Span {
                id: open.id,
                parent,
                session: l.session,
                layer: open.layer,
                start_ns: open.start.duration_since(base).as_nanos() as u64,
                end_ns: end.duration_since(base).as_nanos() as u64,
            });
        } else {
            l.totals.dropped += 1;
        }
        // The parent subtracts this span's time and the recorder's work
        // for it, so that work is left to no layer.
        if let Some(p) = l.stack.last_mut() {
            p.child_ns += open.entered.elapsed().as_nanos() as u64;
            p.child_allocs += total_allocs;
        }
    });
}

/// Append to a sample buffer of fixed capacity, halving it when full.
/// Returns whether it was halved. Never allocates.
pub fn push_bounded(v: &mut Vec<u64>, x: u64) -> bool {
    let full = v.len() == v.capacity();
    if full {
        let mut keep = false;
        v.retain(|_| {
            keep = !keep;
            keep
        });
    }
    v.push(x);
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_sample_the_whole_phase_evenly() {
        let mut d = Durations::with_capacity(64);
        for ns in 0..10_000 {
            d.record(ns);
        }
        assert_eq!(d.seen, 10_000);
        assert!(d.kept.len() <= 64 && d.kept.len() > 32, "{}", d.kept.len());
        assert_eq!(d.kept.capacity(), 64);
        let stride = d.kept[1] - d.kept[0];
        assert!(d.kept.windows(2).all(|w| w[1] - w[0] == stride));
        assert_eq!(d.kept[0], 0);
        assert!(*d.kept.last().unwrap() >= 10_000 - stride);
    }

    #[test]
    fn recorder_work_is_left_unattributed() {
        start(1 << 10);
        let t = Instant::now();
        span(Layer::Client, || {
            for _ in 0..20_000 {
                span(Layer::Core, || std::hint::black_box(0));
            }
        });
        let wall = t.elapsed().as_nanos() as u64;
        stop();
        let totals = take();
        assert_eq!(totals.spans[Layer::Core as usize], 20_000);
        assert_eq!(totals.dropped, 20_001 - (1 << 10));
        // Twenty thousand empty spans: nearly all of the loop's time is
        // the recorder's, and neither layer may be charged with it.
        let attributed = totals.attributed_ns();
        assert!(attributed < wall, "{attributed} vs {wall}");
        assert!(
            totals.self_ns(Layer::Client) < wall / 2,
            "client self {} of {wall}",
            totals.self_ns(Layer::Client)
        );
    }
}
