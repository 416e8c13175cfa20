//! Pass-through probes at the layer boundaries.
//!
//! Each probe forwards every call unchanged to the value it wraps, counts
//! what crosses the boundary, and — in the traced run only — records the
//! call as a span of its layer. The counters are exact and always on. The
//! layer clocks are the ledger's and run only while tracing; the client
//! boundary ([`Client`], [`Clock`]) is the only place timed untraced.

use crate::ledger::{push_bounded, span, Layer};
use mix_buffer::{BatchItem, Fragment, HoleId, LxpError, LxpWrapper};
use mix_nav::{LabelPred, Navigator};
use mix_xml::Label;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// A relaxed counter: statistics only, publishing no other data.
#[derive(Default, Debug)]
pub struct Count(AtomicU64);

impl Count {
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// What crossed the `LxpWrapper` boundary: exchanges (`get_root`, `fill`
/// and `fill_many` calls, failed attempts included), holes asked for, and
/// reply bytes (`Fragment::wire_bytes`, the buffer's own measure).
#[derive(Default, Debug)]
pub struct WireCounters {
    pub exchanges: Count,
    pub holes: Count,
    pub bytes: Count,
}

fn reply_bytes(fragments: &[Fragment]) -> u64 {
    fragments.iter().map(|f| f.wire_bytes() as u64).sum()
}

/// Pass-through [`LxpWrapper`].
pub struct ProbeWrapper<W> {
    inner: W,
    counters: Arc<WireCounters>,
}

impl<W> ProbeWrapper<W> {
    pub fn new(inner: W, counters: Arc<WireCounters>) -> Self {
        ProbeWrapper { inner, counters }
    }
}

impl<W: LxpWrapper> LxpWrapper for ProbeWrapper<W> {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        self.counters.exchanges.add(1);
        let out = span(Layer::Wrapper, || self.inner.get_root(uri));
        if let Ok(hole) = &out {
            self.counters.bytes.add(hole.len() as u64);
        }
        out
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        self.counters.exchanges.add(1);
        self.counters.holes.add(1);
        let out = span(Layer::Wrapper, || self.inner.fill(hole));
        if let Ok(reply) = &out {
            self.counters.bytes.add(reply_bytes(reply));
        }
        out
    }

    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        self.counters.exchanges.add(1);
        self.counters.holes.add(holes.len() as u64);
        let out = span(Layer::Wrapper, || self.inner.fill_many(holes));
        if let Ok(items) = &out {
            self.counters
                .bytes
                .add(items.iter().map(|i| reply_bytes(&i.fragments)).sum());
        }
        out
    }
}

/// Calls into a source navigator, and the label bytes it returned.
#[derive(Default, Debug)]
pub struct NavCounters {
    pub calls: Count,
    pub label_bytes: Count,
}

/// Pass-through [`Navigator`] around a source navigator
/// (`BufferNavigator` or `DocNavigator`), recorded as `layer`.
pub struct ProbeNav<N> {
    inner: N,
    layer: Layer,
    counters: Arc<NavCounters>,
}

impl<N> ProbeNav<N> {
    pub fn new(inner: N, layer: Layer, counters: Arc<NavCounters>) -> Self {
        ProbeNav {
            inner,
            layer,
            counters,
        }
    }
}

impl<N: Navigator> Navigator for ProbeNav<N> {
    type Handle = N::Handle;

    fn root(&mut self) -> N::Handle {
        self.counters.calls.add(1);
        span(self.layer, || self.inner.root())
    }

    fn down(&mut self, p: &N::Handle) -> Option<N::Handle> {
        self.counters.calls.add(1);
        span(self.layer, || self.inner.down(p))
    }

    fn right(&mut self, p: &N::Handle) -> Option<N::Handle> {
        self.counters.calls.add(1);
        span(self.layer, || self.inner.right(p))
    }

    fn fetch(&mut self, p: &N::Handle) -> Label {
        self.counters.calls.add(1);
        let label = span(self.layer, || self.inner.fetch(p));
        self.counters.label_bytes.add(label.len() as u64);
        label
    }

    fn select(&mut self, p: &N::Handle, pred: &LabelPred) -> Option<N::Handle> {
        self.counters.calls.add(1);
        span(self.layer, || self.inner.select(p, pred))
    }
}

/// Samples kept per window: latencies, first-answer times and host
/// reference times. Past this, every other sample is dropped (and for
/// latencies the sampling stride doubles), so memory stays bounded.
const WINDOW_SAMPLES: usize = 1 << 13;
const WINDOW_SESSIONS: usize = 1 << 11;
const WINDOW_REFERENCES: usize = 1 << 10;

/// Client-boundary samples of one time window of a phase.
pub struct Window {
    pub sessions: u64,
    /// Sum of the window's session durations.
    pub busy_ns: u64,
    pub nav_ns: Vec<u64>,
    pub first_answer_ns: Vec<u64>,
    /// Times of the host reference ([`HostReference`]) in this window.
    pub reference_ns: Vec<u64>,
    stride: u64,
}

/// Client-boundary samples of one phase, by window: per-command
/// latencies (one command in `stride`, so long scans do not fill memory)
/// and the open-to-first-answer time of each session. All windows are
/// allocated up front, so taking samples never allocates and the
/// program's allocation counts stay exact.
pub struct Clock {
    pub commands: u64,
    windows: Vec<Window>,
    current: usize,
}

impl Clock {
    pub fn new(stride: u64, windows: usize) -> Self {
        let windows = (0..windows.max(1))
            .map(|_| Window {
                sessions: 0,
                busy_ns: 0,
                nav_ns: Vec::with_capacity(WINDOW_SAMPLES),
                first_answer_ns: Vec::with_capacity(WINDOW_SESSIONS),
                reference_ns: Vec::with_capacity(WINDOW_REFERENCES),
                stride: stride.max(1),
            })
            .collect();
        Clock {
            commands: 0,
            windows,
            current: 0,
        }
    }

    /// The windows used so far.
    pub fn windows(&self) -> &[Window] {
        &self.windows[..=self.current]
    }

    pub fn next_window(&mut self) {
        self.current = (self.current + 1).min(self.windows.len() - 1);
    }

    fn window(&mut self) -> &mut Window {
        &mut self.windows[self.current]
    }

    /// Count one client command; true when it is one to time. The pick
    /// is hashed, not every `stride`-th, so it cannot fall into step with
    /// a walk's regular d/f/r pattern.
    #[inline]
    pub fn count_command(&mut self) -> bool {
        self.commands += 1;
        let stride = self.window().stride;
        stride == 1 || crate::harness::mix64(self.commands).is_multiple_of(stride)
    }

    pub fn nav(&mut self, ns: u64) {
        let w = self.window();
        if push_bounded(&mut w.nav_ns, ns) {
            w.stride *= 2;
        }
    }

    pub fn first_answer(&mut self, ns: u64) {
        push_bounded(&mut self.window().first_answer_ns, ns);
    }

    pub fn reference(&mut self, ns: u64) {
        push_bounded(&mut self.window().reference_ns, ns);
    }

    pub fn session_done(&mut self, ns: u64) {
        let w = self.window();
        w.sessions += 1;
        w.busy_ns += ns;
    }
}

/// The benchmark's client: a pass-through [`Navigator`] around the lazy
/// mediator (`Engine`), as handed to `mix_nav::explore`. Untraced, it
/// times commands at this boundary and notes when the first answer
/// child's label arrives — the first `fetch` after the first `down` that
/// found a child. Traced, each command is a `core` span instead.
pub struct Client<'a, N> {
    inner: &'a mut N,
    clock: &'a mut Clock,
    opened: Instant,
    seen_child: bool,
    answered: bool,
}

impl<'a, N: Navigator> Client<'a, N> {
    pub fn new(inner: &'a mut N, clock: &'a mut Clock, opened: Instant) -> Self {
        Client {
            inner,
            clock,
            opened,
            seen_child: false,
            answered: false,
        }
    }

    #[inline]
    fn command<T>(&mut self, f: impl FnOnce(&mut N) -> T) -> T {
        let timed = self.clock.count_command();
        if crate::ledger::on() {
            let inner = &mut *self.inner;
            return span(Layer::Core, || f(inner));
        }
        if !timed {
            return f(self.inner);
        }
        let t = Instant::now();
        let out = f(self.inner);
        self.clock.nav(t.elapsed().as_nanos() as u64);
        out
    }
}

impl<N: Navigator> Navigator for Client<'_, N> {
    type Handle = N::Handle;

    fn root(&mut self) -> N::Handle {
        self.inner.root()
    }

    fn down(&mut self, p: &N::Handle) -> Option<N::Handle> {
        let out = self.command(|n| n.down(p));
        self.seen_child |= out.is_some();
        out
    }

    fn right(&mut self, p: &N::Handle) -> Option<N::Handle> {
        self.command(|n| n.right(p))
    }

    fn fetch(&mut self, p: &N::Handle) -> Label {
        let label = self.command(|n| n.fetch(p));
        if self.seen_child && !self.answered {
            self.answered = true;
            self.clock
                .first_answer(self.opened.elapsed().as_nanos() as u64);
        }
        label
    }

    fn select(&mut self, p: &N::Handle, pred: &LabelPred) -> Option<N::Handle> {
        self.command(|n| n.select(p, pred))
    }
}

/// The server side of a served connection: bytes both ways, and — while
/// tracing — the time from a request's last byte to the first byte of its
/// reply (busy).
#[derive(Default, Debug)]
pub struct StreamCounters {
    pub bytes: Count,
    pub busy_ns: Count,
}

/// Pass-through `Read + Write` given to `VxdServer::serve_connection`.
pub struct ProbeStream<S> {
    inner: S,
    counters: Arc<StreamCounters>,
    request_read_at: Option<Instant>,
}

impl<S> ProbeStream<S> {
    pub fn new(inner: S, counters: Arc<StreamCounters>) -> Self {
        ProbeStream {
            inner,
            counters,
            request_read_at: None,
        }
    }
}

impl<S: Read> Read for ProbeStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !crate::ledger::on() {
            let n = self.inner.read(buf)?;
            self.counters.bytes.add(n as u64);
            return Ok(n);
        }
        let n = self.inner.read(buf)?;
        self.counters.bytes.add(n as u64);
        self.request_read_at = Some(Instant::now());
        Ok(n)
    }
}

impl<S: Write> Write for ProbeStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(t) = self.request_read_at.take() {
            self.counters.busy_ns.add(t.elapsed().as_nanos() as u64);
        }
        let n = self.inner.write(buf)?;
        self.counters.bytes.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A fixed piece of work that shares nothing with the program under
/// measurement: 512 binary searches for pseudo-random keys in a sorted
/// 8 KiB table, about 40 µs on a quiet 2 GHz virtual CPU. Timed between
/// sessions, it tracks how fast the host lets the benchmark's CPU run:
/// on a virtual machine shared with other tenants that speed drifts by
/// up to a half over seconds to minutes, and from window to window the
/// client's session rate moves in inverse proportion to this time.
pub struct HostReference {
    table: Vec<u32>,
    state: u64,
}

/// The reference's time at the nominal host speed that the end-to-end
/// timings are scaled to.
pub const NOMINAL_REFERENCE_NS: f64 = 40_000.0;

impl HostReference {
    pub fn new() -> Self {
        HostReference {
            table: (0..2048u32).map(|i| i * 3).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn time_ns(&mut self) -> u64 {
        let t = Instant::now();
        let mut x = self.state;
        let mut hits = 0u32;
        for _ in 0..512 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 6144) as u32;
            let (mut lo, mut hi) = (0, self.table.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.table[mid] < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            hits += u32::from(self.table.get(lo) == Some(&key));
        }
        self.state = x;
        std::hint::black_box(hits);
        t.elapsed().as_nanos() as u64
    }

    /// The median of `n` timings.
    pub fn median_ns(&mut self, n: usize) -> f64 {
        let times: Vec<f64> = (0..n).map(|_| self.time_ns() as f64).collect();
        crate::report::median(&times)
    }
}
