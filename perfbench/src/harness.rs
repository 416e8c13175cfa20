//! What every workload shares: the session loop of one measured phase,
//! the counters read around it, the oracle comparison and the seeded
//! draws.

use crate::ledger::{self, span, Layer, Totals};
use crate::probe::{Clock, HostReference};
use mix_xml::Tree;
use std::time::{Duration, Instant};

/// Spans kept in memory per thread during a traced phase.
pub const SPAN_CAP: usize = 1 << 16;

/// Time windows per phase. Each window's client-side times are scaled
/// by the host reference timed in that window, and throughput and
/// command latencies are reported as the median over windows.
pub const WINDOWS: u32 = 48;

/// How often the untraced session loop times the host reference, and
/// how many times in a row. At about 40 µs a run, that is under 1% of
/// the phase, and it lies outside every session's clock.
const REFERENCE_EVERY: Duration = Duration::from_millis(10);
const REFERENCE_RUNS: usize = 2;

/// Operations attempted and failed, as seen by the client.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Client commands (navigations, fetches, opens, closes).
    pub ops: u64,
    /// Labels or structure that differ from the oracle at the same position.
    pub mismatches: u64,
    /// Typed errors returned to the client.
    pub errors: u64,
    /// Fetches answered with a `Degraded` label.
    pub degraded: u64,
    /// Answer nodes the client received in full.
    pub answer_nodes: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.mismatches + self.errors + self.degraded
    }
}

/// Cumulative counters a workload exposes. Fields a workload has no use
/// for stay 0; `views_resident` is a level, every other field a running
/// total.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub exchanges: u64,
    pub holes: u64,
    pub wire_bytes: u64,
    pub buffer_calls: u64,
    /// Commands on in-memory source navigators, and the label bytes
    /// they returned: the source load of a workload without wrappers.
    pub source_calls: u64,
    pub source_bytes: u64,
    pub source_navs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_invalidations: u64,
    pub retries: u64,
    pub frame_bytes: u64,
    pub server_busy_ns: u64,
    pub draws: u64,
    pub covered: u64,
    pub views_resident: u64,
}

impl Counters {
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            exchanges: self.exchanges - before.exchanges,
            holes: self.holes - before.holes,
            wire_bytes: self.wire_bytes - before.wire_bytes,
            buffer_calls: self.buffer_calls - before.buffer_calls,
            source_calls: self.source_calls - before.source_calls,
            source_bytes: self.source_bytes - before.source_bytes,
            source_navs: self.source_navs - before.source_navs,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            cache_invalidations: self.cache_invalidations - before.cache_invalidations,
            retries: self.retries - before.retries,
            frame_bytes: self.frame_bytes - before.frame_bytes,
            server_busy_ns: self.server_busy_ns - before.server_busy_ns,
            draws: self.draws - before.draws,
            covered: self.covered - before.covered,
            views_resident: self.views_resident,
        }
    }
}

/// One workload: a set-up, then sessions numbered from 0.
pub trait Workload {
    /// Sessions whose counters form the exact, repeatable fingerprint.
    const EXACT_SESSIONS: u64;
    /// Time every `CLOCK_STRIDE`-th client command.
    const CLOCK_STRIDE: u64;
    /// Whether the measured sessions run on one thread, so allocation
    /// counts are exact.
    const SINGLE_THREAD: bool;

    /// Run session `i`: open a view, navigate, close.
    fn session(&mut self, i: u64, clock: &mut Clock, tally: &mut Tally);

    /// The running totals of this workload's counters.
    fn counters(&self) -> Counters;

    /// Called before a phase's first session.
    fn begin_phase(&mut self) {}

    /// Called after a phase's last session; returns the ledger of any
    /// other thread that did work for the phase.
    fn end_phase(&mut self) -> Option<Totals> {
        None
    }
}

/// Counters of the first `EXACT_SESSIONS` sessions of a run: equal on
/// every run with the same seed.
#[derive(Clone, Copy, Debug)]
pub struct Exact {
    pub sessions: u64,
    pub counters: Counters,
    pub allocations: Option<u64>,
}

pub struct Phase {
    pub wall: Duration,
    pub sessions: u64,
    pub clock: Clock,
    pub tally: Tally,
    pub delta: Counters,
    pub exact: Option<Exact>,
    /// The measuring thread's ledger (traced phases only).
    pub totals: Totals,
    /// Other threads' ledgers (traced phases only).
    pub others: Totals,
}

impl Phase {
    pub fn per_session(&self, v: f64) -> f64 {
        crate::report::ratio(v, self.sessions as f64)
    }

    /// Mean session time on the session clock, which leaves out the
    /// host reference runs between sessions.
    pub fn session_ns(&self) -> f64 {
        let busy: u64 = self.clock.windows().iter().map(|w| w.busy_ns).sum();
        busy as f64 / self.sessions.max(1) as f64
    }
}

/// Run sessions `first..` for `seconds` (and at least until the exact
/// fingerprint is taken, when `first` is 0).
pub fn run_phase<W: Workload>(w: &mut W, first: u64, seconds: f64, traced: bool) -> Phase {
    let mut clock = Clock::new(W::CLOCK_STRIDE, WINDOWS as usize);
    let mut host = HostReference::new();
    let mut tally = Tally::default();
    w.begin_phase();
    let before = w.counters();
    if traced {
        ledger::start(SPAN_CAP);
    }
    let allocs0 = countalloc::CountingAlloc::snapshot().allocations;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut n = 0u64;
    let mut exact = None;
    let mut window = 1;
    let mut referenced = start;
    loop {
        let i = first + n;
        ledger::set_session(i as u32);
        if !traced && (n == 0 || referenced.elapsed() >= REFERENCE_EVERY) {
            for _ in 0..REFERENCE_RUNS {
                clock.reference(host.time_ns());
            }
            referenced = Instant::now();
        }
        let t = Instant::now();
        span(Layer::Client, || w.session(i, &mut clock, &mut tally));
        clock.session_done(t.elapsed().as_nanos() as u64);
        if window < WINDOWS && start.elapsed() >= budget * window / WINDOWS {
            window += 1;
            clock.next_window();
        }
        n += 1;
        if first == 0 && n == W::EXACT_SESSIONS {
            let allocations = countalloc::CountingAlloc::snapshot().allocations - allocs0;
            exact = Some(Exact {
                sessions: n,
                counters: w.counters().since(&before),
                allocations: W::SINGLE_THREAD.then_some(allocations),
            });
        }
        let fingerprint_pending = first == 0 && n < W::EXACT_SESSIONS;
        if start.elapsed() >= budget && !fingerprint_pending {
            break;
        }
    }
    let wall = start.elapsed();
    let totals = if traced {
        ledger::take()
    } else {
        Totals::default()
    };
    let others = w.end_phase().unwrap_or_default();
    if traced {
        ledger::stop();
    }
    let delta = w.counters().since(&before);
    Phase {
        wall,
        sessions: n,
        clock,
        tally,
        delta,
        exact,
        totals,
        others,
    }
}

/// Label and shape differences between a fetched tree and the oracle's,
/// position by position: 0 when they are equal.
pub fn mismatches(got: &Tree, want: &Tree) -> u64 {
    if got == want {
        return 0;
    }
    let here = u64::from(got.label() != want.label());
    let (g, w) = (got.children(), want.children());
    let common: u64 = g.iter().zip(w).map(|(a, b)| mismatches(a, b)).sum();
    let extra: u64 = g
        .iter()
        .skip(w.len())
        .chain(w.iter().skip(g.len()))
        .map(|t| t.size() as u64)
        .sum();
    here + common + extra
}

/// Compare a fetched forest with the oracle's, counting the check as the
/// harness's own time.
pub fn check_forest(got: &[Tree], want: &[Tree]) -> u64 {
    span(Layer::Check, || {
        let common: u64 = got.iter().zip(want).map(|(a, b)| mismatches(a, b)).sum();
        let extra: u64 = got
            .iter()
            .skip(want.len())
            .chain(want.iter().skip(got.len()))
            .map(|t| t.size() as u64)
            .sum();
        common + extra
    })
}

/// SplitMix64: one seeded draw per (seed, stream, index).
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(mix64(seed ^ stream.rotate_left(40)) ^ i)
}

/// A uniform draw in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Cumulative zipf weights over `n` ranks with skew `s`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cum = 0.0;
    weights
        .iter()
        .map(|w| {
            cum += w / total;
            cum
        })
        .collect()
}

pub fn pick(cdf: &[f64], x: u64) -> usize {
    let u = unit(x);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_xml::term::parse_term;

    #[test]
    fn mismatches_count_positions() {
        let a = parse_term("r[a[1],b[2]]").unwrap();
        assert_eq!(mismatches(&a, &a), 0);
        assert_eq!(mismatches(&parse_term("r[a[1],b[3]]").unwrap(), &a), 1);
        assert_eq!(mismatches(&parse_term("r[a[1]]").unwrap(), &a), 2);
    }

    #[test]
    fn zipf_draws_stay_in_range() {
        let cdf = zipf_cdf(6, 1.1);
        assert!((cdf[5] - 1.0).abs() < 1e-12);
        for i in 0..1000 {
            assert!(pick(&cdf, draw(7, 1, i)) < 6);
        }
    }
}
