//! The navigation ledger: one benchmark for MIX sessions, end to end and
//! per crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan|join|served|requery --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures sessions with clocks only at the
//! client boundary and reports the end-to-end metrics, their times
//! scaled to a nominal host speed by a host reference timed between
//! sessions (the wall-clock figures are printed above the result). With
//! `--trace 1` it runs half the time traced, from session 0, then half
//! untraced, reports the per-layer metrics from the traced half, and
//! writes the traced half's spans to `$CARGO_TARGET_DIR/perfbench-spans/`
//! (`perfbench/target/…` when unset).
//! Every answer is checked against an eager oracle; the process exits 1 on
//! any failed operation, 2 on bad arguments or a program-altering
//! environment, and prints one JSON result as its last stdout line.

mod harness;
mod join;
mod ledger;
mod probe;
mod report;
mod requery;
mod scan;
mod served;

use harness::{run_phase, Phase, Workload, WINDOWS};
use ledger::Layer;
use probe::{HostReference, Window, NOMINAL_REFERENCE_NS};
use report::{median, metric, percentile, ratio, us, Metric, Outcome};
use std::io::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: countalloc::CountingAlloc = countalloc::CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Host reference runs timed before and after each set-up.
const SETUP_REFERENCE_RUNS: usize = 15;

const WORKLOADS: [&str; 4] = ["scan", "join", "served", "requery"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Environment variables that change the program under measurement:
/// `MIX_*_FORCE` flips defaults (tracing, metrics, caches, rewriting) and
/// `MIX_THREADS` sets worker counts.
fn altering_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k == "MIX_THREADS" || (k.starts_with("MIX_") && k.ends_with("_FORCE")))
        .collect()
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Set the workload up `SETUP_REPS` times; keep the last, report the
/// median time, each scaled to the nominal host speed by the host
/// reference timed just before and just after it. Also returns the
/// unscaled median.
fn setup<W>(
    seed: u64,
    make: impl Fn(u64) -> Result<W, String>,
) -> Result<(W, f64, f64), String> {
    let mut host = HostReference::new();
    let (mut scaled, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let before = host.median_ns(SETUP_REFERENCE_RUNS);
        let t = Instant::now();
        last = Some(make(seed)?);
        let s = t.elapsed().as_secs_f64();
        let reference = (before + host.median_ns(SETUP_REFERENCE_RUNS)) / 2.0;
        scaled.push(s * NOMINAL_REFERENCE_NS / reference);
        wall.push(s);
    }
    Ok((last.expect("at least one set-up"), median(&scaled), median(&wall)))
}

/// Each window's factor from its host speed to the nominal one: the
/// nominal reference time over the median reference time measured in
/// the window. A window with client samples but no reference (a window
/// shorter than one session) takes the phase's median reference.
fn host_scales(p: &Phase) -> Vec<f64> {
    let all: Vec<u64> = p
        .clock
        .windows()
        .iter()
        .flat_map(|w| w.reference_ns.iter().copied())
        .collect();
    let fallback = percentile(&all, 0.5);
    p.clock
        .windows()
        .iter()
        .map(|w| {
            let r = match percentile(&w.reference_ns, 0.5) {
                0 => fallback,
                r => r,
            };
            if r == 0 {
                1.0
            } else {
                NOMINAL_REFERENCE_NS / r as f64
            }
        })
        .collect()
}

/// The median over the phase's windows of a per-window value, given the
/// window and its scale (windows without a value are skipped).
fn window_median(p: &Phase, scales: &[f64], f: impl Fn(&Window, f64) -> Option<f64>) -> f64 {
    let values: Vec<f64> = p
        .clock
        .windows()
        .iter()
        .zip(scales)
        .filter_map(|(w, &k)| f(w, k))
        .collect();
    median(&values)
}

/// The client-boundary timings: `sessions_per_s`, the first-answer and
/// the command-latency percentiles, every time first multiplied by its
/// window's scale (the host scales, or all 1 for wall-clock figures).
/// Throughput and command latencies are medians over the windows;
/// first-answer times, one per session, are pooled over the phase so the
/// p90 has enough samples beyond it.
fn client_timings(p: &Phase, scales: &[f64]) -> [Metric; 5] {
    let rate = |w: &Window, k: f64| {
        (w.busy_ns > 0).then(|| w.sessions as f64 * 1e9 / (w.busy_ns as f64 * k))
    };
    let nav = |q: f64| {
        window_median(p, scales, |w, k| {
            (!w.nav_ns.is_empty()).then(|| us(percentile(&w.nav_ns, q)) * k)
        })
    };
    let first: Vec<u64> = p
        .clock
        .windows()
        .iter()
        .zip(scales)
        .flat_map(|(w, &k)| w.first_answer_ns.iter().map(move |&ns| (ns as f64 * k) as u64))
        .collect();
    [
        metric("sessions_per_s", window_median(p, scales, rate), "1/s"),
        metric("first_answer_p50_us", us(percentile(&first, 0.50)), "us"),
        metric("first_answer_p90_us", us(percentile(&first, 0.90)), "us"),
        metric("nav_p50_us", nav(0.50), "us"),
        metric("nav_p99_us", nav(0.99), "us"),
    ]
}

/// End-to-end metrics, the timings scaled to the nominal host speed.
fn end_to_end(p: &Phase, setup_s: f64) -> Vec<Metric> {
    let d = &p.delta;
    let mut metrics = vec![metric("setup_s", setup_s, "s")];
    metrics.extend(client_timings(p, &host_scales(p)));
    metrics.extend([
        metric(
            "wire_exchanges_per_session",
            p.per_session((d.exchanges + d.source_calls) as f64),
            "count",
        ),
        metric(
            "wire_bytes_per_session",
            p.per_session((d.wire_bytes + d.source_bytes) as f64),
            "B",
        ),
        metric(
            "ok_op_ratio",
            1.0 - ratio(p.tally.failed() as f64, p.tally.ops as f64),
            "ratio",
        ),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]);
    metrics
}

fn per_layer(p: &Phase, untraced: &Phase) -> Vec<Metric> {
    let (t, o, d) = (&p.totals, &p.others, &p.delta);
    let self_us = |l: Layer| us(t.self_ns(l) + o.self_ns(l));
    let allocs = |l: Layer| (t.self_allocs(l) + o.self_allocs(l)) as f64;
    let p50 = |l: Layer| us(percentile(t.durations(l), 0.5));
    let s = |v: f64| p.per_session(v);
    let wall_ns = p.wall.as_nanos() as f64;
    vec![
        metric(
            "wrappers.exchanges_per_session",
            s(d.exchanges as f64),
            "count",
        ),
        metric(
            "wrappers.holes_per_exchange",
            ratio(d.holes as f64, d.exchanges as f64),
            "count",
        ),
        metric(
            "wrappers.self_us_per_session",
            s(self_us(Layer::Wrapper)),
            "us",
        ),
        metric(
            "wrappers.allocs_per_session",
            s(allocs(Layer::Wrapper)),
            "count",
        ),
        metric(
            "buffer.self_us_per_session",
            s(self_us(Layer::Buffer)),
            "us",
        ),
        metric(
            "buffer.calls_per_session",
            s(d.buffer_calls as f64),
            "count",
        ),
        metric(
            "buffer.allocs_per_answer_node",
            ratio(allocs(Layer::Buffer), p.tally.answer_nodes as f64),
            "count",
        ),
        metric(
            "buffer.cache_hit_ratio",
            ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
            "ratio",
        ),
        metric(
            "buffer.cache_evictions_per_session",
            s(d.cache_evictions as f64),
            "count",
        ),
        metric(
            "buffer.cache_invalidations",
            d.cache_invalidations as f64,
            "count",
        ),
        metric("buffer.retries_per_session", s(d.retries as f64), "count"),
        metric("core.open_us_p50", p50(Layer::CoreOpen), "us"),
        metric(
            "core.self_us_per_session",
            s(self_us(Layer::Core) + self_us(Layer::CoreOpen)),
            "us",
        ),
        metric(
            "core.source_navs_per_command",
            ratio(d.source_navs as f64, p.clock.commands as f64),
            "count",
        ),
        metric(
            "core.allocs_per_session",
            s(allocs(Layer::Core) + allocs(Layer::CoreOpen)),
            "count",
        ),
        metric(
            "source.self_us_per_session",
            s(self_us(Layer::Source)),
            "us",
        ),
        metric(
            "nav.client_self_us_per_session",
            s(self_us(Layer::Client)),
            "us",
        ),
        metric(
            "xml.serialize_us_per_session",
            s(self_us(Layer::Serialize)),
            "us",
        ),
        metric("xmas.parse_us_p50", p50(Layer::Parse), "us"),
        metric("algebra.translate_us_p50", p50(Layer::Translate), "us"),
        metric(
            "algebra.covered_ratio",
            ratio(d.covered as f64, d.draws as f64),
            "ratio",
        ),
        metric("algebra.views_resident", d.views_resident as f64, "count"),
        metric("serve.open_rtt_us_p50", p50(Layer::ServeOpen), "us"),
        metric("serve.nav_rtt_us_p50", p50(Layer::ServeNav), "us"),
        metric("serve.close_rtt_us_p50", p50(Layer::ServeClose), "us"),
        metric(
            "serve.server_busy_us_per_session",
            s(us(d.server_busy_ns)),
            "us",
        ),
        metric(
            "serve.server_wait_ratio",
            // No server works on a request for the rest of the phase.
            1.0 - ratio(d.server_busy_ns as f64, wall_ns),
            "ratio",
        ),
        metric(
            "serve.frame_bytes_per_session",
            s(d.frame_bytes as f64),
            "B",
        ),
        metric(
            "harness.check_us_per_session",
            s(self_us(Layer::Check)),
            "us",
        ),
        metric(
            "ledger.unattributed_ratio",
            1.0 - ratio(t.attributed_ns() as f64, wall_ns),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            p.session_ns() / untraced.session_ns() - 1.0,
            "ratio",
        ),
    ]
}

/// Write the traced phase's spans as tab-separated lines.
fn write_spans(workload: &str, seed: u64, p: &Phase) -> std::io::Result<String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&base).join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "thread\tid\tparent\tsession\tlayer\tstart_ns\tend_ns")?;
    for (thread, totals) in [("client", &p.totals), ("server", &p.others)] {
        for s in &totals.recorded {
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.session,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn ledger_lines(p: &Phase) {
    let wall = p.wall.as_nanos() as f64;
    for l in Layer::ALL {
        let (ns, allocs) = (p.totals.self_ns(l), p.totals.self_allocs(l));
        let (ons, oallocs) = (p.others.self_ns(l), p.others.self_allocs(l));
        if ns + ons + allocs + oallocs == 0 {
            continue;
        }
        println!(
            "ledger {:<18} self {:>12.1} us ({:>5.1}% of wall)  allocs {:>10}  server-thread {:>10.1} us  allocs {:>8}",
            l.name(),
            us(ns),
            100.0 * ns as f64 / wall,
            allocs,
            us(ons),
            oallocs
        );
    }
    println!(
        "ledger spans kept {} (dropped {}), sum of self time {:.1}% of the {:.3} s traced wall",
        p.totals.recorded.len() + p.others.recorded.len(),
        p.totals.dropped + p.others.dropped,
        100.0 * p.totals.attributed_ns() as f64 / wall,
        p.wall.as_secs_f64()
    );
    for l in Layer::ALL {
        let d = &p.totals.durations[l as usize];
        if d.seen > 0 {
            println!(
                "ledger {:<18} durations sampled {} of {}",
                l.name(),
                d.kept.len(),
                d.seen
            );
        }
    }
}

fn run<W: Workload>(
    args: &Args,
    make: impl Fn(u64) -> Result<W, String>,
) -> Result<Outcome, String> {
    let (mut w, setup_s, setup_wall_s) = setup(args.seed, make)?;
    let (metrics, checked) = if args.trace {
        // Traced first, so the exact fingerprint below is a traced one.
        let traced = run_phase(&mut w, 0, args.seconds / 2.0, true);
        let untraced = run_phase(&mut w, traced.sessions, args.seconds / 2.0, false);
        ledger_lines(&traced);
        match write_spans(&args.workload, args.seed, &traced) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
        let metrics = per_layer(&traced, &untraced);
        (metrics, vec![traced, untraced])
    } else {
        let p = run_phase(&mut w, 0, args.seconds, false);
        (end_to_end(&p, setup_s), vec![p])
    };
    let first = &checked[0];
    if let Some(x) = first.exact {
        let c = x.counters;
        println!(
            "exact first {} sessions: wire_exchanges={} wire_bytes={} source_calls={} source_bytes={} \
             source_navs={} buffer_calls={} cache_hits={} cache_misses={}",
            x.sessions,
            c.exchanges,
            c.wire_bytes,
            c.source_calls,
            c.source_bytes,
            c.source_navs,
            c.buffer_calls,
            c.cache_hits,
            c.cache_misses,
        );
        // Not part of the exact line: the program's HashMaps take a
        // per-process random hash seed, which decides whether a table
        // with deleted entries rehashes in place or grows, so this count
        // can differ by a few between runs.
        println!(
            "allocations first {} sessions: {}",
            x.sessions,
            x.allocations
                .map_or("multi-threaded".to_string(), |a| a.to_string())
        );
    }
    let attempted: u64 = checked.iter().map(|p| p.tally.ops).sum();
    let failed: u64 = checked.iter().map(|p| p.tally.failed()).sum();
    let sessions: u64 = checked.iter().map(|p| p.sessions).sum();
    for p in &checked {
        let t = p.tally;
        println!(
            "checked {} sessions, {} commands over {:.3} s: {} mismatches, {} errors, {} degraded; \
             {} first answers, {} timed commands in {} windows",
            p.sessions,
            t.ops,
            p.wall.as_secs_f64(),
            t.mismatches,
            t.errors,
            t.degraded,
            p.clock.windows().iter().map(|w| w.first_answer_ns.len()).sum::<usize>(),
            p.clock.windows().iter().map(|w| w.nav_ns.len()).sum::<usize>(),
            p.clock.windows().len()
        );
    }
    for (k, p) in checked.iter().enumerate() {
        let rates: Vec<String> = p
            .clock
            .windows()
            .iter()
            .map(|w| format!("{:.1}", w.sessions as f64 * 1e9 / w.busy_ns.max(1) as f64))
            .collect();
        println!("phase {k} sessions/s by window: {}", rates.join(" "));
        let nav: Vec<u64> = p
            .clock
            .windows()
            .iter()
            .flat_map(|w| w.nav_ns.iter().copied())
            .collect();
        let qs: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
            .iter()
            .map(|&q| format!("p{}={:.3}", q * 100.0, us(percentile(&nav, q))))
            .collect();
        println!("phase {k} pooled nav latency (us): {}", qs.join(" "));
        let first: Vec<u64> = p
            .clock
            .windows()
            .iter()
            .flat_map(|w| w.first_answer_ns.iter().copied())
            .collect();
        let qs: Vec<String> = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| format!("p{}={:.1}", q * 100.0, us(percentile(&first, q))))
            .collect();
        println!("phase {k} first answer (us): {}", qs.join(" "));
        let refs: Vec<String> = p
            .clock
            .windows()
            .iter()
            .map(|w| format!("{:.1}", us(percentile(&w.reference_ns, 0.5))))
            .collect();
        println!("phase {k} host reference p50 by window (us): {}", refs.join(" "));
    }
    if !args.trace {
        let wall: Vec<String> = client_timings(&checked[0], &[1.0; WINDOWS as usize])
            .iter()
            .map(|m| format!("{} = {} {}", m.name, m.value, m.unit))
            .collect();
        println!("wall-clock, unscaled: setup_s = {setup_wall_s} s; {}", wall.join("; "));
    }
    println!(
        "failed_op_ratio = {} ratio ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    );
    println!("setup_s (median of {SETUP_REPS}, scaled) = {setup_s} s; sessions = {sessions}");
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let altering = altering_env();
    if !altering.is_empty() {
        eprintln!("perfbench: refusing to run with {altering:?} set; these change the program under measurement");
        std::process::exit(2);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "scan" => run(&args, scan::Scan::setup),
        "join" => run(&args, join::Join::setup),
        "served" => run(&args, served::Served::setup),
        _ => run(&args, requery::Requery::setup),
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.json());
            std::process::exit(if o.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    }
}
