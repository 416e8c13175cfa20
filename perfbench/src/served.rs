//! `served`: the E19 set-up. A `VxdServer` over `mix_serve::pipe` serves
//! six zipf-drawn templates from one shared `FragmentCache`, warmed during
//! set-up, with `MetricsRegistry::enabled()`. One client thread drives one
//! connection in a closed loop — a DOM-VXD client cannot send its next
//! command before the previous reply names the node it starts from. Each
//! session opens, reads its first answer, wanders d/r/f and closes: the
//! work is session open/close, dispatch, codec and transport on warm
//! cache hits, with almost no wrapper work.
//!
//! How long the join template takes to its first answer depends on the
//! homes/schools data, and that one command decides `nav_p99_us`: over one
//! data set the p99 moved by a third from seed to seed. So a run serves
//! `DATA_SETS` seeded data sets, each from a server of its own (the same
//! three sources and six templates, one shared cache) with a connection
//! of its own. The client takes them in turn, `BLOCK` sessions at a time,
//! so a switch between server threads is rare, as it is with one server.
//! One request is in flight at any time.

use crate::harness::{draw, pick, zipf_cdf, Counters, Tally, Workload};
use crate::ledger::{self, span, Layer, Totals};
use crate::probe::{Clock, ProbeStream, ProbeWrapper, StreamCounters, WireCounters};
use mix_algebra::translate;
use mix_buffer::{FillPolicy, FragmentCache, MetricsRegistry, TreeWrapper};
use mix_core::{eager, SourceRegistry};
use mix_serve::{pipe, ClientError, FetchOutcome, PipeEnd, SessionSources, VxdClient, VxdServer};
use mix_wrappers::gen;
use mix_xml::{Document, Tree};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Navigation steps per session after the first answer.
const WANDER: u64 = 12;
const TEMPLATE_STREAM: u64 = 0x5e;
const STEP_STREAM: u64 = 0x5f;
const DATA_STREAM: u64 = 0x60;
/// Seeded homes/schools data sets per run, one server each.
const DATA_SETS: usize = 16;
/// Sessions on one data set before the client moves to the next.
const BLOCK: u64 = 100;
/// Every `REFRESH_EVERY`-th session the items feed (`src`) is refreshed
/// with `FragmentCache::invalidate`, the way a live source's cached
/// fragments expire: sessions over it then refetch what they touch, so
/// the wire carries a small, steady load instead of none at all.
const REFRESH_EVERY: u64 = 50;
const REFRESHED: &str = "src";

const TEMPLATES: [(&str, &str); 6] = [
    (
        "homes",
        "CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H",
    ),
    (
        "filter",
        "CONSTRUCT <picked> $X {$X} </picked> {} WHERE src items.wanted $X",
    ),
    (
        "schools",
        "CONSTRUCT <sc> $S {$S} </sc> {} WHERE schoolsSrc schools.school $S",
    ),
    (
        "zips",
        "CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home.zip._ $Z",
    ),
    (
        "items",
        "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X",
    ),
    (
        "fig3",
        "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
         WHERE homesSrc homes.home $H AND $H zip._ $V1 \
           AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
    ),
];

type Conn = (VxdClient<PipeEnd>, JoinHandle<Totals>);

pub struct Served {
    seed: u64,
    /// One server per data set, all over one `FragmentCache`.
    servers: Vec<VxdServer>,
    cdf: Vec<f64>,
    /// Template answers, `TEMPLATES.len()` per data set.
    oracle: Vec<Tree>,
    wire: Arc<WireCounters>,
    stream: Arc<StreamCounters>,
    /// One connection per server while a phase runs.
    conns: Vec<Conn>,
}

/// The node at `path` (child indices from the root), if any.
fn node_at<'t>(root: &'t Tree, path: &[usize]) -> Option<&'t Tree> {
    path.iter().try_fold(root, |t, &i| t.children().get(i))
}

fn connect(server: &VxdServer, stream: &Arc<StreamCounters>) -> Conn {
    let (client_end, server_end) = pipe();
    let (srv, counters) = (server.clone(), stream.clone());
    let handle = std::thread::spawn(move || {
        srv.serve_connection(ProbeStream::new(server_end, counters));
        ledger::take()
    });
    (VxdClient::new(client_end), handle)
}

fn disconnect((client, handle): Conn) -> Totals {
    drop(client);
    handle
        .join()
        .expect("the server connection thread does not panic")
}

/// Walk a whole template answer through the server (cache warm-up).
fn walk(client: &mut VxdClient<PipeEnd>, template: &str) -> Result<(), ClientError> {
    let s = client.open(template)?;
    let mut stack = vec![s.root];
    while let Some(n) = stack.pop() {
        client.fetch(s.session, n)?;
        if let Some(r) = client.right(s.session, n)? {
            stack.push(r);
        }
        if let Some(d) = client.down(s.session, n)? {
            stack.push(d);
        }
    }
    client.close(s.session)
}

impl Served {
    pub fn setup(seed: u64) -> Result<Served, String> {
        let items = gen::filter_doc(120, 5);
        let (cache, metrics) = (FragmentCache::new(), MetricsRegistry::enabled());
        let wire = Arc::new(WireCounters::default());
        let stream = Arc::new(StreamCounters::default());
        let (mut servers, mut oracle) = (Vec::new(), Vec::new());
        for k in 0..DATA_SETS {
            let s = draw(seed, DATA_STREAM, k as u64);
            let homes = gen::homes_doc(s, 60, 8);
            let schools = gen::schools_doc(s.wrapping_add(1), 40, 8);
            // Source names differ by data set, so the shared cache keeps
            // each set's fragments apart; the items feed is one source.
            let (homes_src, schools_src) = (format!("homesSrc{k}"), format!("schoolsSrc{k}"));
            let sources = [
                (homes_src.as_str(), &homes),
                (schools_src.as_str(), &schools),
                (REFRESHED, &items),
            ];
            let mut plain = SourceRegistry::new();
            let mut pool = SessionSources::new(cache.clone(), metrics.clone());
            for (name, tree) in sources {
                plain.add_tree(name, tree);
                let mut w = TreeWrapper::new(FillPolicy::NodeAtATime);
                w.add(name, Arc::new(Document::from_tree(tree)));
                pool.add_wrapper(name, ProbeWrapper::new(w, wire.clone()));
            }
            let mut server = VxdServer::new(pool);
            for (name, query) in TEMPLATES {
                let query = query
                    .replace("homesSrc", &homes_src)
                    .replace("schoolsSrc", &schools_src);
                let q = mix_xmas::parse_query(&query).map_err(|e| e.to_string())?;
                let plan = translate(&q).map_err(|e| e.to_string())?;
                oracle.push(eager::eval(&plan, &plain).map_err(|e| e.to_string())?);
                server.add_template(name, &query)?;
            }
            // Warm the cache with every template's whole answer.
            let mut conn = connect(&server, &stream);
            for (name, _) in TEMPLATES {
                walk(&mut conn.0, name).map_err(|e| e.to_string())?;
            }
            disconnect(conn);
            servers.push(server);
        }
        Ok(Served {
            seed,
            servers,
            cdf: zipf_cdf(TEMPLATES.len(), 1.1),
            oracle,
            wire,
            stream,
            conns: Vec::new(),
        })
    }
}

/// One navigation verb, timed at the client.
fn verb<T>(
    client: &mut VxdClient<PipeEnd>,
    clock: &mut Clock,
    tally: &mut Tally,
    f: impl FnOnce(&mut VxdClient<PipeEnd>) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    tally.ops += 1;
    let timed = clock.count_command();
    let t0 = Instant::now();
    let out = span(Layer::ServeNav, || f(client));
    if timed && !ledger::on() {
        clock.nav(t0.elapsed().as_nanos() as u64);
    }
    out
}

/// A fetched label against the oracle's node at the same position.
fn fetch_check(tally: &mut Tally, got: Result<FetchOutcome, ClientError>, want: Option<&Tree>) {
    match got {
        Ok(f) => {
            tally.degraded += u64::from(f.is_degraded());
            let ok = want.is_some_and(|w| w.label().as_str() == f.label());
            tally.mismatches += span(Layer::Check, || u64::from(!ok));
        }
        Err(_) => tally.errors += 1,
    }
}

/// A d/r reply against the oracle: a node handle, or the end of a list.
fn step(r: Result<Option<u64>, ClientError>, want: bool, tally: &mut Tally) -> Option<u64> {
    match r {
        Ok(got) => {
            tally.mismatches += span(Layer::Check, || u64::from(got.is_some() != want));
            got
        }
        Err(_) => {
            tally.errors += 1;
            None
        }
    }
}

impl Workload for Served {
    const EXACT_SESSIONS: u64 = 200;
    const CLOCK_STRIDE: u64 = 1;
    const SINGLE_THREAD: bool = false;

    fn begin_phase(&mut self) {
        self.conns = self
            .servers
            .iter()
            .map(|s| connect(s, &self.stream))
            .collect();
    }

    fn end_phase(&mut self) -> Option<Totals> {
        self.conns.drain(..).map(disconnect).reduce(Totals::absorb)
    }

    fn session(&mut self, i: u64, clock: &mut Clock, tally: &mut Tally) {
        let k = (i / BLOCK) as usize % DATA_SETS;
        if i % REFRESH_EVERY == REFRESH_EVERY - 1 {
            self.servers[k].cache().invalidate(REFRESHED);
        }
        let Some((client, _)) = self.conns.get_mut(k) else {
            tally.errors += 1;
            return;
        };
        let t = pick(&self.cdf, draw(self.seed, TEMPLATE_STREAM, i));
        let oracle = &self.oracle[k * TEMPLATES.len() + t];
        let opened = Instant::now();
        tally.ops += 1;
        let Ok(open) = span(Layer::ServeOpen, || client.open(TEMPLATES[t].0)) else {
            tally.errors += 1;
            return;
        };
        let s = open.session;
        // `path` is the position of `cur` in the oracle's answer.
        let mut path: Vec<usize> = Vec::new();
        let mut cur = open.root;
        // The first answer: the root's first child and its label.
        let down = verb(client, clock, tally, |c| c.down(s, cur));
        if let Some(c) = step(down, !oracle.children().is_empty(), tally) {
            cur = c;
            path.push(0);
            let f = verb(client, clock, tally, |c| c.fetch_checked(s, cur));
            clock.first_answer(opened.elapsed().as_nanos() as u64);
            fetch_check(tally, f, node_at(oracle, &path));
        }
        for k in 0..WANDER {
            match draw(self.seed, STEP_STREAM, i << 8 | k) % 3 {
                0 => {
                    let want = node_at(oracle, &path).is_some_and(|n| !n.children().is_empty());
                    let got = verb(client, clock, tally, |c| c.down(s, cur));
                    match step(got, want, tally) {
                        Some(c) => {
                            cur = c;
                            path.push(0);
                        }
                        None => {
                            cur = open.root;
                            path.clear();
                        }
                    }
                }
                1 => {
                    let want = match path.split_last() {
                        Some((last, parent)) => {
                            node_at(oracle, parent).is_some_and(|p| p.children().len() > last + 1)
                        }
                        None => false,
                    };
                    let got = verb(client, clock, tally, |c| c.right(s, cur));
                    match step(got, want, tally) {
                        Some(c) => {
                            cur = c;
                            if let Some(last) = path.last_mut() {
                                *last += 1;
                            }
                        }
                        None => {
                            cur = open.root;
                            path.clear();
                        }
                    }
                }
                _ => {
                    let f = verb(client, clock, tally, |c| c.fetch_checked(s, cur));
                    fetch_check(tally, f, node_at(oracle, &path));
                }
            }
        }
        tally.ops += 1;
        if span(Layer::ServeClose, || client.close(s)).is_err() {
            tally.errors += 1;
        }
    }

    fn counters(&self) -> Counters {
        let c = self.servers[0].cache().stats();
        Counters {
            exchanges: self.wire.exchanges.get(),
            holes: self.wire.holes.get(),
            wire_bytes: self.wire.bytes.get(),
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_evictions: c.evictions,
            cache_invalidations: c.invalidations,
            frame_bytes: self.stream.bytes.get(),
            server_busy_ns: self.stream.busy_ns.get(),
            ..Counters::default()
        }
    }
}
