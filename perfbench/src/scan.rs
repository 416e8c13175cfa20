//! `scan`: a filtered view over a relational `homes` table, read through
//! `RelationalWrapper` (chunk 10, batched ×16), walked to the end and
//! serialized. Every session opens a fresh buffer over one shared wrapper
//! connection and one `FragmentCache` whose budget is a quarter of the
//! table's wire bytes, so the working set never fits: this is the
//! per-node hot path of wrapper, buffer splice, hole ids and client walk.

use crate::harness::{check_forest, Counters, Tally, Workload};
use crate::ledger::{span, Layer};
use crate::probe::{Client, Clock, NavCounters, ProbeNav, ProbeWrapper, WireCounters};
use mix_algebra::{translate, Plan};
use mix_buffer::{BufferNavigator, FragmentCache, SharedWrapper};
use mix_core::{eager, Engine, EngineConfig, SourceRegistry};
use mix_nav::materialize;
use mix_wrappers::{gen, RelationalWrapper};
use mix_xml::Tree;
use std::slice::from_ref;
use std::sync::Arc;
use std::time::Instant;

const URI: &str = "realestate";
const ROWS: usize = 5_000;
const ZIPS: usize = 100;
const CHUNK: usize = 10;
const BATCH: usize = 16;
const QUERY: &str = "CONSTRUCT <cheap_homes> $R {$R} </cheap_homes> {} \
     WHERE realestate realestate.homes.row $R AND $R price._ $P AND $P < 650000";

pub struct Scan {
    plan: Plan,
    wrapper: SharedWrapper<RelationalWrapper>,
    cache: FragmentCache,
    oracle: Tree,
    oracle_text: String,
    wire: Arc<WireCounters>,
    buffer: Arc<NavCounters>,
    source_navs: u64,
}

impl Scan {
    pub fn setup(seed: u64) -> Result<Scan, String> {
        let db = gen::homes_database(seed, ROWS, ZIPS);
        let plan = translate(&mix_xmas::parse_query(QUERY).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        // The oracle: eager evaluation over an unbatched, uncached buffer;
        // its wire bytes size the shared cache.
        let probe = Arc::new(WireCounters::default());
        let mut reg = SourceRegistry::new();
        let plain = RelationalWrapper::new(db.clone(), CHUNK);
        reg.add_navigator(
            URI,
            BufferNavigator::new(ProbeWrapper::new(plain, probe.clone()), URI),
        );
        let oracle = eager::eval(&plan, &reg).map_err(|e| e.to_string())?;
        let budget = (probe.bytes.get() / 4).max(1);
        let wrapper =
            SharedWrapper::new(RelationalWrapper::new(db, CHUNK).with_batch_budget(BATCH));
        Ok(Scan {
            plan,
            wrapper,
            cache: FragmentCache::with_budget(budget),
            oracle_text: oracle.to_string(),
            oracle,
            wire: Arc::default(),
            buffer: Arc::default(),
            source_navs: 0,
        })
    }
}

impl Workload for Scan {
    const EXACT_SESSIONS: u64 = 8;
    const CLOCK_STRIDE: u64 = 16;
    const SINGLE_THREAD: bool = true;

    fn session(&mut self, _i: u64, clock: &mut Clock, tally: &mut Tally) {
        let opened = Instant::now();
        let nav = span(Layer::Buffer, || {
            BufferNavigator::new(
                ProbeWrapper::new(self.wrapper.clone(), self.wire.clone()),
                URI,
            )
            .batched(BATCH)
            .with_fragment_cache(self.cache.clone())
        });
        let (health, stats) = (nav.health(), nav.stats());
        let mut reg = SourceRegistry::new();
        let probed = ProbeNav::new(nav, Layer::Buffer, self.buffer.clone());
        reg.add_navigator_with_stats(URI, probed, health.clone(), stats);
        reg.set_source_cache(URI, self.cache.clone());
        let engine = span(Layer::CoreOpen, || {
            Engine::with_config(self.plan.clone(), &reg, EngineConfig::default())
        });
        let Ok(mut engine) = engine else {
            tally.errors += 1;
            return;
        };
        let commands = clock.commands;
        let tree = materialize(&mut Client::new(&mut engine, clock, opened));
        let text = span(Layer::Serialize, || tree.to_string());
        tally.ops += clock.commands - commands;
        tally.mismatches += check_forest(from_ref(&tree), from_ref(&self.oracle));
        tally.mismatches += span(Layer::Check, || u64::from(text != self.oracle_text));
        tally.degraded += health.snapshot().degraded_ops;
        tally.answer_nodes += tree.size() as u64;
        self.source_navs += engine.stats().total().total();
        // Closing the view frees the engine, then the buffer it read.
        span(Layer::Core, || drop(engine));
        span(Layer::Buffer, || drop(reg));
    }

    fn counters(&self) -> Counters {
        let c = self.cache.stats();
        Counters {
            exchanges: self.wire.exchanges.get(),
            holes: self.wire.holes.get(),
            wire_bytes: self.wire.bytes.get(),
            buffer_calls: self.buffer.calls.get(),
            source_navs: self.source_navs,
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_evictions: c.evictions,
            cache_invalidations: c.invalidations,
            ..Counters::default()
        }
    }
}
