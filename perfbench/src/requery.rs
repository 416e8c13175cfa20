//! `requery`: the E21 overlapping templates over `homesSrc`, parsed and
//! translated per draw, with the semantic answer cache on and one shared
//! `ViewCatalog`. The `FragmentCache` budget is a quarter of one full
//! scan's wire bytes. Sources sit behind `FaultyWrapper` at a low seeded
//! transient rate; backoff is simulated, so it adds no sleep. Every
//! hundredth draw is a write: the source document is swapped for the
//! next generated version and `FragmentCache::invalidate` is called, so
//! views and fragments of the old version must never answer again. This
//! is the cache layer used with writes, evictions, retries and view
//! retirement beside reads, and the only workload that runs `mix-xmas`
//! and the `mix-algebra` view rewrite per session.

use crate::harness::{check_forest, draw, pick, zipf_cdf, Counters, Tally, Workload};
use crate::ledger::{span, Layer};
use crate::probe::{Client, Clock, NavCounters, ProbeNav, ProbeWrapper, WireCounters};
use mix_algebra::{translate, ViewCatalog};
use mix_buffer::{
    BufferNavigator, FaultConfig, FaultyWrapper, FillPolicy, FragmentCache, RetryPolicy,
    TreeWrapper,
};
use mix_core::{eager, Engine, EngineConfig, SemanticOutcome, SourceRegistry};
use mix_nav::materialize;
use mix_wrappers::gen;
use mix_xml::{Document, Tree};
use std::slice::from_ref;
use std::sync::Arc;
use std::time::Instant;

const SRC: &str = "homesSrc";
const HOMES: usize = 150;
const ZIPS: usize = 8;
/// Source versions generated in set-up; writes cycle through them.
const VERSIONS: u64 = 8;
/// One session in `WRITE_EVERY` is preceded by a write.
const WRITE_EVERY: u64 = 100;
const FAULT_RATE: f64 = 0.01;
const TEMPLATE_STREAM: u64 = 0x70;
const FAULT_STREAM: u64 = 0x72;

const TEMPLATES: [&str; 6] = [
    "CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H",
    "CONSTRUCT <zs> $Z {$Z} </zs> {} WHERE homesSrc homes.home.zip $Z",
    "CONSTRUCT <ps> $P {$P} </ps> {} WHERE homesSrc homes.home.price $P",
    "CONSTRUCT <as> $A {$A} </as> {} WHERE homesSrc homes.home.addr $A",
    "CONSTRUCT <vs> $V {$V} </vs> {} WHERE homesSrc homes.home.zip._ $V",
    "CONSTRUCT <cs> $A {$A} </cs> {} WHERE homesSrc homes.home $H AND $H addr $A",
];

pub struct Requery {
    seed: u64,
    docs: Vec<Arc<Document>>,
    /// `oracle[version][template]`.
    oracle: Vec<Vec<Tree>>,
    version: usize,
    cdf: Vec<f64>,
    cache: FragmentCache,
    catalog: ViewCatalog,
    wire: Arc<WireCounters>,
    buffer: Arc<NavCounters>,
    source_navs: u64,
    retries: u64,
    draws: u64,
    covered: u64,
}

impl Requery {
    pub fn setup(seed: u64) -> Result<Requery, String> {
        let mut docs = Vec::new();
        let mut oracle = Vec::new();
        for v in 0..VERSIONS {
            let tree = gen::homes_doc(seed.wrapping_mul(VERSIONS).wrapping_add(v), HOMES, ZIPS);
            let mut reg = SourceRegistry::new();
            reg.add_tree(SRC, &tree);
            let mut answers = Vec::new();
            for query in TEMPLATES {
                let q = mix_xmas::parse_query(query).map_err(|e| e.to_string())?;
                let plan = translate(&q).map_err(|e| e.to_string())?;
                answers.push(eager::eval(&plan, &reg).map_err(|e| e.to_string())?);
            }
            oracle.push(answers);
            docs.push(Arc::new(Document::from_tree(&tree)));
        }
        // Size the cache from one full uncached scan of the first version.
        let probe = Arc::new(WireCounters::default());
        let mut inner = TreeWrapper::new(FillPolicy::Chunked { n: 4 });
        inner.add(SRC, docs[0].clone());
        let mut nav = BufferNavigator::new(ProbeWrapper::new(inner, probe.clone()), SRC);
        materialize(&mut nav);
        let budget = (probe.bytes.get() / 4).max(1);
        Ok(Requery {
            seed,
            docs,
            oracle,
            version: 0,
            cdf: zipf_cdf(TEMPLATES.len(), 1.1),
            cache: FragmentCache::with_budget(budget),
            catalog: ViewCatalog::new(),
            wire: Arc::default(),
            buffer: Arc::default(),
            source_navs: 0,
            retries: 0,
            draws: 0,
            covered: 0,
        })
    }
}

impl Workload for Requery {
    const EXACT_SESSIONS: u64 = 200;
    const CLOCK_STRIDE: u64 = 8;
    const SINGLE_THREAD: bool = true;

    fn session(&mut self, i: u64, clock: &mut Clock, tally: &mut Tally) {
        if i % WRITE_EVERY == WRITE_EVERY - 1 {
            self.version = (self.version + 1) % self.docs.len();
            self.cache.invalidate(SRC);
        }
        let t = pick(&self.cdf, draw(self.seed, TEMPLATE_STREAM, i));
        let opened = Instant::now();
        let plan = span(Layer::Parse, || mix_xmas::parse_query(TEMPLATES[t]))
            .map_err(|e| e.to_string())
            .and_then(|q| span(Layer::Translate, || translate(&q)).map_err(|e| e.to_string()));
        let Ok(plan) = plan else {
            tally.errors += 1;
            return;
        };
        let nav = span(Layer::Buffer, || {
            let mut inner = TreeWrapper::new(FillPolicy::Chunked { n: 4 });
            inner.add(SRC, self.docs[self.version].clone());
            let faults = FaultConfig::transient(draw(self.seed, FAULT_STREAM, i), FAULT_RATE);
            let wrapper = ProbeWrapper::new(FaultyWrapper::new(inner, faults), self.wire.clone());
            BufferNavigator::with_retry(wrapper, SRC, RetryPolicy::default())
                .with_fragment_cache(self.cache.clone())
        });
        let (health, stats) = (nav.health(), nav.stats());
        let mut reg = SourceRegistry::new();
        reg.add_navigator_with_stats(
            SRC,
            ProbeNav::new(nav, Layer::Buffer, self.buffer.clone()),
            health.clone(),
            stats,
        );
        reg.set_source_cache(SRC, self.cache.clone());
        reg.set_view_catalog(self.catalog.clone());
        let config = EngineConfig {
            semantic_cache: true,
            ..EngineConfig::default()
        };
        let Ok(mut engine) = span(Layer::CoreOpen, || Engine::with_config(plan, &reg, config))
        else {
            tally.errors += 1;
            return;
        };
        let outcome = engine.semantic_outcome();
        self.draws += 1;
        self.covered += u64::from(outcome == Some(SemanticOutcome::Covered));
        let commands = clock.commands;
        let answer = materialize(&mut Client::new(&mut engine, clock, opened));
        if matches!(
            outcome,
            Some(SemanticOutcome::Miss | SemanticOutcome::Partial)
        ) {
            span(Layer::Core, || engine.record_view(&answer));
        }
        tally.ops += clock.commands - commands;
        tally.mismatches +=
            check_forest(from_ref(&answer), from_ref(&self.oracle[self.version][t]));
        let h = health.snapshot();
        tally.degraded += h.degraded_ops;
        tally.answer_nodes += answer.size() as u64;
        self.retries += h.retries;
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
            retries: self.retries,
            draws: self.draws,
            covered: self.covered,
            views_resident: self.catalog.len() as u64,
            ..Counters::default()
        }
    }
}
