//! `join`: the paper's Fig. 3 homes⨝schools view over in-memory sources
//! (no buffer, no wrapper). Most sessions browse the first k answer
//! children; a seeded minority walk the whole answer. The work is in the
//! `mix-core` operators (join inner cache, groupBy, getDescendants), so a
//! buffer or wrapper change should show no effect here.

use crate::harness::{check_forest, draw, Counters, Tally, Workload};
use crate::ledger::{span, Layer};
use crate::probe::{Client, Clock, NavCounters, ProbeNav};
use mix_algebra::{translate, Plan};
use mix_core::{eager, Engine, EngineConfig, SourceRegistry};
use mix_nav::explore::first_k_children;
use mix_nav::{materialize, DocNavigator};
use mix_wrappers::gen;
use mix_xml::Tree;
use std::slice::from_ref;
use std::sync::Arc;
use std::time::Instant;

const HOMES: usize = 100;
const SCHOOLS: usize = 50;
const ZIPS: usize = 10;
/// Source pairs generated per seed; sessions take them in turn, so the
/// time to the first answer is a spread over many data sets rather than
/// the luck of one.
const DATASETS: usize = 128;
/// In every block of `FULL_EVERY` sessions, exactly one (at a seeded
/// position) walks the whole answer.
const FULL_EVERY: u64 = 8;
const MAX_K: u64 = 5;
const FULL_STREAM: u64 = 0x4a;
const K_STREAM: u64 = 0x4b;

/// The paper's Figure 3 query (homes with local schools).
const FIG3_QUERY: &str = "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
     WHERE homesSrc homes.home $H AND $H zip._ $V1 \
       AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2";

pub struct Join {
    seed: u64,
    plan: Plan,
    /// One registry and eager answer per data set.
    sets: Vec<(SourceRegistry, Tree)>,
    source: Arc<NavCounters>,
    source_navs: u64,
}

impl Join {
    pub fn setup(seed: u64) -> Result<Join, String> {
        let plan = translate(&mix_xmas::parse_query(FIG3_QUERY).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let source = Arc::new(NavCounters::default());
        let mut sets = Vec::with_capacity(DATASETS);
        for d in 0..DATASETS as u64 {
            let base = seed.wrapping_mul(2 * DATASETS as u64).wrapping_add(2 * d);
            let homes = gen::homes_doc(base, HOMES, ZIPS);
            let schools = gen::schools_doc(base.wrapping_add(1), SCHOOLS, ZIPS);
            let mut plain = SourceRegistry::new();
            plain
                .add_tree("homesSrc", &homes)
                .add_tree("schoolsSrc", &schools);
            let oracle = eager::eval(&plan, &plain).map_err(|e| e.to_string())?;
            // `add_tree` with a pass-through around the same `DocNavigator`.
            let mut reg = SourceRegistry::new();
            for (name, tree) in [("homesSrc", &homes), ("schoolsSrc", &schools)] {
                let nav = DocNavigator::from_tree(tree);
                reg.add_navigator(name, ProbeNav::new(nav, Layer::Source, source.clone()));
            }
            sets.push((reg, oracle));
        }
        Ok(Join {
            seed,
            plan,
            sets,
            source,
            source_navs: 0,
        })
    }
}

impl Workload for Join {
    const EXACT_SESSIONS: u64 = 100;
    const CLOCK_STRIDE: u64 = 2;
    const SINGLE_THREAD: bool = true;

    fn session(&mut self, i: u64, clock: &mut Clock, tally: &mut Tally) {
        let full = i % FULL_EVERY == draw(self.seed, FULL_STREAM, i / FULL_EVERY) % FULL_EVERY;
        let k = 1 + draw(self.seed, K_STREAM, i) % MAX_K;
        let (reg, oracle) = &self.sets[i as usize % DATASETS];
        let opened = Instant::now();
        let engine = span(Layer::CoreOpen, || {
            Engine::with_config(self.plan.clone(), reg, EngineConfig::default())
        });
        let Ok(mut engine) = engine else {
            tally.errors += 1;
            return;
        };
        let commands = clock.commands;
        let mut client = Client::new(&mut engine, clock, opened);
        let got = if full {
            vec![materialize(&mut client)]
        } else {
            first_k_children(&mut client, k as usize)
        };
        let want = if full {
            from_ref(oracle)
        } else {
            let all = oracle.children();
            &all[..all.len().min(k as usize)]
        };
        tally.ops += clock.commands - commands;
        tally.mismatches += check_forest(&got, want);
        tally.answer_nodes += got.iter().map(|t| t.size() as u64).sum::<u64>();
        self.source_navs += engine.stats().total().total();
        span(Layer::Core, || drop(engine));
    }

    fn counters(&self) -> Counters {
        Counters {
            source_calls: self.source.calls.get(),
            source_bytes: self.source.label_bytes.get(),
            source_navs: self.source_navs,
            ..Counters::default()
        }
    }
}
