//! Source registry: wiring plan `source` leaves to navigable sources.

use crate::EngineError;
use mix_algebra::{parse_view_source, ViewCatalog};
use mix_buffer::{BufferStats, FragmentCache, MetricsRegistry, SourceHealth, TraceSink};
use mix_nav::{erase, DocNavigator, DynNavigator, Navigator, WordHandle};
use mix_xml::Tree;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A shared, interiorly-mutable source connection. Two `source` leaves
/// naming the same source (a self-join) share one connection — and one set
/// of navigation counters.
pub(crate) type SharedSource = Arc<Mutex<Box<dyn DynNavigator>>>;

/// One registered source: the navigator plus, when the source reports
/// them, the fault/retry health handle and the traffic counters of its
/// buffer.
#[derive(Clone)]
pub(crate) struct Registered {
    pub nav: SharedSource,
    pub health: Option<SourceHealth>,
    pub stats: Option<BufferStats>,
    pub trace: Option<TraceSink>,
    pub metrics: Option<MetricsRegistry>,
    pub cache: Option<FragmentCache>,
}

/// Maps source names (the `homesSrc` of a XMAS query) to navigators.
///
/// Anything that navigates can be a source: materialized documents
/// ([`DocNavigator`]), buffered LXP wrappers (`mix_buffer::BufferNavigator`
/// over relational / web / OODB wrappers), or another [`Engine`] — lazy
/// mediators compose, which is how Figure 1 stacks mediator `m_q1` on top
/// of lower-level mediators and wrappers.
///
/// [`Engine`]: crate::Engine
#[derive(Default)]
pub struct SourceRegistry {
    sources: HashMap<String, Registered>,
    /// The shared semantic answer cache, when one is attached
    /// ([`SourceRegistry::set_view_catalog`]). Engines built from this
    /// registry resolve `~view:N` plan leaves against it, and — with
    /// [`EngineConfig::semantic_cache`](crate::EngineConfig) — rewrite new
    /// plans against its recorded views before touching the wire.
    view_catalog: Option<ViewCatalog>,
}

impl SourceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SourceRegistry::default()
    }

    /// Register any navigator under a source name. Its handles erase to
    /// one word ([`WordHandle`]): document and buffer node-ids are indices
    /// already, and another engine's [`VNode`](crate::VNode)s are kept in
    /// the source's arena for as long as it is registered.
    pub fn add_navigator<N>(&mut self, name: impl Into<String>, nav: N) -> &mut Self
    where
        N: Navigator + Send + 'static,
        N::Handle: WordHandle,
    {
        self.sources.insert(
            name.into(),
            Registered {
                nav: Arc::new(Mutex::new(erase(nav))),
                health: None,
                stats: None,
                trace: None,
                metrics: None,
                cache: None,
            },
        );
        self
    }

    /// Register a navigator together with the [`SourceHealth`] handle
    /// describing its buffer–wrapper conversation, so the engine (and
    /// through it the client and profiler) can report the source's fault
    /// state. The usual call site pairs a `BufferNavigator` with its own
    /// `health()` handle.
    pub fn add_navigator_with_health<N>(
        &mut self,
        name: impl Into<String>,
        nav: N,
        health: SourceHealth,
    ) -> &mut Self
    where
        N: Navigator + Send + 'static,
        N::Handle: WordHandle,
    {
        self.sources.insert(
            name.into(),
            Registered {
                nav: Arc::new(Mutex::new(erase(nav))),
                health: Some(health),
                stats: None,
                trace: None,
                metrics: None,
                cache: None,
            },
        );
        self
    }

    /// Register a navigator together with its buffer's health handle
    /// *and* traffic counters ([`BufferStats`]), so the engine's
    /// [`traffic`] surface and the profiler's per-command table can
    /// attribute wire exchanges, batched holes, and wasted speculative
    /// bytes to this source. The usual call site pairs a
    /// `BufferNavigator` with its own `health()` and `stats()` handles.
    ///
    /// [`traffic`]: crate::Engine::traffic
    pub fn add_navigator_with_stats<N>(
        &mut self,
        name: impl Into<String>,
        nav: N,
        health: SourceHealth,
        stats: BufferStats,
    ) -> &mut Self
    where
        N: Navigator + Send + 'static,
        N::Handle: WordHandle,
    {
        self.sources.insert(
            name.into(),
            Registered {
                nav: Arc::new(Mutex::new(erase(nav))),
                health: Some(health),
                stats: Some(stats),
                trace: None,
                metrics: None,
                cache: None,
            },
        );
        self
    }

    /// Register a navigator with its buffer's health, traffic counters,
    /// *and* flight-recorder sink. The engine adopts the sink, so every
    /// client command begins a span in the same ring the buffer's
    /// fill/retry/degradation events land in — that link is what lets a
    /// trace answer "which client command caused this wire exchange?".
    /// The usual call site hands a `BufferNavigator` its own `health()`,
    /// `stats()` and `trace_sink()` handles.
    pub fn add_navigator_traced<N>(
        &mut self,
        name: impl Into<String>,
        nav: N,
        health: SourceHealth,
        stats: BufferStats,
        trace: TraceSink,
    ) -> &mut Self
    where
        N: Navigator + Send + 'static,
        N::Handle: WordHandle,
    {
        self.sources.insert(
            name.into(),
            Registered {
                nav: Arc::new(Mutex::new(erase(nav))),
                health: Some(health),
                stats: Some(stats),
                trace: Some(trace),
                metrics: None,
                cache: None,
            },
        );
        self
    }

    /// Register a fully *observed* navigator: health, traffic counters,
    /// flight-recorder sink, and the live [`MetricsRegistry`] its buffer
    /// records into. The engine adopts the registry (first observed source
    /// wins) and registers its own per-operator, per-command, and
    /// per-source series in it — so one
    /// [`snapshot`](MetricsRegistry::snapshot) or Prometheus scrape covers
    /// the whole mediator stack, and
    /// [`explain_analyze`](crate::Engine::explain_analyze) can line up
    /// operator navigation counts with buffer wire traffic. The usual
    /// call site builds a `BufferNavigator` with
    /// `with_metrics(registry.clone())` and hands over its `health()`,
    /// `stats()`, `trace_sink()`, and that same registry.
    #[allow(clippy::too_many_arguments)]
    pub fn add_navigator_observed<N>(
        &mut self,
        name: impl Into<String>,
        nav: N,
        health: SourceHealth,
        stats: BufferStats,
        trace: TraceSink,
        metrics: MetricsRegistry,
    ) -> &mut Self
    where
        N: Navigator + Send + 'static,
        N::Handle: WordHandle,
    {
        self.sources.insert(
            name.into(),
            Registered {
                nav: Arc::new(Mutex::new(erase(nav))),
                health: Some(health),
                stats: Some(stats),
                trace: Some(trace),
                metrics: Some(metrics),
                cache: None,
            },
        );
        self
    }

    /// Attach a shared cross-query [`FragmentCache`] handle to an
    /// already-registered source, so the engine built from this registry
    /// can surface cache effectiveness (the hits column of
    /// `explain_analyze()`, `VirtualDocument::fragment_cache`). This is
    /// the *observability* side: the cache does its work inside the
    /// source's `BufferNavigator` (see
    /// `BufferNavigator::with_fragment_cache`); hand the same handle to
    /// both. Unknown names are ignored.
    pub fn set_source_cache(&mut self, name: &str, cache: FragmentCache) -> &mut Self {
        if let Some(reg) = self.sources.get_mut(name) {
            reg.cache = Some(cache);
        }
        self
    }

    /// Register a materialized tree (the "ideal source" of §4).
    pub fn add_tree(&mut self, name: impl Into<String>, tree: &Tree) -> &mut Self {
        self.add_navigator(name, DocNavigator::from_tree(tree))
    }

    /// Register a tree given in the paper's term syntax (tests, examples).
    /// Panics on malformed input.
    pub fn add_term(&mut self, name: impl Into<String>, term: &str) -> &mut Self {
        self.add_navigator(name, DocNavigator::from_term(term))
    }

    /// Attach the shared semantic answer cache. Engines built from this
    /// registry can then resolve `~view:N` leaves (emitted by
    /// [`ViewCatalog::rewrite_against_views`]) to zero-wire navigators
    /// over the catalog's materialized answers. One catalog handle is
    /// typically shared across every session of a server, so a view
    /// recorded by one session answers the next session's query.
    pub fn set_view_catalog(&mut self, catalog: ViewCatalog) -> &mut Self {
        self.view_catalog = Some(catalog);
        self
    }

    /// The attached semantic answer cache, if any.
    pub fn view_catalog(&self) -> Option<ViewCatalog> {
        self.view_catalog.clone()
    }

    /// The combined invalidation epoch for `name`: the source's
    /// fragment-cache epoch (bumped by `FragmentCache::invalidate`) plus
    /// the catalog's own epoch (bumped by
    /// [`ViewCatalog::invalidate_source`]). A recorded view is only
    /// served while the combined epoch it was recorded under still
    /// matches — so invalidation through *either* channel retires the
    /// dependent views.
    pub fn source_epoch(&self, name: &str) -> u64 {
        let cache_epoch = self
            .sources
            .get(name)
            .and_then(|r| r.cache.as_ref())
            .map(|c| c.source_epoch(name))
            .unwrap_or(0);
        let catalog_epoch =
            self.view_catalog.as_ref().map(|c| c.source_epoch(name)).unwrap_or(0);
        cache_epoch + catalog_epoch
    }

    /// Shared handle to the navigator (and health, if any) for `name`.
    /// Registered sources win; otherwise a `~view:N` name resolves to a
    /// fresh [`DocNavigator`] over the catalog's materialized answer —
    /// the zero-wire backend a semantically rewritten plan navigates.
    /// View-backed sources carry no health/stats/trace: they never touch
    /// the wire, so there is nothing to observe.
    pub(crate) fn resolve(&self, name: &str) -> Result<Registered, EngineError> {
        if let Some(reg) = self.sources.get(name) {
            return Ok(reg.clone());
        }
        if let Some(id) = parse_view_source(name) {
            if let Some(doc) = self.view_catalog.as_ref().and_then(|c| c.view_doc(id)) {
                return Ok(Registered {
                    nav: Arc::new(Mutex::new(erase(DocNavigator::new(doc)))),
                    health: None,
                    stats: None,
                    trace: None,
                    metrics: None,
                    cache: None,
                });
            }
            return Err(EngineError::new(format!(
                "plan references cached view `{name}` that is no longer in the catalog"
            )));
        }
        Err(EngineError::new(format!("plan references unknown source `{name}`")))
    }

    /// Names currently registered.
    pub fn names(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_get() {
        let mut reg = SourceRegistry::new();
        reg.add_term("homesSrc", "homes[h1]");
        reg.add_term("schoolsSrc", "schools[s1]");
        let mut names = reg.names();
        names.sort_unstable();
        assert_eq!(names, ["homesSrc", "schoolsSrc"]);
        let a = reg.resolve("homesSrc").unwrap();
        let b = reg.resolve("homesSrc").unwrap();
        assert!(Arc::ptr_eq(&a.nav, &b.nav), "same connection shared");
        assert!(a.health.is_none(), "plain navigators report no health");
        assert!(reg.resolve("never").is_err());
    }

    #[test]
    fn stats_handle_travels_with_the_navigator() {
        use mix_buffer::{BufferNavigator, FillPolicy, TreeWrapper};
        use mix_xml::term::parse_term;

        let tree = parse_term("homes[h1,h2]").unwrap();
        let nav =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "homes");
        let (health, stats) = (nav.health(), nav.stats());
        let mut reg = SourceRegistry::new();
        reg.add_navigator_with_stats("homesSrc", nav, health, stats.clone());
        let got = reg.resolve("homesSrc").unwrap();
        let handle = got.stats.expect("stats registered");
        // Same shared cells: navigating through the registered connection
        // is visible on the caller's handle and vice versa.
        assert_eq!(handle.snapshot(), stats.snapshot());
    }

    #[test]
    fn health_handle_travels_with_the_navigator() {
        use mix_buffer::{BufferNavigator, FillPolicy, TreeWrapper};
        use mix_xml::term::parse_term;

        let tree = parse_term("homes[h1]").unwrap();
        let nav =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::WholeSubtree), "homes");
        let health = nav.health();
        let mut reg = SourceRegistry::new();
        reg.add_navigator_with_health("homesSrc", nav, health.clone());
        let got = reg.resolve("homesSrc").unwrap();
        let handle = got.health.expect("health registered");
        health.record_degraded(&"synthetic");
        assert_eq!(handle.snapshot().degraded_ops, 1, "same shared cells");
    }
}
