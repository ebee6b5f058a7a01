//! A [`GraphStore`] wrapper that counts and times every neighbour read,
//! so the graph layer's share of a run is measured from outside the
//! library.

use std::sync::Arc;
use std::time::Instant;

use mhg_graph::{GraphStore, NodeId, NodeTypeId, RelationId, Schema, ShardedCsr};
use mhg_obs::{Histogram, MetricValue, Registry};

use crate::stats::nanos_since;

/// Forwards every [`GraphStore`] call to `inner` and records the duration
/// of each `with_neighbors` call in a histogram. The provided trait
/// methods (`neighbor_at`, `has_edge`, …) are left at their defaults, so
/// they too go through the timed `with_neighbors`; results are identical
/// to calling `inner` directly because every store presents the same
/// neighbour lists.
///
/// An *attributing* store additionally splits calls into page-cache hits
/// and misses: a call counts as a miss when the pager's load counter rose
/// across it. That reading is only exact with one thread calling.
pub struct TimedStore<'a, G: GraphStore> {
    inner: &'a G,
    pager: Option<&'a ShardedCsr>,
    registry: Registry,
    calls: Arc<Histogram>,
    hits: Arc<Histogram>,
    misses: Arc<Histogram>,
}

/// Call count and summed nanoseconds of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls recorded.
    pub count: u64,
    /// Their summed duration in nanoseconds.
    pub sum_ns: u64,
}

impl CallStats {
    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

fn stats_of(h: &Histogram) -> CallStats {
    let s = h.snapshot();
    CallStats {
        count: s.count,
        sum_ns: s.sum,
    }
}

impl<'a, G: GraphStore> TimedStore<'a, G> {
    /// Times every neighbour read of `inner`.
    pub fn new(inner: &'a G) -> Self {
        let registry = Registry::new();
        Self {
            inner,
            pager: None,
            calls: registry.histogram("graph/with_neighbors"),
            hits: registry.histogram("graph/with_neighbors_hit"),
            misses: registry.histogram("graph/with_neighbors_miss"),
            registry,
        }
    }

    /// All `with_neighbors` calls so far.
    pub fn calls(&self) -> CallStats {
        stats_of(&self.calls)
    }

    /// Calls served from the page cache (attributing stores only).
    pub fn hits(&self) -> CallStats {
        stats_of(&self.hits)
    }

    /// Calls that paged a shard in (attributing stores only).
    pub fn misses(&self) -> CallStats {
        stats_of(&self.misses)
    }

    /// The recorded histograms as JSONL lines, each name prefixed with
    /// `prefix`.
    pub fn render(&self, prefix: &str) -> Vec<String> {
        self.registry
            .snapshot()
            .into_iter()
            .filter_map(|(name, value)| match value {
                MetricValue::Histogram(h) if h.count > 0 => Some(format!(
                    "{{\"hist\":{},\"count\":{},\"sum_ns\":{},\"max_ns\":{}}}",
                    crate::trace::json_str(&format!("{prefix}{name}")),
                    h.count,
                    h.sum,
                    h.max
                )),
                _ => None,
            })
            .collect()
    }
}

impl<'a> TimedStore<'a, ShardedCsr> {
    /// Times every neighbour read of `store` and attributes each to a
    /// page-cache hit or miss. Use from one thread only.
    pub fn attributing(store: &'a ShardedCsr) -> Self {
        let mut timed = Self::new(store);
        timed.pager = Some(store);
        timed
    }
}

impl<G: GraphStore> GraphStore for TimedStore<'_, G> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.inner.node_type(v)
    }

    fn nodes_of_type(&self, ty: NodeTypeId) -> &[NodeId] {
        self.inner.nodes_of_type(ty)
    }

    fn degree(&self, v: NodeId, r: RelationId) -> usize {
        self.inner.degree(v, r)
    }

    fn num_directed_edges_in(&self, r: RelationId) -> usize {
        self.inner.num_directed_edges_in(r)
    }

    fn with_neighbors<T>(&self, v: NodeId, r: RelationId, f: impl FnOnce(&[NodeId]) -> T) -> T {
        let loads_before = self.pager.map(|p| p.page_stats().loads);
        let t = Instant::now();
        let out = self.inner.with_neighbors(v, r, f);
        let ns = nanos_since(t);
        self.calls.record(ns);
        if let (Some(pager), Some(before)) = (self.pager, loads_before) {
            if pager.page_stats().loads > before {
                self.misses.record(ns);
            } else {
                self.hits.record(ns);
            }
        }
        out
    }
}
