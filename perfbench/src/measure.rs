//! What one block measures: per-op latencies, phase times, correctness
//! failures, and (on traced blocks) per-layer diffs taken around the timed
//! phase.

use std::collections::BTreeMap;

use tango_metrics::Snapshot;

use crate::deploy::Deployment;
use crate::trace::{CallCounts, CountingAlloc, SpanTotals};

/// Registry counters the per-layer metrics read, diffed around a window.
pub const COUNTERS: &[&str] = &[
    "corfu.client.tail_queries",
    "corfu.client.read_batches",
    "corfu.client.hole_fills",
    "corfu.client.junk_forced",
    "corfu.hole_polls",
    "corfu.storage.writes",
    "corfu.storage.reads",
    "stream.cache_hits",
    "stream.cache_misses",
    "rpc.bytes_out",
    "rpc.bytes_in",
    "meta.reads",
];

/// Registry histograms whose every event is recorded, so their `sum` is
/// exact; diffed as (count, sum).
pub const HISTOGRAMS: &[&str] = &[
    "tango.apply_latency_ns",
    "tango.conflict_check_latency_ns",
    "stream.sync_latency_ns",
    "stream.read_batch_size",
    "rpc.round_trip_ns",
];

/// The flash tier's counters, summed over storage nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierCounts {
    pub cold_pages: u64,
    pub migrated_pages: u64,
    pub reclaimed_pages: u64,
}

impl TierCounts {
    pub fn now(dep: &Deployment) -> Self {
        let mut t = TierCounts::default();
        for (_, node) in dep.storage_nodes() {
            let s = node.tier_stats();
            t.cold_pages += s.cold_pages;
            t.migrated_pages += s.migrated_pages;
            t.reclaimed_pages += s.reclaimed_pages;
        }
        t
    }
}

/// Diffs accumulated over one or more traced windows.
#[derive(Debug, Clone, Default)]
pub struct LayerDiff {
    pub counters: BTreeMap<&'static str, u64>,
    pub histograms: BTreeMap<&'static str, (u64, u64)>,
    pub calls: CallCounts,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub migrated_pages: u64,
    pub reclaimed_pages: u64,
    pub spans: SpanTotals,
}

impl LayerDiff {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.histograms.get(name).copied().unwrap_or((0, 0))
    }

    pub fn add(&mut self, other: &LayerDiff) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, (c, s)) in &other.histograms {
            let e = self.histograms.entry(k).or_default();
            e.0 += c;
            e.1 += s;
        }
        self.calls.add(&other.calls);
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.migrated_pages += other.migrated_pages;
        self.reclaimed_pages += other.reclaimed_pages;
        self.spans.add(&other.spans);
    }
}

/// An open traced window: the state every diff is taken against.
pub struct Window {
    snap: Snapshot,
    calls: CallCounts,
    allocs: (u64, u64),
    tier: TierCounts,
}

impl Window {
    pub fn open(dep: &Deployment) -> Window {
        let w = Window {
            snap: dep.snapshot(),
            calls: CallCounts::now(),
            allocs: CountingAlloc::counts(),
            tier: TierCounts::now(dep),
        };
        CountingAlloc::set_counting(true);
        w
    }

    pub fn close(self, dep: &Deployment, spans: SpanTotals) -> LayerDiff {
        CountingAlloc::set_counting(false);
        let allocs = CountingAlloc::counts();
        let calls = CallCounts::now().since(&self.calls);
        let tier = TierCounts::now(dep);
        let snap = dep.snapshot();
        let mut diff = LayerDiff {
            calls,
            allocs: allocs.0 - self.allocs.0,
            alloc_bytes: allocs.1 - self.allocs.1,
            migrated_pages: tier.migrated_pages.saturating_sub(self.tier.migrated_pages),
            reclaimed_pages: tier.reclaimed_pages.saturating_sub(self.tier.reclaimed_pages),
            spans,
            ..LayerDiff::default()
        };
        for &name in COUNTERS {
            diff.counters.insert(name, snap.counter(name).saturating_sub(self.snap.counter(name)));
        }
        for &name in HISTOGRAMS {
            let (c1, s1) = hist(&snap, name);
            let (c0, s0) = hist(&self.snap, name);
            diff.histograms.insert(name, (c1.saturating_sub(c0), s1.saturating_sub(s0)));
        }
        diff
    }
}

fn hist(snap: &Snapshot, name: &str) -> (u64, u64) {
    snap.histogram(name).map(|h| (h.count(), h.sum)).unwrap_or((0, 0))
}

/// Everything one block measured.
#[derive(Debug, Default)]
pub struct Block {
    pub traced: bool,
    pub spawn_s: f64,
    pub open_s: f64,
    /// Ops of the timed phase and its wall time.
    pub main_ops: u64,
    pub main_secs: f64,
    /// Latencies in nanoseconds, by op kind.
    pub update_ns: Vec<u64>,
    pub query_ns: Vec<u64>,
    pub tx_ns: Vec<u64>,
    pub tx_attempts: u64,
    pub tx_commits: u64,
    /// Wall time of the phases that issued the transactions.
    pub tx_secs: f64,
    /// Tx attempts and aborts inside the traced window.
    pub window_tx_attempts: u64,
    pub window_tx_aborts: u64,
    pub restore_ms: Vec<f64>,
    pub checkpoint_trim_ms: Vec<f64>,
    /// Live pages per storage node, with the node's log, at block end.
    pub live_pages: Vec<(u32, u64)>,
    pub cold_pages: u64,
    /// Ops attempted (timed phase, probes, restores) and those that failed,
    /// plus failed correctness checks.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Digest of the generated inputs, to show seeds change them.
    pub digest: u64,
    /// Per-layer diffs (traced blocks only).
    pub layer: LayerDiff,
}

impl Block {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn live_pages_max(&self) -> u64 {
        self.live_pages.iter().map(|&(_, p)| p).max().unwrap_or(0)
    }

    pub fn live_pages_of_log(&self, log: u32) -> u64 {
        self.live_pages.iter().filter(|&&(l, _)| l == log).map(|&(_, p)| p).max().unwrap_or(0)
    }
}

/// The nearest-rank `q`-quantile of `sorted`.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
