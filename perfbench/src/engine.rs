//! Engine counters shared by every workload that runs a Ring ORAM tree.

use crate::{metric, ratio, Metric};
use aboram_core::OramStats;

/// The `OramStats` counters the per-layer engine metrics are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    pub user: u64,
    background: u64,
    evict_paths: u64,
    early_reshuffles: u64,
    extensions_done: u64,
    extensions_attempted: u64,
    remote_reads: u64,
}

impl EngineCounters {
    pub fn of(s: &OramStats) -> Self {
        EngineCounters {
            user: s.user_accesses,
            background: s.background_accesses,
            evict_paths: s.evict_paths,
            early_reshuffles: s.reshuffles.total(),
            extensions_done: s.extensions_done,
            extensions_attempted: s.extensions_attempted,
            remote_reads: s.remote_slot_reads,
        }
    }

    /// The counts accumulated since `before`.
    pub fn since(self, before: EngineCounters) -> Self {
        EngineCounters {
            user: self.user - before.user,
            background: self.background - before.background,
            evict_paths: self.evict_paths - before.evict_paths,
            early_reshuffles: self.early_reshuffles - before.early_reshuffles,
            extensions_done: self.extensions_done - before.extensions_done,
            extensions_attempted: self.extensions_attempted - before.extensions_attempted,
            remote_reads: self.remote_reads - before.remote_reads,
        }
    }

    /// The `core.engine.*` count metrics, per user access.
    pub fn metrics(self, stash_peak: usize) -> Vec<Metric> {
        let per_access = |n: u64| ratio(n, self.user);
        vec![
            metric("core.engine.evict_paths_per_access", "ratio", per_access(self.evict_paths)),
            metric(
                "core.engine.early_reshuffles_per_access",
                "ratio",
                per_access(self.early_reshuffles),
            ),
            metric("core.engine.remote_reads_per_access", "ratio", per_access(self.remote_reads)),
            metric("core.engine.background_per_access", "ratio", per_access(self.background)),
            metric(
                "core.engine.extension_success",
                "ratio",
                ratio(self.extensions_done, self.extensions_attempted),
            ),
            metric("core.engine.stash_peak", "blocks", stash_peak as f64),
        ]
    }
}
