//! Tuning knobs shared by all BFS implementations.

use crate::adapt::{AdaptConfig, ObservedProfile};
use crate::policy::{DirectionPolicy, FrontierMode};

/// Default software-prefetch lookahead: deep enough to cover an L2 miss
/// with the work of a few frontier vertices, shallow enough that the
/// prefetched lines survive until use.
pub const DEFAULT_PREFETCH_DISTANCE: usize = 4;

/// Per-run configuration.
#[derive(Clone, Copy, Debug)]
pub struct BfsOptions {
    /// Vertices per task range (`splitSize`, Section 4.2.1). 256+ keeps
    /// scheduling overhead below 1 % on million-vertex graphs.
    pub split_size: usize,
    /// Direction-switching policy.
    pub policy: DirectionPolicy,
    /// 64-bit chunk skipping when scanning dense single-source state
    /// (Section 3.2). Disable only for the ablation bench.
    pub chunk_skip: bool,
    /// Bottom-up early exit once no further bits can be gained
    /// (Section 3.1.2). Disable only for the ablation bench.
    pub early_exit: bool,
    /// How the kernels iterate the frontier arrays: linear scan,
    /// summary-guided chunk skipping, or per-iteration online selection.
    pub frontier_mode: FrontierMode,
    /// Thresholds and damping for the online controller; consulted only
    /// when `frontier_mode` is [`FrontierMode::Auto`].
    pub adapt: AdaptConfig,
    /// Software-prefetch lookahead in the traversal hot loops: while
    /// processing frontier vertex (or neighbor) `i`, prefetch the CSR /
    /// state data of `i + prefetch_distance`. `0` disables prefetching;
    /// `Flat` mode with distance 0 reproduces the pre-summary kernels
    /// exactly.
    pub prefetch_distance: usize,
    /// Collect per-iteration, per-worker statistics. Costs one `Instant`
    /// read per task; leave off in throughput measurements.
    pub instrument: bool,
    /// Query-set id stamping the traversal's trace spans, causally linking
    /// them to the engine batch being served. `0` = unattributed (direct
    /// kernel invocations outside the engine).
    pub query_set: u64,
    /// Stop after this many iterations (for k-hop queries); `None` runs to
    /// exhaustion.
    pub max_iterations: Option<u32>,
}

impl Default for BfsOptions {
    fn default() -> Self {
        Self {
            split_size: pbfs_sched::DEFAULT_SPLIT_SIZE,
            policy: DirectionPolicy::default(),
            chunk_skip: true,
            early_exit: true,
            frontier_mode: FrontierMode::default(),
            adapt: AdaptConfig::default(),
            prefetch_distance: DEFAULT_PREFETCH_DISTANCE,
            instrument: false,
            query_set: 0,
            max_iterations: None,
        }
    }
}

impl BfsOptions {
    /// Returns a copy with instrumentation enabled.
    pub fn instrumented(mut self) -> Self {
        self.instrument = true;
        self
    }

    /// Returns a copy with the given direction policy.
    pub fn with_policy(mut self, policy: DirectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with the given task range size.
    pub fn with_split_size(mut self, split_size: usize) -> Self {
        self.split_size = split_size;
        self
    }

    /// Returns a copy with the given frontier iteration mode.
    pub fn with_frontier_mode(mut self, mode: FrontierMode) -> Self {
        self.frontier_mode = mode;
        self
    }

    /// Returns a copy with the given prefetch lookahead (0 disables).
    pub fn with_prefetch_distance(mut self, distance: usize) -> Self {
        self.prefetch_distance = distance;
        self
    }

    /// Returns a copy with the given adaptive-controller configuration.
    pub fn with_adapt(mut self, adapt: AdaptConfig) -> Self {
        self.adapt = adapt;
        self
    }

    /// Returns a copy attributed to the given query-set id (0 clears).
    pub fn with_query_set(mut self, query_set: u64) -> Self {
        self.query_set = query_set;
        self
    }

    /// Returns a copy with the prefetch distance tuned from per-chunk
    /// degree statistics: short adjacency lists leave the pointer chase
    /// latency-bound (deepen the lookahead), long ones stream well under
    /// hardware prefetch (shallow lookahead suffices).
    pub fn tuned_for(mut self, stats: &pbfs_graph::ChunkDegreeStats) -> Self {
        self.prefetch_distance = if stats.avg_degree < 4.0 {
            2 * DEFAULT_PREFETCH_DISTANCE
        } else if stats.avg_degree > 64.0 {
            DEFAULT_PREFETCH_DISTANCE / 2
        } else {
            DEFAULT_PREFETCH_DISTANCE
        };
        self
    }

    /// Feeds observed telemetry back into the options: once enough summary
    /// chunks have been scanned to trust the skip ratio, adjust the
    /// prefetch lookahead to match the *observed* frontier shape rather
    /// than the static degree histogram. A high skip ratio means the scans
    /// jump between distant active chunks (pointer-chase bound — deepen
    /// the lookahead); a low one means the scans stream (shallow
    /// suffices). With insufficient evidence the options are unchanged.
    pub fn retuned(mut self, observed: &ObservedProfile) -> Self {
        if observed.chunks_observed < ObservedProfile::MIN_EVIDENCE {
            return self;
        }
        self.prefetch_distance = if observed.summary_skip_ratio > 0.9 {
            2 * DEFAULT_PREFETCH_DISTANCE
        } else if observed.summary_skip_ratio < 0.1 {
            DEFAULT_PREFETCH_DISTANCE / 2
        } else {
            DEFAULT_PREFETCH_DISTANCE
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = BfsOptions::default();
        assert_eq!(o.split_size, 256);
        assert!(o.chunk_skip);
        assert!(o.early_exit);
        assert_eq!(o.frontier_mode, FrontierMode::Auto);
        assert_eq!(o.adapt, AdaptConfig::default());
        assert_eq!(o.adapt.hysteresis, 2);
        assert!(!o.adapt.force_switch);
        assert_eq!(o.prefetch_distance, 4);
        assert!(!o.instrument);
        assert_eq!(o.query_set, 0);
        assert!(o.max_iterations.is_none());
    }

    #[test]
    fn builders() {
        let o = BfsOptions::default()
            .instrumented()
            .with_split_size(64)
            .with_frontier_mode(FrontierMode::Flat)
            .with_prefetch_distance(0);
        assert!(o.instrument);
        assert_eq!(o.split_size, 64);
        assert_eq!(o.frontier_mode, FrontierMode::Flat);
        assert_eq!(o.prefetch_distance, 0);
    }

    #[test]
    fn tuning_follows_degree() {
        let sparse = pbfs_graph::ChunkDegreeStats::compute(&pbfs_graph::gen::path(100));
        let dense = pbfs_graph::ChunkDegreeStats::compute(&pbfs_graph::gen::complete(100));
        assert_eq!(
            BfsOptions::default().tuned_for(&sparse).prefetch_distance,
            8
        );
        assert_eq!(BfsOptions::default().tuned_for(&dense).prefetch_distance, 2);
    }

    #[test]
    fn retuning_follows_observed_skip_ratio() {
        let hollow = ObservedProfile {
            summary_skip_ratio: 0.99,
            chunks_observed: ObservedProfile::MIN_EVIDENCE,
            traversals: 10,
        };
        assert_eq!(BfsOptions::default().retuned(&hollow).prefetch_distance, 8);
        let streaming = ObservedProfile {
            summary_skip_ratio: 0.01,
            ..hollow
        };
        assert_eq!(
            BfsOptions::default().retuned(&streaming).prefetch_distance,
            2
        );
        let thin_evidence = ObservedProfile {
            chunks_observed: ObservedProfile::MIN_EVIDENCE - 1,
            ..hollow
        };
        assert_eq!(
            BfsOptions::default()
                .retuned(&thin_evidence)
                .prefetch_distance,
            DEFAULT_PREFETCH_DISTANCE
        );
    }
}
