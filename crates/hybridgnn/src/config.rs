//! HybridGNN configuration, including the paper's ablation switches.

use mhg_models::CommonConfig;

/// Full HybridGNN configuration.
///
/// Dimension conventions match the paper: the base embedding `e_v` has
/// dimension `common.dim` (`d_m`, default 128); flow/edge embeddings and
/// both attention levels operate at `common.edge_dim` (`d_e = d_h = d_k`,
/// default 8, the optimum of Fig. 3b).
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Shared hyper-parameters (dims, walks, negatives, early stopping).
    pub common: CommonConfig,
    /// Depth `L` of the randomized inter-relationship exploration
    /// (Table VI sweeps 1–3; 2 is the paper's sweet spot for complex
    /// graphs).
    pub exploration_depth: usize,
    /// Ablation: metapath-level self-attention (Eq. 6) — when off, flows
    /// are combined by plain mean pooling.
    pub use_metapath_attention: bool,
    /// Ablation: relationship-level self-attention (Eq. 9) — when off, the
    /// per-relation summaries are used directly.
    pub use_relationship_attention: bool,
    /// Ablation: the randomized inter-relationship exploration flow
    /// (§III-B) — when off, only intra-relationship metapath flows remain.
    pub use_randomized_exploration: bool,
    /// Ablation: hybrid (metapath-guided) aggregation flows — when off,
    /// metapath flows are replaced by uniform random-neighbor aggregation.
    pub use_hybrid_flows: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            common: CommonConfig::default(),
            exploration_depth: 2,
            use_metapath_attention: true,
            use_relationship_attention: true,
            use_randomized_exploration: true,
            use_hybrid_flows: true,
        }
    }
}

impl HybridConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            common: CommonConfig::fast(),
            ..Self::default()
        }
    }

    /// The `w/o metapath-level attention` ablation of Table VIII.
    pub fn without_metapath_attention(mut self) -> Self {
        self.use_metapath_attention = false;
        self
    }

    /// The `w/o relationship-level attention` ablation of Table VIII.
    pub fn without_relationship_attention(mut self) -> Self {
        self.use_relationship_attention = false;
        self
    }

    /// The `w/o randomized exploration` ablation of Table VIII.
    pub fn without_randomized_exploration(mut self) -> Self {
        self.use_randomized_exploration = false;
        self
    }

    /// The `w/o hybrid aggregation flow` ablation of Table VIII.
    pub fn without_hybrid_flows(mut self) -> Self {
        self.use_hybrid_flows = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HybridConfig::default();
        assert_eq!(c.exploration_depth, 2);
        assert_eq!(c.common.dim, 128);
        assert_eq!(c.common.edge_dim, 8);
        assert!(c.use_metapath_attention && c.use_relationship_attention);
        assert!(c.use_randomized_exploration && c.use_hybrid_flows);
    }

    #[test]
    fn ablation_builders() {
        assert!(
            !HybridConfig::fast()
                .without_metapath_attention()
                .use_metapath_attention
        );
        assert!(
            !HybridConfig::fast()
                .without_relationship_attention()
                .use_relationship_attention
        );
        assert!(
            !HybridConfig::fast()
                .without_randomized_exploration()
                .use_randomized_exploration
        );
        assert!(!HybridConfig::fast().without_hybrid_flows().use_hybrid_flows);
    }
}
