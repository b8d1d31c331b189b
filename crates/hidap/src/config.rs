//! Configuration of the HiDaP flow.

/// All tunable parameters of the HiDaP flow.
///
/// The defaults follow the values reported in the paper where they are given
/// (declustering fractions of Sect. IV-B, the λ sweep of Sect. V); the
/// annealing effort knobs are chosen so that designs with a few hundred
/// macros run in minutes.
///
/// # Example
///
/// ```
/// use hidap::HidapConfig;
///
/// let fast = HidapConfig::fast();
/// assert!(fast.sa_moves_per_block < HidapConfig::default().sa_moves_per_block);
/// let cfg = HidapConfig { lambda: 0.8, ..HidapConfig::default() };
/// assert_eq!(cfg.lambda, 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HidapConfig {
    /// Blend between block flow (λ) and macro flow (1 − λ) in the dataflow
    /// affinity (Sect. IV-D). The paper evaluates λ ∈ {0.2, 0.5, 0.8}.
    pub lambda: f64,
    /// Exponent `k` of the latency decay in `score(h, k)`.
    pub score_k: u32,
    /// `min_area` of hierarchical declustering, as a fraction of the area of
    /// the node being floorplanned (40 % in the paper).
    pub min_area_frac: f64,
    /// `open_area` of hierarchical declustering, as a fraction of the area of
    /// the node being floorplanned (1 % in the paper).
    pub open_area_frac: f64,
    /// Register arrays narrower than this are dropped from the sequential
    /// graph (Sect. IV-D step 4).
    pub min_register_bits: u64,
    /// Maximum latency explored during dataflow inference.
    pub max_flow_latency: u32,
    /// Fraction of extra whitespace added around macro area when deriving
    /// target areas (mimics placement-density targets).
    pub whitespace_frac: f64,
    /// Simulated-annealing moves attempted per block and per temperature step.
    pub sa_moves_per_block: usize,
    /// Number of temperature steps of the annealing schedule.
    pub sa_temperature_steps: usize,
    /// Geometric cooling factor per temperature step.
    pub sa_cooling: f64,
    /// Initial acceptance probability used to calibrate the starting temperature.
    pub sa_initial_acceptance: f64,
    /// Penalty weight for target-area (at) violations.
    pub penalty_target_area: f64,
    /// Penalty weight for minimum-area (am) violations.
    pub penalty_min_area: f64,
    /// Penalty weight for macro (shape-curve) violations.
    pub penalty_macro: f64,
    /// Maximum number of Pareto points kept per shape curve.
    pub shape_curve_limit: usize,
    /// Iterations of the area-optimizing annealer used during shape-curve
    /// generation, per macro in the node.
    pub shape_curve_effort: usize,
    /// Random seed; every run with the same seed is deterministic.
    pub seed: u64,
}

impl Default for HidapConfig {
    fn default() -> Self {
        Self {
            lambda: 0.5,
            score_k: 1,
            min_area_frac: 0.4,
            open_area_frac: 0.01,
            min_register_bits: 4,
            max_flow_latency: 8,
            whitespace_frac: 0.15,
            sa_moves_per_block: 60,
            sa_temperature_steps: 60,
            sa_cooling: 0.92,
            sa_initial_acceptance: 0.9,
            penalty_target_area: 0.05,
            penalty_min_area: 0.3,
            penalty_macro: 1.5,
            shape_curve_limit: 24,
            shape_curve_effort: 200,
            seed: 1,
        }
    }
}

impl HidapConfig {
    /// A reduced-effort configuration for unit tests and quick experiments.
    pub fn fast() -> Self {
        Self {
            min_register_bits: 1,
            sa_moves_per_block: 20,
            sa_temperature_steps: 25,
            shape_curve_effort: 60,
            ..Self::default()
        }
    }

    /// A high-effort configuration comparable to the paper's 0.5–2 h runs
    /// (scaled to the synthetic workloads of this reproduction).
    pub fn high_effort() -> Self {
        Self {
            sa_moves_per_block: 150,
            sa_temperature_steps: 90,
            sa_cooling: 0.95,
            shape_curve_effort: 400,
            ..Self::default()
        }
    }

    /// Sets λ and returns the modified configuration (builder style).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the RNG seed and returns the modified configuration.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a parameter is outside its
    /// meaningful range (λ ∉ \[0,1\], non-positive cooling, ...).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(format!("lambda must be in [0, 1], got {}", self.lambda));
        }
        if !(0.0..1.0).contains(&self.sa_cooling) {
            return Err(format!("sa_cooling must be in (0, 1), got {}", self.sa_cooling));
        }
        if self.min_area_frac < 0.0 || self.open_area_frac < 0.0 {
            return Err("area fractions must be non-negative".to_string());
        }
        if self.sa_temperature_steps == 0 || self.sa_moves_per_block == 0 {
            return Err("annealing effort must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_fractions() {
        let c = HidapConfig::default();
        assert_eq!(c.min_area_frac, 0.4);
        assert_eq!(c.open_area_frac, 0.01);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods() {
        let c = HidapConfig::default().with_lambda(0.2).with_seed(99);
        assert_eq!(c.lambda, 0.2);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(HidapConfig { lambda: 1.5, ..Default::default() }.validate().is_err());
        assert!(HidapConfig { sa_cooling: 1.0, ..Default::default() }.validate().is_err());
        assert!(HidapConfig { sa_temperature_steps: 0, ..Default::default() }.validate().is_err());
        assert!(HidapConfig { min_area_frac: -0.1, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn effort_presets_ordered() {
        assert!(
            HidapConfig::fast().sa_moves_per_block <= HidapConfig::default().sa_moves_per_block
        );
        assert!(
            HidapConfig::high_effort().sa_moves_per_block
                >= HidapConfig::default().sa_moves_per_block
        );
    }
}
