//! Configuration of the VDPS generator.

/// Tuning knobs of the C-VDPS dynamic program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdpsConfig {
    /// Distance threshold `ε` (km) of the paper's distance-constrained
    /// pruning strategy: a delivery point `dp_j` is only appended after
    /// `dp_i` when `d(dp_i, dp_j) ≤ ε`. `None` disables pruning (the
    /// paper's `-W` algorithm variants).
    pub epsilon: Option<f64>,
    /// Maximum subset size to generate. Callers normally pass the largest
    /// `maxDP` among the center's workers — larger sets can never be
    /// assigned to anyone.
    pub max_len: usize,
}

impl VdpsConfig {
    /// A config with pruning radius `epsilon` (km) and length cap `max_len`.
    #[must_use]
    pub fn pruned(epsilon: f64, max_len: usize) -> Self {
        Self {
            epsilon: Some(epsilon),
            max_len,
        }
    }

    /// A config without distance pruning (the `-W` variants).
    #[must_use]
    pub fn unpruned(max_len: usize) -> Self {
        Self {
            epsilon: None,
            max_len,
        }
    }

    /// Whether the extension `dp_i → dp_j` at distance `d` survives pruning.
    #[must_use]
    pub fn allows_hop(&self, d: f64) -> bool {
        match self.epsilon {
            Some(eps) => d <= eps,
            None => true,
        }
    }
}

impl Default for VdpsConfig {
    /// The paper's SYN defaults: `ε = 2 km`, `maxDP = 3` (Table I).
    fn default() -> Self {
        Self::pruned(2.0, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_config_limits_hops() {
        let cfg = VdpsConfig::pruned(1.5, 3);
        assert!(cfg.allows_hop(1.5));
        assert!(!cfg.allows_hop(1.5000001));
    }

    #[test]
    fn unpruned_config_allows_everything() {
        let cfg = VdpsConfig::unpruned(4);
        assert!(cfg.allows_hop(f64::MAX));
    }

    #[test]
    fn default_matches_table_one() {
        let cfg = VdpsConfig::default();
        assert_eq!(cfg.epsilon, Some(2.0));
        assert_eq!(cfg.max_len, 3);
    }
}
