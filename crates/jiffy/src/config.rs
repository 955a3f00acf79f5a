//! Tuning knobs for a [`JiffyMap`](crate::JiffyMap).

/// Configuration of a Jiffy index.
///
/// The defaults correspond to the paper's settings: revision sizes bounded
/// to `[25, 300]` entries (§3.3.6) and adaptive sizing on. Two of the
/// policy's numbers are fixed rather than configured: a node splits at
/// twice its target size, and readers refresh the autoscaler statistics
/// every 100 reads (§3.3.6).
#[derive(Clone, Debug)]
pub struct JiffyConfig {
    /// Smallest revision size the autoscaler will target (paper: 25).
    pub min_revision_size: usize,
    /// Largest revision size the autoscaler will target (paper: 300).
    pub max_revision_size: usize,
    /// If `Some(n)`, disable the adaptive policy and target a fixed
    /// revision size of `n` entries (used by the `revsize` ablation).
    pub fixed_revision_size: Option<usize>,
    /// A node merges (into its predecessor) when its head revision holds
    /// at most `target × merge_factor` entries. Must be < 1.
    pub merge_factor: f64,
    /// Hard upper bound on entries per revision regardless of the policy
    /// (the 2-byte in-revision hash index limits revisions to 65 535
    /// entries, §3.3.5; we split well before that).
    pub hard_max_revision_size: usize,
    /// Recompute the cached minimum snapshot version after this many
    /// update operations ("Jiffy's inner garbage collector periodically
    /// scans the list", §3.3.4).
    pub updates_per_min_scan: u32,
    /// Disable the per-revision hash index and always binary-search
    /// (used by the `hash` ablation, §3.3.5).
    pub disable_hash_index: bool,
}

impl Default for JiffyConfig {
    fn default() -> Self {
        JiffyConfig {
            min_revision_size: 25,
            max_revision_size: 300,
            fixed_revision_size: None,
            merge_factor: 0.33,
            hard_max_revision_size: 4096,
            updates_per_min_scan: 128,
            disable_hash_index: false,
        }
    }
}

impl JiffyConfig {
    /// Configuration with a fixed revision size (adaptive policy off).
    pub fn fixed(size: usize) -> Self {
        JiffyConfig { fixed_revision_size: Some(size.max(2)), ..Default::default() }
    }

    /// Validate invariants; panics on nonsense configurations.
    pub(crate) fn validate(&self) {
        assert!(self.min_revision_size >= 2, "min_revision_size must be >= 2");
        assert!(
            self.max_revision_size >= self.min_revision_size,
            "max_revision_size must be >= min_revision_size"
        );
        assert!(
            self.merge_factor > 0.0 && self.merge_factor < 1.0,
            "merge_factor must be in (0, 1)"
        );
        assert!(
            self.hard_max_revision_size <= u16::MAX as usize,
            "hard_max_revision_size must fit the 2-byte hash index"
        );
        if let Some(n) = self.fixed_revision_size {
            assert!(n >= 2, "fixed_revision_size must be >= 2");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        JiffyConfig::default().validate();
    }

    #[test]
    fn fixed_is_valid() {
        let c = JiffyConfig::fixed(64);
        c.validate();
        assert_eq!(c.fixed_revision_size, Some(64));
    }

    #[test]
    fn fixed_clamps_tiny_sizes() {
        assert_eq!(JiffyConfig::fixed(0).fixed_revision_size, Some(2));
    }

    #[test]
    #[should_panic]
    fn bad_merge_factor_panics() {
        JiffyConfig { merge_factor: 1.5, ..Default::default() }.validate();
    }
}
