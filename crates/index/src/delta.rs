//! The logarithmic-method trigger for dynamic datasets.
//!
//! A dynamic dataset (see `arsp_data::VersionedStore`) tombstones removed
//! rows and appends new ones to a delta tail. [`DeltaPolicy`] decides how
//! large that pending delta (appends + tombstones) may grow, absolutely and
//! relative to the live row count, before the store is compacted. It knows
//! nothing about versions or uncertain-data semantics — the dynamic engine
//! in `arsp-core` drives it.

/// When to compact the store (the logarithmic-method threshold). A merge
/// triggers once the pending row count reaches the absolute floor **and**
/// the fraction of the live rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaPolicy {
    /// Minimum pending rows before a merge is considered at all (a small
    /// delta is not worth a compaction pass).
    pub min_pending: usize,
    /// Pending rows as a fraction of the live rows at which a merge fires.
    pub max_fraction: f64,
}

impl Default for DeltaPolicy {
    /// Merge once the delta reaches 128 pending rows *and* 8 % of the live
    /// rows — tombstoned garbage stays single-digit percent of the store
    /// while merges stay `O(log)`-amortised per row.
    fn default() -> Self {
        Self {
            min_pending: 128,
            max_fraction: 0.08,
        }
    }
}

impl DeltaPolicy {
    /// A policy that never merges (callers compact manually).
    pub fn manual() -> Self {
        Self {
            min_pending: usize::MAX,
            max_fraction: f64::INFINITY,
        }
    }

    /// A policy that merges after every mutation (useful in tests: the store
    /// then never carries more than one pending row).
    pub fn eager() -> Self {
        Self {
            min_pending: 0,
            max_fraction: 0.0,
        }
    }

    /// `true` when `pending` rows over `live` live rows warrant a merge.
    pub fn should_merge(&self, live: usize, pending: usize) -> bool {
        pending >= self.min_pending && pending as f64 >= self.max_fraction * live.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_thresholds() {
        let p = DeltaPolicy::default();
        assert!(!p.should_merge(10_000, 100), "below the absolute floor");
        assert!(!p.should_merge(10_000, 300), "below the fraction");
        assert!(p.should_merge(10_000, 900));
        assert!(p.should_merge(0, 128), "empty stores merge at the floor");
        assert!(!DeltaPolicy::manual().should_merge(10, 1_000_000));
        assert!(DeltaPolicy::eager().should_merge(1_000_000, 1));
    }
}
