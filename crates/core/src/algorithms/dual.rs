//! DUAL — ARSP under weight ratio constraints (§IV).
//!
//! For weight ratio constraints `R = Π_{i<d} [l_i, h_i]` the F-dominance test
//! collapses to the `O(d)` expression of Theorem 5, and the set of instances
//! that F-dominate a given instance `t` is a *downward-closed* region of the
//! original data space. Two algorithms are provided:
//!
//! * [`arsp_dual`] — the index-based algorithm: one aggregated R-tree per
//!   object answers "how much of object `j`'s mass F-dominates `t`?" for every
//!   instance. This is the practical substitute for the paper's half-space
//!   reporting / point-location machinery (Theorem 6), which the paper itself
//!   describes as "theoretical in nature"; the queries answered are identical
//!   (per-object dominating mass under weight-ratio constraints), only the
//!   data structure differs (README, "Substitutions"). Its kernel,
//!   [`arsp_dual_flat_engine`], is what every path runs, the engine under
//!   every execution mode included: it streams a [`FlatStore`] and, under
//!   parallel execution, chunks instances over worker threads (bitwise
//!   identical either way).
//! * [`DualMs2d`] — the specialised d = 2 algorithm the paper actually
//!   evaluates (Fig. 7): per-instance preprocessing sorts all other instances
//!   by their angle around the instance, after which a weight-ratio query is
//!   a single (shared, thanks to the shift strategy) angular range query.
//!   Preprocessing is quadratic — the trade-off Fig. 7(b) illustrates — while
//!   each query costs `O(log n)` plus a term for objects with several
//!   instances.

use crate::engine::{ArspEngine, QueryAlgorithm};
use crate::result::ArspResult;
use crate::stats::CounterStats;
use arsp_data::{FlatStore, UncertainDataset};
use arsp_geometry::constraints::WeightRatio;
use arsp_geometry::fdom::WeightRatioFDominance;
use arsp_index::region::FDominatorsOf;
use arsp_index::AggregateRTree;
use std::f64::consts::{FRAC_PI_2, TAU};

/// Computes ARSP under weight ratio constraints with per-object aggregated
/// R-trees (the general-dimension DUAL algorithm), as a one-shot
/// [`ArspEngine`] ratio query with [`QueryAlgorithm::Dual`] forced.
///
/// # Panics
/// If the ratio's dimensionality differs from the dataset's.
pub fn arsp_dual(dataset: &UncertainDataset, ratio: &WeightRatio) -> ArspResult {
    ArspEngine::new(dataset.clone())
        .ratio_query(ratio)
        .algorithm(QueryAlgorithm::Dual)
        .run()
        .into_result()
}

/// Builds DUAL's per-object aggregated R-trees over the *original-space*
/// instances, inserting them in instance order. The index depends only on
/// the snapshot — every weight-ratio query probes the same trees with a
/// different dominance region — which is why [`crate::engine::ArspEngine`],
/// the serving layer and the dynamic engine build it once per snapshot and
/// share it across ratio queries.
pub fn build_dual_index(flat: &FlatStore) -> Vec<AggregateRTree> {
    let mut agg: Vec<AggregateRTree> = (0..flat.num_objects())
        .map(|_| AggregateRTree::new(flat.dim()))
        .collect();
    for id in 0..flat.num_instances() {
        agg[flat.object_of(id)].insert(flat.coords_of(id), flat.prob(id));
    }
    agg
}

/// One instance's DUAL probability: probes every other object's aggregated
/// R-tree for the mass F-dominating the instance, folding the factors in
/// object order and stopping at zero.
fn dual_instance_prob(
    flat: &FlatStore,
    fdom: &WeightRatioFDominance,
    agg: &[AggregateRTree],
    id: usize,
    window_queries: &mut u64,
) -> f64 {
    let region = FDominatorsOf::new(fdom, flat.coords_of(id));
    let object = flat.object_of(id);
    let mut prob = flat.prob(id);
    for (j, tree) in agg.iter().enumerate() {
        if j == object {
            continue;
        }
        *window_queries += 1;
        let sigma = tree.sum_weights_in(&region);
        prob *= 1.0 - sigma;
        if prob <= 0.0 {
            return 0.0;
        }
    }
    prob
}

/// The DUAL entry point behind every query path, used by
/// [`crate::engine::ArspEngine`]: instance coordinates, probabilities and
/// object ids stream out of the cached [`FlatStore`] while the per-object
/// aggregated R-trees (`agg`, see [`build_dual_index`]) answer each
/// instance's per-object dominating mass. With `parallel` set the
/// instances are evaluated in contiguous chunks on worker threads: each
/// instance's probability is an independent product folded in object order,
/// so the parallel form is bitwise identical too (the index is read-only
/// here — DUAL's trees are dataset-resident, not query-mutated like B&B's).
pub fn arsp_dual_flat_engine(
    flat: &FlatStore,
    ratio: &WeightRatio,
    agg: &[AggregateRTree],
    parallel: bool,
    stats: Option<&CounterStats>,
    budget: Option<&crate::fault::QueryBudget>,
) -> ArspResult {
    assert_eq!(flat.dim(), ratio.dim(), "dimension mismatch");
    debug_assert_eq!(
        agg.len(),
        flat.num_objects(),
        "DUAL index covers a different dataset"
    );
    let fdom = WeightRatioFDominance::new(ratio.clone());
    let n = flat.num_instances();
    let mut result = ArspResult::zeros(n);
    if n == 0 {
        return result;
    }

    if parallel {
        let chunks = crate::parallel::chunk_bounds(n);
        if chunks.len() > 1 {
            use rayon::prelude::*;

            let fdom = &fdom;
            let chunk_results: Vec<(usize, Vec<f64>, u64)> = chunks
                .into_par_iter()
                .map(|range| {
                    let start = range.start;
                    let mut queries = 0u64;
                    let probs = range
                        .map(|id| {
                            crate::fault::poll(budget);
                            dual_instance_prob(flat, fdom, agg, id, &mut queries)
                        })
                        .collect();
                    (start, probs, queries)
                })
                .collect();

            for (start, probs, queries) in chunk_results {
                if let Some(s) = stats {
                    s.add_window_queries(queries);
                }
                for (offset, prob) in probs.into_iter().enumerate() {
                    result.set(start + offset, prob);
                }
            }
            return result;
        }
    }
    let mut window_queries = 0u64;
    for id in 0..n {
        crate::fault::poll(budget);
        let prob = dual_instance_prob(flat, &fdom, agg, id, &mut window_queries);
        result.set(id, prob);
    }
    if let Some(s) = stats {
        s.add_window_queries(window_queries);
    }
    result
}

/// Probabilities this close to one are treated as certain (`ln(1−p)` would
/// otherwise be `−∞`).
const FULL_EPS: f64 = 1e-12;

/// Per-reference-instance angular structure of [`DualMs2d`].
struct RefStructure {
    /// Angles (sorted ascending) of instances belonging to *single-instance*
    /// other objects.
    angles: Vec<f64>,
    /// Prefix sums of `ln(1 − p)` aligned with `angles`; instances with
    /// `p ≈ 1` contribute zero here and are counted in `full_prefix` instead.
    log_prefix: Vec<f64>,
    /// Prefix counts of instances with `p ≈ 1`.
    full_prefix: Vec<u32>,
    /// Instances of multi-instance other objects: (object, angle, prob).
    multi: Vec<(usize, f64, f64)>,
    /// Instances of other objects with exactly the same coordinates as the
    /// reference instance (they F-dominate it under any constraints).
    coincident: Vec<(usize, f64)>,
}

/// The specialised d = 2 DUAL-MS algorithm: quadratic preprocessing, fast
/// per-query evaluation for any weight ratio range `[l, h]`.
pub struct DualMs2d {
    num_objects: usize,
    /// `(object, prob)` per instance id.
    instances: Vec<(usize, f64)>,
    refs: Vec<RefStructure>,
}

impl DualMs2d {
    /// Builds the per-instance angular structures. `O(n² log n)` time and
    /// `O(n²)` space — the preprocessing cost reported in Fig. 7(b).
    ///
    /// # Panics
    /// Panics unless the dataset is two-dimensional.
    pub fn preprocess(dataset: &UncertainDataset) -> Self {
        assert_eq!(dataset.dim(), 2, "DualMs2d is the d = 2 specialisation");
        let single_instance: Vec<bool> = dataset
            .objects()
            .iter()
            .map(|o| o.num_instances() == 1)
            .collect();

        let mut refs = Vec::with_capacity(dataset.num_instances());
        for t in dataset.instances() {
            let mut items: Vec<(f64, f64)> = Vec::new(); // (angle, prob) for single-instance objects
            let mut multi = Vec::new();
            let mut coincident = Vec::new();
            for s in dataset.instances() {
                if s.object == t.object {
                    continue;
                }
                let dx = s.coords[0] - t.coords[0];
                let dy = s.coords[1] - t.coords[1];
                if dx == 0.0 && dy == 0.0 {
                    coincident.push((s.object, s.prob));
                    continue;
                }
                let angle = normalize_angle(dy.atan2(dx));
                if single_instance[s.object] {
                    items.push((angle, s.prob));
                } else {
                    multi.push((s.object, angle, s.prob));
                }
            }
            items.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut angles = Vec::with_capacity(items.len());
            let mut log_prefix = Vec::with_capacity(items.len() + 1);
            let mut full_prefix = Vec::with_capacity(items.len() + 1);
            log_prefix.push(0.0);
            full_prefix.push(0);
            let (mut log_acc, mut full_acc) = (0.0, 0u32);
            for (angle, p) in items {
                angles.push(angle);
                if p >= 1.0 - FULL_EPS {
                    full_acc += 1;
                } else {
                    log_acc += (1.0 - p).ln();
                }
                log_prefix.push(log_acc);
                full_prefix.push(full_acc);
            }
            refs.push(RefStructure {
                angles,
                log_prefix,
                full_prefix,
                multi,
                coincident,
            });
        }

        Self {
            num_objects: dataset.num_objects(),
            instances: dataset
                .instances()
                .iter()
                .map(|i| (i.object, i.prob))
                .collect(),
            refs,
        }
    }

    /// Number of angular entries stored across all reference structures —
    /// the memory footprint the paper calls out as the drawback of DUAL-MS.
    pub fn stored_entries(&self) -> usize {
        self.refs
            .iter()
            .map(|r| r.angles.len() + r.multi.len() + r.coincident.len())
            .sum()
    }

    /// Evaluates ARSP for the weight ratio range `[l, h]`
    /// (`l ≤ ω[0]/ω[1] ≤ h`).
    pub fn query(&self, l: f64, h: f64) -> ArspResult {
        assert!(l >= 0.0 && l <= h, "invalid ratio range");
        let (lo, hi) = dominance_wedge(l, h);
        let mut result = ArspResult::zeros(self.instances.len());
        // Scratch per-object accumulator reused across instances.
        let mut sigma = vec![0.0f64; self.num_objects];
        let mut touched: Vec<usize> = Vec::new();

        for (id, &(_object, prob)) in self.instances.iter().enumerate() {
            let r = &self.refs[id];
            // Contribution of single-instance objects via the prefix sums.
            let start = r.angles.partition_point(|&a| a < lo - 1e-12);
            let end = r.angles.partition_point(|&a| a <= hi + 1e-12);
            let fulls = r.full_prefix[end] - r.full_prefix[start];
            let base = if fulls > 0 {
                0.0
            } else {
                (r.log_prefix[end] - r.log_prefix[start]).exp()
            };

            // Contribution of multi-instance and coincident objects, exact
            // per-object accumulation.
            touched.clear();
            for &(obj, angle, p) in &r.multi {
                if angle >= lo - 1e-12 && angle <= hi + 1e-12 {
                    if sigma[obj] == 0.0 {
                        touched.push(obj);
                    }
                    sigma[obj] += p;
                }
            }
            for &(obj, p) in &r.coincident {
                if sigma[obj] == 0.0 {
                    touched.push(obj);
                }
                sigma[obj] += p;
            }
            let mut correction = 1.0;
            for &obj in &touched {
                correction *= (1.0 - sigma[obj]).max(0.0);
                sigma[obj] = 0.0;
            }

            result.set(id, prob * base * correction);
        }
        result
    }
}

/// Normalises an angle into `[0, 2π)`.
fn normalize_angle(angle: f64) -> f64 {
    let mut a = angle % TAU;
    if a < 0.0 {
        a += TAU;
    }
    if a >= TAU {
        a -= TAU;
    }
    a
}

/// The angular wedge (as a `[lo, hi]` range of directions of `s − t`) that
/// characterises `s ≺_F t` for 2-d weight ratio constraints `[l, h]`:
/// the directions `u` with `u · (l, 1) ≤ 0` and `u · (h, 1) ≤ 0`.
///
/// Returns `(lo, hi)` with `lo ≤ hi` in radians (the wedge never wraps for
/// `0 ≤ l ≤ h` because it always contains the direction `(0, −1)` i.e.
/// `3π/2`).
fn dominance_wedge(l: f64, h: f64) -> (f64, f64) {
    assert!(l >= 0.0 && l <= h, "invalid ratio range");
    // u · (l, 1) ≤ 0 describes the closed half-plane of directions
    // θ ∈ [α_l + π/2, α_l + 3π/2] where α_l = atan2(1, l) ∈ (0, π/2].
    // The intersection for l ≤ h is [α_l + π/2, α_h + 3π/2].
    let alpha_l = 1.0f64.atan2(l);
    let alpha_h = 1.0f64.atan2(h);
    (alpha_l + FRAC_PI_2, alpha_h + 3.0 * FRAC_PI_2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::enumerate::arsp_enum;
    use crate::algorithms::kdtt::arsp_kdtt_plus;
    use crate::algorithms::loop_scan::arsp_loop;
    use arsp_data::{paper_running_example, real, SyntheticConfig};

    #[test]
    fn dual_reproduces_example_1() {
        let d = paper_running_example();
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        let result = arsp_dual(&d, &ratio);
        assert!((result.instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
        assert!(result.instance_prob(1).abs() < 1e-12);
    }

    #[test]
    fn dual_ms_reproduces_example_1() {
        let d = paper_running_example();
        let prep = DualMs2d::preprocess(&d);
        let result = prep.query(0.5, 2.0);
        assert!((result.instance_prob(0) - 2.0 / 9.0).abs() < 1e-9);
        assert!(result.instance_prob(1).abs() < 1e-12);
        assert!(prep.stored_entries() > 0);
    }

    #[test]
    fn dual_agrees_with_enum_small() {
        for seed in 0..3u64 {
            let d = SyntheticConfig {
                num_objects: 7,
                max_instances: 3,
                dim: 3,
                region_length: 0.4,
                phi: 0.3,
                seed,
                ..SyntheticConfig::default()
            }
            .generate();
            let ratio = WeightRatio::uniform(3, 0.5, 2.0);
            let truth = arsp_enum(&d, &ratio.to_constraint_set());
            let got = arsp_dual(&d, &ratio);
            assert!(
                truth.approx_eq(&got, 1e-9),
                "seed {seed}: {}",
                truth.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn dual_agrees_with_kdtt_on_medium_data() {
        let d = SyntheticConfig {
            num_objects: 60,
            max_instances: 5,
            dim: 4,
            region_length: 0.3,
            seed: 77,
            ..SyntheticConfig::default()
        }
        .generate();
        let ratio = WeightRatio::uniform(4, 0.25, 3.0);
        let reference = arsp_kdtt_plus(&d, &ratio.to_constraint_set());
        let got = arsp_dual(&d, &ratio);
        assert!(
            reference.approx_eq(&got, 1e-8),
            "{}",
            reference.max_abs_diff(&got)
        );
    }

    #[test]
    fn dual_ms_agrees_with_loop_on_2d_multi_instance_data() {
        let d = SyntheticConfig {
            num_objects: 30,
            max_instances: 4,
            dim: 2,
            region_length: 0.3,
            phi: 0.2,
            seed: 4,
            ..SyntheticConfig::default()
        }
        .generate();
        let prep = DualMs2d::preprocess(&d);
        for (l, h) in [(0.5, 2.0), (1.0, 1.0), (0.2, 4.5), (0.84, 1.19)] {
            let ratio = WeightRatio::uniform(2, l, h);
            let reference = arsp_loop(&d, &ratio.to_constraint_set());
            let got = prep.query(l, h);
            assert!(
                reference.approx_eq(&got, 1e-8),
                "range [{l}, {h}]: {}",
                reference.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn dual_ms_on_iip_like_data() {
        // IIP: every object has a single instance with p < 1 — the fast path.
        let d = real::iip_like(120, 5);
        let prep = DualMs2d::preprocess(&d);
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        let reference = arsp_loop(&d, &ratio.to_constraint_set());
        let got = prep.query(0.5, 2.0);
        assert!(
            reference.approx_eq(&got, 1e-8),
            "{}",
            reference.max_abs_diff(&got)
        );
    }

    #[test]
    #[should_panic]
    fn dual_ms_rejects_higher_dimensions() {
        let d = SyntheticConfig::small(5, 2, 3, 1).generate();
        let _ = DualMs2d::preprocess(&d);
    }

    /// The "point engine" is the free function [`arsp_dual`], a one-shot
    /// engine query that builds the flat store and forests per call; the
    /// flat engine is the kernel called directly with a shared index and a
    /// stats sink. They must agree bitwise, and agree with KDTT+ (a
    /// different algorithm) within float tolerance.
    #[test]
    fn flat_engine_is_bitwise_identical_to_point_engine() {
        let d = SyntheticConfig {
            num_objects: 60,
            max_instances: 5,
            dim: 3,
            region_length: 0.3,
            phi: 0.2,
            seed: 19,
            ..SyntheticConfig::default()
        }
        .generate();
        let flat = FlatStore::from_dataset(&d);
        let agg = build_dual_index(&flat);
        for (l, h) in [(0.5, 2.0), (1.0, 1.0), (0.25, 3.5)] {
            let ratio = WeightRatio::uniform(3, l, h);
            let reference = arsp_dual(&d, &ratio);
            let stats = CounterStats::new();
            let got = arsp_dual_flat_engine(&flat, &ratio, &agg, false, Some(&stats), None);
            assert_eq!(
                reference.probs(),
                got.probs(),
                "flat DUAL diverged on ratio [{l}, {h}]"
            );
            let kdtt = arsp_kdtt_plus(&d, &ratio.to_constraint_set());
            assert!(
                kdtt.approx_eq(&got, 1e-9),
                "DUAL vs KDTT+ on ratio [{l}, {h}]: {}",
                kdtt.max_abs_diff(&got)
            );
            // At most one window query per (instance, other object) pair;
            // the fold stops early once a probability reaches zero.
            let queries = stats.snapshot().window_queries;
            assert!(queries > 0);
            assert!(queries <= (d.num_instances() * (d.num_objects() - 1)) as u64);
        }
    }

    #[test]
    fn flat_engine_parallel_is_bitwise_identical() {
        let d = SyntheticConfig {
            num_objects: 80,
            max_instances: 4,
            dim: 3,
            region_length: 0.3,
            phi: 0.15,
            seed: 29,
            ..SyntheticConfig::default()
        }
        .generate();
        let flat = FlatStore::from_dataset(&d);
        let agg = build_dual_index(&flat);
        let ratio = WeightRatio::uniform(3, 0.5, 2.0);
        let seq_stats = CounterStats::new();
        let seq = arsp_dual_flat_engine(&flat, &ratio, &agg, false, Some(&seq_stats), None);
        // A width-4 pool forces a fan-out even on single-core machines.
        let par_stats = CounterStats::new();
        let par = crate::parallel::with_width(4, || {
            arsp_dual_flat_engine(&flat, &ratio, &agg, true, Some(&par_stats), None)
        });
        assert_eq!(seq.probs(), par.probs());
        assert_eq!(
            seq_stats.snapshot().window_queries,
            par_stats.snapshot().window_queries,
            "query count must not depend on the execution mode"
        );
    }

    /// DUAL's bits on tie-heavy inputs whose objects hold 20–40 instances,
    /// so every object's aggregated R-tree splits, per d = 2, 3, 4, 6 under
    /// the ratio range `[0.5, 2]`. Recorded before the aggregated R-tree
    /// moved to flat arenas.
    #[test]
    fn multi_level_trees_are_pinned() {
        use crate::algorithms::pins::{bits_digest, tie_heavy_rows_with};
        const PINS: [(usize, u64); 4] = [
            (2, 0x449af96e6ce110c4),
            (3, 0x88e7e8f558ba6775),
            (4, 0xafb92071fabc0f36),
            (6, 0x79dc075277b46e3d),
        ];
        for (dim, pin) in PINS {
            let mut d = UncertainDataset::new(dim);
            let mut instances = Vec::new();
            let mut rows = tie_heavy_rows_with(dim, 20..41).into_iter().peekable();
            while let Some((object, prob, coords)) = rows.next() {
                instances.push((coords, prob));
                if rows.peek().map_or(true, |next| next.0 != object) {
                    d.push_object(std::mem::take(&mut instances));
                }
            }
            let flat = FlatStore::from_dataset(&d);
            let agg = build_dual_index(&flat);
            // A leaf holds at most 16 entries, so a larger tree has split.
            assert!(agg.iter().any(|tree| tree.len() > 16));
            let ratio = WeightRatio::uniform(dim, 0.5, 2.0);
            let got = arsp_dual_flat_engine(&flat, &ratio, &agg, false, None, None);
            assert_eq!(bits_digest(got.probs()), pin, "d = {dim}");
        }
    }

    #[test]
    fn flat_engine_handles_empty_datasets() {
        let d = UncertainDataset::new(2);
        let flat = FlatStore::from_dataset(&d);
        let agg = build_dual_index(&flat);
        let ratio = WeightRatio::uniform(2, 0.5, 2.0);
        let result = arsp_dual_flat_engine(&flat, &ratio, &agg, false, None, None);
        assert!(result.is_empty());
    }

    #[test]
    fn normalisation() {
        assert!((normalize_angle(-FRAC_PI_2) - 3.0 * FRAC_PI_2).abs() < 1e-12);
        assert!((normalize_angle(TAU + 0.1) - 0.1).abs() < 1e-12);
        assert_eq!(normalize_angle(0.0), 0.0);
    }

    #[test]
    fn dominance_wedge_matches_direct_test() {
        // For every direction θ, membership of the wedge must agree with the
        // two half-plane conditions u·(l,1) ≤ 0 and u·(h,1) ≤ 0.
        let (l, h) = (0.5, 2.0);
        let (lo, hi) = dominance_wedge(l, h);
        assert!(lo < hi);
        for k in 0..720 {
            let theta = k as f64 * TAU / 720.0;
            let u = (theta.cos(), theta.sin());
            let cond = u.0 * l + u.1 <= 1e-12 && u.0 * h + u.1 <= 1e-12;
            let theta_n = normalize_angle(theta);
            let in_wedge = theta_n >= lo - 1e-9 && theta_n <= hi + 1e-9;
            // Allow boundary disagreement within numerical tolerance.
            if (u.0 * l + u.1).abs() > 1e-6 && (u.0 * h + u.1).abs() > 1e-6 {
                assert_eq!(cond, in_wedge, "θ = {theta}");
            }
        }
    }

    #[test]
    fn wedge_for_degenerate_ratio() {
        // l = h = 1: the wedge is the half-plane below the anti-diagonal,
        // spanning exactly π.
        let (lo, hi) = dominance_wedge(1.0, 1.0);
        assert!((hi - lo - std::f64::consts::PI).abs() < 1e-9);
    }
}
