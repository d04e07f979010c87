//! The result of an ARSP computation.

use arsp_data::UncertainDataset;

/// Probability below which an instance is considered to have zero rskyline
/// probability (used only for reporting the "size of ARSP", never inside the
/// algorithms).
pub const ZERO_PROB_EPS: f64 = 1e-12;

/// All rskyline probabilities, indexed by global instance id.
///
/// This is the `ARSP = {(t, Pr_rsky(t)) | t ∈ I}` set of Problem 1; storing
/// it as a dense vector keyed by the dataset's instance ids keeps comparisons
/// between algorithms trivial.
#[derive(Clone, Debug, PartialEq)]
pub struct ArspResult {
    probs: Vec<f64>,
}

impl ArspResult {
    /// Creates a result with all probabilities initialised to zero.
    pub fn zeros(num_instances: usize) -> Self {
        Self {
            probs: vec![0.0; num_instances],
        }
    }

    /// Creates a result from a dense probability vector.
    pub fn from_probs(probs: Vec<f64>) -> Self {
        Self { probs }
    }

    /// Number of instances covered.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when the result covers no instances.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Rskyline probability of one instance.
    pub fn instance_prob(&self, instance_id: usize) -> f64 {
        self.probs[instance_id]
    }

    /// Sets the probability of one instance.
    pub fn set(&mut self, instance_id: usize, prob: f64) {
        self.probs[instance_id] = prob;
    }

    /// Adds to the probability of one instance (used by the possible-world
    /// baseline).
    pub fn add(&mut self, instance_id: usize, prob: f64) {
        self.probs[instance_id] += prob;
    }

    /// The dense probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of instances with non-zero rskyline probability — the "size of
    /// ARSP" reported on the right-hand axes of Fig. 5 and Fig. 6.
    pub fn result_size(&self) -> usize {
        self.probs.iter().filter(|&&p| p > ZERO_PROB_EPS).count()
    }

    /// Rskyline probability of each uncertain object (the sum of its
    /// instances' probabilities, §II-B).
    pub fn object_probs(&self, dataset: &UncertainDataset) -> Vec<f64> {
        assert_eq!(self.probs.len(), dataset.num_instances());
        let mut out = vec![0.0; dataset.num_objects()];
        for inst in dataset.instances() {
            out[inst.object] += self.probs[inst.id];
        }
        out
    }

    /// Rskyline probability of one uncertain object (the sum of its
    /// instances' probabilities). Prefer [`ArspResult::object_probs`] when
    /// every object is needed — this walks the object's instance list only.
    pub fn object_prob(&self, dataset: &UncertainDataset, object: usize) -> f64 {
        assert_eq!(self.probs.len(), dataset.num_instances());
        dataset
            .object(object)
            .instance_ids
            .iter()
            .map(|&id| self.probs[id])
            .sum()
    }

    /// Iterates over `(object, instance, probability)` triples in instance-id
    /// order — the ergonomic way for applications to walk a result without
    /// indexing raw probability slices.
    pub fn iter_probs<'a>(
        &'a self,
        dataset: &'a UncertainDataset,
    ) -> impl Iterator<Item = (usize, usize, f64)> + 'a {
        assert_eq!(self.probs.len(), dataset.num_instances());
        dataset
            .instances()
            .iter()
            .map(move |inst| (inst.object, inst.id, self.probs[inst.id]))
    }

    /// The `k` objects with the highest rskyline probability, in descending
    /// order (ties broken by object id for determinism).
    pub fn top_k_objects(&self, dataset: &UncertainDataset, k: usize) -> Vec<(usize, f64)> {
        top_k_ranked(self.object_probs(dataset), k)
    }

    /// Largest absolute difference between two results (used by tests and by
    /// the benchmark harness to check cross-algorithm agreement).
    pub fn max_abs_diff(&self, other: &ArspResult) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "results cover different instance sets"
        );
        self.probs
            .iter()
            .zip(&other.probs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` when every instance probability matches `other` within `tol`.
    pub fn approx_eq(&self, other: &ArspResult, tol: f64) -> bool {
        self.len() == other.len() && self.max_abs_diff(other) <= tol
    }
}

/// The `k` highest of `object_probs` (indexed by object id) as
/// `(object, probability)`, in descending order, ties broken by object id
/// for determinism.
pub(crate) fn top_k_ranked(object_probs: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = object_probs.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use arsp_data::paper_running_example;

    #[test]
    fn basic_accessors() {
        let mut r = ArspResult::zeros(3);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        r.set(0, 0.5);
        r.add(0, 0.25);
        assert!((r.instance_prob(0) - 0.75).abs() < 1e-12);
        assert_eq!(r.result_size(), 1);
        assert_eq!(r.probs(), &[0.75, 0.0, 0.0]);
    }

    #[test]
    fn object_probs_and_topk() {
        let d = paper_running_example();
        let mut r = ArspResult::zeros(d.num_instances());
        // Give object 1 total 0.6, object 0 total 0.5, others 0.
        r.set(0, 0.5); // t1,1
        r.set(2, 0.4); // t2,1
        r.set(3, 0.2); // t2,2
        let obj = r.object_probs(&d);
        assert!((obj[0] - 0.5).abs() < 1e-12);
        assert!((obj[1] - 0.6).abs() < 1e-12);
        let top = r.top_k_objects(&d, 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 0);
        let all = r.top_k_objects(&d, 10);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn object_prob_and_triple_iterator() {
        let d = paper_running_example();
        let mut r = ArspResult::zeros(d.num_instances());
        r.set(0, 0.5);
        r.set(2, 0.4);
        r.set(3, 0.2);
        // Single-object accessor matches the dense vector.
        for (obj, &dense) in r.object_probs(&d).iter().enumerate() {
            assert!((r.object_prob(&d, obj) - dense).abs() < 1e-12);
        }
        // The triple iterator walks every instance once, in id order, with
        // the owning object attached.
        let triples: Vec<(usize, usize, f64)> = r.iter_probs(&d).collect();
        assert_eq!(triples.len(), d.num_instances());
        for (i, &(object, instance, prob)) in triples.iter().enumerate() {
            assert_eq!(instance, i);
            assert_eq!(object, d.instance(i).object);
            assert_eq!(prob, r.instance_prob(i));
        }
    }

    #[test]
    fn diffs_and_equality() {
        let a = ArspResult::from_probs(vec![0.1, 0.2, 0.3]);
        let b = ArspResult::from_probs(vec![0.1, 0.25, 0.3]);
        assert!((a.max_abs_diff(&b) - 0.05).abs() < 1e-12);
        assert!(a.approx_eq(&b, 0.06));
        assert!(!a.approx_eq(&b, 0.01));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let a = ArspResult::zeros(2);
        let b = ArspResult::zeros(3);
        let _ = a.max_abs_diff(&b);
    }
}
