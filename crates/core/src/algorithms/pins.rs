//! Shared inputs and digest of the kernels' output pins: unit tests that
//! hold a kernel's probability bits and work counters to values recorded
//! before a change to its loop.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over every probability's bit pattern.
pub(crate) fn bits_digest(probs: &[f64]) -> u64 {
    probs.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        p.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// ≥ 1,024 tie-heavy `(object, prob, coords)` rows in `dim` dimensions, in
/// ascending object order: grid coordinates (ties on every axis), a quarter
/// of the instances copying an earlier instance's coordinates (duplicates
/// across objects), and two objects holding half their mass at the minimum
/// corner of the whole set. Every object has 2–5 instances, so no single
/// instance saturates its object and prunes everything behind it.
pub(crate) fn tie_heavy_rows(dim: usize) -> Vec<(usize, f64, Vec<f64>)> {
    tie_heavy_rows_with(dim, 2..6)
}

/// [`tie_heavy_rows`] whose objects after the first two hold `instances`
/// instances each (a count drawn per object), e.g. `20..41`: enough for an
/// object's aggregated R-tree to outgrow one leaf and split.
pub(crate) fn tie_heavy_rows_with(
    dim: usize,
    instances: std::ops::Range<i32>,
) -> Vec<(usize, f64, Vec<f64>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e57 + dim as u64);
    let grid_row = |rng: &mut ChaCha8Rng| -> Vec<f64> {
        (0..dim)
            .map(|_| rng.gen_range(0..8) as f64 * 0.25)
            .collect()
    };
    let mut rows = Vec::new();
    for obj in 0..2 {
        rows.push((obj, 0.5, vec![0.0; dim]));
        let row = grid_row(&mut rng);
        rows.push((obj, 0.5, row));
    }
    let mut obj = 2;
    while rows.len() < 1_030 {
        let k = rng.gen_range(instances.clone());
        for _ in 0..k {
            let row = if rows.len() > 4 && rng.gen_bool(0.25) {
                let from = rng.gen_range(4..rows.len());
                rows[from].2.clone()
            } else {
                grid_row(&mut rng)
            };
            rows.push((obj, 1.0 / k as f64, row));
        }
        obj += 1;
    }
    rows
}
