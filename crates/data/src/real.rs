//! Simulated stand-ins for the paper's real datasets.
//!
//! The paper evaluates on three real datasets that are not redistributable
//! here (IIP iceberg sightings, a used-car listing corpus, and NBA game
//! logs). Following the substitution policy in README ("Substitutions"),
//! this module builds *synthetic datasets with the same schema and the same
//! structural properties the paper's analysis depends on*:
//!
//! * [`iip_like`] — 2 attributes, one instance per object, per-record
//!   confidence ∈ {0.8, 0.7, 0.6}; every object is partial (`Σp < 1`), which
//!   is the property that drives Fig. 6(a) and Fig. 7(b).
//! * [`car_like`] — 4 attributes, cars grouped into models with uniform
//!   instance probabilities and large intra-model variance (the property the
//!   paper calls out for Fig. 6(b)).
//! * [`nba_like`] — 8 per-game metrics, one object per player, one instance
//!   per game with `p = 1/|T|`; some players are consistently strong, others
//!   have high variance, which is what produces the Table I/II phenomenology.
//!
//! All generators are deterministic given their seed.

use crate::dataset::UncertainDataset;
use crate::synthetic::sample_normal;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Number of attributes of the NBA-like dataset (points, assists, steals,
/// blocks, turnovers, rebounds, minutes, field goals made).
pub const NBA_METRICS: usize = 8;

/// Builds an IIP-like dataset: `num_records` iceberg sightings with two
/// attributes (melting percentage, drifting days), one instance per object,
/// and confidence-derived probabilities in {0.8, 0.7, 0.6}.
///
/// Attributes are scaled to `[0, 1]` and mildly correlated (icebergs that
/// drifted longer tend to have melted more), with "lower is better"
/// orientation as everywhere else in the repository.
pub fn iip_like(num_records: usize, seed: u64) -> UncertainDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dataset = UncertainDataset::new(2);
    for _ in 0..num_records {
        let drift = rng.gen_range(0.0..1.0f64);
        let melt = (0.6 * drift + 0.4 * rng.gen_range(0.0..1.0)).clamp(0.0, 1.0);
        // Confidence levels R/V, VIS, RAD with the paper's probabilities.
        let prob = *[0.8, 0.7, 0.6].choose(&mut rng).expect("non-empty");
        dataset.push_object(vec![(vec![melt, drift], prob)]);
    }
    dataset
}

/// Builds a CAR-like dataset: `num_models` uncertain objects (car models),
/// each with a uniform distribution over its listed cars. Attributes are
/// price, power, mileage and registration age, scaled to `[0, 1]` with lower
/// preferred. Intra-model variance is deliberately large, matching the
/// paper's observation about the real CAR data.
pub fn car_like(num_models: usize, max_cars_per_model: usize, seed: u64) -> UncertainDataset {
    assert!(max_cars_per_model >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dataset = UncertainDataset::new(4);
    for model in 0..num_models {
        // Model-level quality in each attribute.
        let base: Vec<f64> = (0..4).map(|_| rng.gen_range(0.1..0.9)).collect();
        let cars = rng.gen_range(1..=max_cars_per_model);
        let prob = 1.0 / cars as f64;
        let instances = (0..cars)
            .map(|_| {
                let coords = base
                    .iter()
                    .map(|&b| (b + sample_normal(&mut rng, 0.0, 0.18)).clamp(0.0, 1.0))
                    .collect();
                (coords, prob)
            })
            .collect();
        dataset.push_labeled_object(Some(format!("model-{model:04}")), instances);
    }
    dataset
}

/// Per-player archetypes used by [`nba_like`] to produce the mix of
/// consistent stars, high-variance stars and role players that drives the
/// paper's effectiveness discussion (§V-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlayerArchetype {
    /// Strong averages, low game-to-game variance (the "Nikola Jokic" shape).
    ConsistentStar,
    /// Strong averages, high variance (the "Giannis" shape).
    VolatileStar,
    /// Good in one dimension only, high variance (the "Jonas Valanciunas"
    /// shape the paper contrasts against).
    Specialist,
    /// Ordinary performance.
    RolePlayer,
}

/// Builds an NBA-like dataset of `num_players` players with
/// `games_per_player` game records each, using `dims ≤ 8` of the standard
/// metrics. Returns the dataset; each object is labelled `player-XXXX` plus
/// its archetype so that effectiveness reports remain interpretable.
///
/// Metrics are oriented so that *lower is better* (i.e. they are stored as
/// `1 − normalised performance`), matching the convention of the rest of the
/// repository.
pub fn nba_like(
    num_players: usize,
    games_per_player: usize,
    dims: usize,
    seed: u64,
) -> UncertainDataset {
    assert!((1..=NBA_METRICS).contains(&dims));
    assert!(games_per_player >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dataset = UncertainDataset::new(dims);
    for player in 0..num_players {
        let archetype = match rng.gen_range(0..10) {
            0 => PlayerArchetype::ConsistentStar,
            1 => PlayerArchetype::VolatileStar,
            2 | 3 => PlayerArchetype::Specialist,
            _ => PlayerArchetype::RolePlayer,
        };
        let (skill_lo, skill_hi, noise) = match archetype {
            PlayerArchetype::ConsistentStar => (0.65, 0.9, 0.06),
            PlayerArchetype::VolatileStar => (0.6, 0.9, 0.2),
            PlayerArchetype::Specialist => (0.2, 0.5, 0.22),
            PlayerArchetype::RolePlayer => (0.2, 0.55, 0.1),
        };
        // Per-metric skill level.
        let mut skill: Vec<f64> = (0..dims)
            .map(|_| rng.gen_range(skill_lo..skill_hi))
            .collect();
        if archetype == PlayerArchetype::Specialist {
            // One elite metric, the rest ordinary.
            let star_dim = rng.gen_range(0..dims);
            skill[star_dim] = rng.gen_range(0.75..0.95);
        }
        let games = games_per_player.max(1);
        let prob = 1.0 / games as f64;
        let instances = (0..games)
            .map(|_| {
                let coords = skill
                    .iter()
                    .map(|&s| {
                        let performance = (s + sample_normal(&mut rng, 0.0, noise)).clamp(0.0, 1.0);
                        1.0 - performance
                    })
                    .collect();
                (coords, prob)
            })
            .collect();
        let label = format!("player-{player:04} ({archetype:?})");
        dataset.push_labeled_object(Some(label), instances);
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iip_shape() {
        let d = iip_like(200, 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_objects(), 200);
        assert_eq!(d.num_instances(), 200);
        assert!(d.validate().is_ok());
        // Every object has a single instance with p < 1 (ϕ = 1 in the
        // paper's terminology).
        assert_eq!(d.num_partial_objects(), 200);
        for inst in d.instances() {
            assert!([0.8, 0.7, 0.6].contains(&inst.prob));
            assert!(inst.coords.iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn car_shape() {
        let d = car_like(50, 12, 4);
        assert_eq!(d.dim(), 4);
        assert_eq!(d.num_objects(), 50);
        assert!(d.validate().is_ok());
        for obj in d.objects() {
            assert!((obj.total_prob - 1.0).abs() < 1e-9);
            let n = obj.num_instances();
            assert!((1..=12).contains(&n));
            let p = d.instance(obj.instance_ids[0]).prob;
            assert!((p - 1.0 / n as f64).abs() < 1e-12);
            assert!(obj.label.as_deref().unwrap().starts_with("model-"));
        }
    }

    #[test]
    fn nba_shape_and_determinism() {
        let a = nba_like(30, 20, 3, 9);
        let b = nba_like(30, 20, 3, 9);
        assert_eq!(a.num_instances(), 600);
        assert_eq!(a.dim(), 3);
        assert!(a.validate().is_ok());
        for (x, y) in a.instances().iter().zip(b.instances()) {
            assert_eq!(x.coords, y.coords);
        }
        for obj in a.objects() {
            assert_eq!(obj.num_instances(), 20);
            assert!((obj.total_prob - 1.0).abs() < 1e-9);
            assert!(obj.label.is_some());
        }
    }

    #[test]
    fn nba_has_varied_archetypes() {
        let d = nba_like(200, 5, 3, 123);
        let labels: Vec<&str> = d
            .objects()
            .iter()
            .filter_map(|o| o.label.as_deref())
            .collect();
        let has = |needle: &str| labels.iter().any(|l| l.contains(needle));
        assert!(has("ConsistentStar"));
        assert!(has("VolatileStar"));
        assert!(has("Specialist"));
        assert!(has("RolePlayer"));
    }

    #[test]
    #[should_panic]
    fn nba_rejects_too_many_dims() {
        let _ = nba_like(5, 5, 9, 1);
    }
}
