//! Standing-notifier backlog and lag under an open-loop and a closed-loop
//! writer.
//!
//! Usage:
//!   cargo run --release -p arsp-bench --bin standing_backlog -- SECONDS
//!
//! One [`ArspService`] over a dataset the size of one shard of the serving
//! benchmark's churn workload (250 objects, up to 16 instances, 4
//! dimensions) carries churn's four standing subscriptions: two LOOP, one
//! Auto, one weight-ratio. Its writer then overwrites 8 instances and
//! publishes, for SECONDS (optional, default 10) per mode:
//!
//! * **open** — one batch every 400 ms, churn's whole-cluster write rate
//!   landing on this one service;
//! * **closed** — each batch as soon as the last publish returned, the
//!   fastest writer there is.
//!
//! Per mode it prints one JSON object: publishes, the publish-ack median
//! and maximum, the largest `ServingStats::standing_backlog` read after an
//! ack, `standing_lag_max_us` (hand-off to refresh done), and the bound
//! the backlog must stay within ([`HAND_OFF_BOUND`]). Every feed is then
//! drained and checked gapless, one batch per published version.

use std::time::{Duration, Instant};

use arsp_core::engine::QueryAlgorithm;
use arsp_core::service::{ArspService, ServiceWriter};
use arsp_core::standing::{StandingSpec, SubscriptionGuard, HAND_OFF_BOUND};
use arsp_data::SyntheticConfig;
use arsp_geometry::constraints::WeightRatio;
use arsp_geometry::ConstraintSet;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const DIM: usize = 4;
const BATCH_OPS: usize = 8;
const OPEN_LOOP_PERIOD: Duration = Duration::from_millis(400);

/// Overwrites `BATCH_OPS` random live instances with jittered coordinates,
/// keeping each probability (so every object's budget holds).
fn write_batch(writer: &mut ServiceWriter, rng: &mut ChaCha8Rng) {
    for _ in 0..BATCH_OPS {
        let store = writer.store();
        let row = store
            .canonical_rows()
            .nth(rng.gen_range(0..store.num_live_instances()))
            .expect("the store has live instances");
        let handle = store.handle_of_row(row);
        let prob = store.prob(row);
        let coords: Vec<f64> = store
            .coords_of(row)
            .iter()
            .map(|&c| (c + rng.gen_range(-0.002..0.002)).clamp(0.0, 1.0))
            .collect();
        writer.update_instance(handle, &coords, prob);
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run(mode: &str, seconds: f64) {
    let dataset = SyntheticConfig {
        num_objects: 250,
        max_instances: 16,
        dim: DIM,
        region_length: 0.2,
        phi: 0.5,
        seed: 7,
        ..SyntheticConfig::default()
    }
    .generate();
    let (service, mut writer) = ArspService::from_dataset(&dataset);
    let specs = [
        StandingSpec::constraints(&ConstraintSet::weak_ranking(DIM, 1))
            .algorithm(QueryAlgorithm::Loop),
        StandingSpec::constraints(&ConstraintSet::weak_ranking(DIM, 2))
            .algorithm(QueryAlgorithm::Loop),
        StandingSpec::constraints(&ConstraintSet::weak_ranking(DIM, 3)),
        StandingSpec::ratio(&WeightRatio::uniform(DIM, 0.5, 2.0)),
    ];
    let subs: Vec<SubscriptionGuard> = specs.into_iter().map(|s| service.subscribe(s)).collect();
    writer.sync_subscriptions();

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut published = vec![writer.version()];
    let mut acks_ms = Vec::new();
    let mut backlog_max = 0;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut due = start;
    while Instant::now() < deadline {
        if mode == "open" {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            due += OPEN_LOOP_PERIOD;
        }
        write_batch(&mut writer, &mut rng);
        let sent = Instant::now();
        published.push(writer.publish());
        acks_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        backlog_max = backlog_max.max(service.serving_stats().standing_backlog);
    }
    for sub in &subs {
        let versions: Vec<u64> = sub.drain().iter().map(|b| b.version).collect();
        assert_eq!(
            versions, published,
            "a feed lost, doubled or reordered a version"
        );
    }
    let stats = service.serving_stats();
    assert_eq!(stats.standing_backlog, 0);
    assert!(
        backlog_max <= HAND_OFF_BOUND,
        "backlog {backlog_max} past the bound"
    );
    let ack_max = acks_ms.iter().copied().fold(0.0, f64::max);
    println!(
        "{{\"mode\": \"{mode}\", \"seconds\": {seconds}, \"publishes\": {}, \
         \"ack_p50_ms\": {:.3}, \"ack_max_ms\": {ack_max:.3}, \
         \"standing_backlog_max\": {backlog_max}, \"standing_lag_max_us\": {}, \
         \"hand_off_bound\": {HAND_OFF_BOUND}, \"feeds_gapless\": true}}",
        acks_ms.len(),
        median(&mut acks_ms),
        stats.standing_lag_max_us,
    );
}

fn main() {
    let seconds = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(10.0);
    for mode in ["open", "closed"] {
        run(mode, seconds);
    }
}
